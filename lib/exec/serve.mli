(** The [shelley serve] daemon: a crash-tolerant, overload-safe,
    long-running verification service over a Unix-domain socket.

    Protocol: newline-delimited JSON-RPC. Each request is one line,
    [{"id": ..., "method": M, "params": {...}}]; each response one line,
    [{"id": ..., "result": {...}}] or
    [{"id": ..., "error": MSG, "code": N, "error_code": EC?,
    "retry_after_ms": MS?}]. Methods:

    - [check] — params [files] (required), [warnings] / [explain] / [lint]
      (bools), [using] (array of model files), [timeout] (seconds),
      [fuel] (int), and the admission params [priority] and [deadline_ms]
      (see below). Any other key is refused with a request-level error
      (code 2) that names it. The result's [output] is byte-identical
      to what one-shot [shelley check] prints on stdout for the same
      arguments (including the trailing ["OK: specification verified"] line
      on success) and [code] is the one-shot exit code.
    - [lint] — params [files] (required), [format] ([text]/[json]/[sarif]),
      [timeout], [fuel], [max_behavior_size] /
      [max_star_height] / [entail_fuel] / [race_fuel] (ints, the
      one-shot flags of the same names), [priority], [deadline_ms]; any
      other key is refused as for [check]. Same one-shot-equivalence
      contract against [shelley lint].
    - [status] — daemon pid, request counters, the [load] overload counters
      (queue depth/cap, [oldest_queued_ms], shed, expired,
      frames_oversized, conns_reaped), pool lifecycle stats and live
      worker pids.
    - [metrics] — the live-telemetry snapshot (schema
      ["shelley.serve-metrics/1"]): per-method [queue_ms]/[exec_ms]
      latency histograms with [count]/[sum]/[p50]/[p90]/[p99]/[max],
      per-outcome ([ok]/[error]/[shed]/[expired]) total-latency
      histograms, the [load] object, a [recent] ring of the last
      completed/refused requests, pool stats, and per-worker
      [{lane, pid, busy, tasks_done}] state. Byte-deterministic (modulo
      pids) under [SHELLEY_OBS_FAKE_CLOCK], where the telemetry clock
      ticks once per request-lifecycle event instead of reading wall
      time.
    - [health] — [ok] / [degraded] / [overloaded] plus machine-readable
      [reasons], for load-balancer probes: [overloaded] when the
      admission queue is full or a shed happened within the health
      window ([--health-window], default 10 s); [degraded] when the
      queue is at least half full or an expiry / worker restart happened
      within the window.
    - [shutdown] — acknowledge, then drain and exit.

    [status], [metrics] and [health] bypass the admission queue: they are
    answered as soon as their line is read, ahead of any queued work, so
    a full backlog does not delay them. The daemon still runs one request
    at a time inside its loop, so they wait for a request that is already
    running (a non-blocking daemon is the ROADMAP.md item "A daemon that never blocks").

    [check] and [lint] may additionally carry [priority] (int, higher is
    dispatched sooner; default 0; clamped to
    [Admission.min_priority..Admission.max_priority] since it is
    client-supplied, and aged while queued so no priority can starve the
    rest) and [deadline_ms] (max milliseconds the request will wait in the
    admission queue before being answered [expired]).

    {2 Overload behavior}

    Work requests pass a bounded {!Admission} queue. A full queue sheds the
    request immediately with [error_code = "overloaded"], [code = 4] and a
    [retry_after_ms] hint; a queued request whose deadline passes is
    answered [error_code = "expired"], [code = 3], and never dispatched.
    Dispatch is per-client round-robin within a priority level, so one
    flooding connection cannot starve the rest. [status] and [shutdown]
    bypass the queue, so however deep the backlog is they wait only for
    the request that is running.

    Hostile connections are bounded too: the connection count is capped
    ([max_conns], kept below select's FD_SETSIZE) — a connection beyond
    the cap is answered with a retryable [overloaded] error and closed at
    accept time; a frame larger than the configured maximum gets
    [error_code = "frame_too_large"] and the connection is closed; a
    connection that starts a frame and does not finish it within the read
    deadline is reaped ([error_code = "read_timeout"]). Client fds are
    nonblocking with per-connection write buffers drained via select, so
    a client that stops {e reading} cannot stall the loop either: its
    buffered output is bounded, and a connection whose pending output
    makes no progress for the read deadline is reaped without ceremony.
    Worker memory is capped via setrlimit(RLIMIT_AS), so a ballooning
    check is a classified resource-limit verdict, not a daemon (or host)
    casualty. Stable counters [serve.shed] / [serve.expired] /
    [serve.frames_oversized] / [serve.conns_reaped] /
    [serve.conns_rejected] record every degradation in [--stats] and the
    metrics JSON.

    Failure semantics: a malformed line gets an [error] response and the
    connection stays up; a worker crash mid-request yields the standard
    [Worker_crashed] block for that unit only; SIGTERM/SIGINT request a
    graceful drain — in-flight and fully-received requests finish (queued
    deadlines still honored), caches flush, the metrics sink is written,
    workers are reaped, the socket is unlinked, and {!serve} returns 0
    with no orphan processes. *)

type state
(** One daemon's mutable context: the worker pool, the optional deferred
    cache, request and overload counters. *)

val make_state :
  ?after_fork:(unit -> unit) ->
  ?cache:Cache.t ->
  ?default_timeout:float ->
  ?max_queue:int ->
  ?max_conns:int ->
  ?max_worker_mem:int ->
  ?telemetry:bool ->
  ?fake_clock:bool ->
  ?access_log:out_channel ->
  ?health_window:float ->
  jobs:int ->
  unit ->
  state
(** Build daemon state with a fresh [jobs]-wide pool. [cache] is switched to
    deferred writes. [default_timeout] applies to requests that carry no
    [timeout] param. [after_fork] is installed into the pool (the socket
    loop uses it to close its listening and client descriptors inside
    workers). [max_queue] (default 64) sizes the admission queue reported
    by [status]; [max_conns] (default 512) is the connection cap reported
    by [status]; [max_worker_mem] (MiB, default 0 = uncapped) is the
    per-worker RLIMIT_AS cap. [telemetry] (default [true]) switches the
    request-lifecycle recorder behind [metrics]/[health]; responses are
    byte-identical either way (property-tested). [fake_clock] overrides
    the {!Clock.fake_requested} detection for the telemetry clock.
    [access_log] receives one JSONL line per finished or refused work
    request. [health_window] (seconds, default 10) is the recency window
    for the [health] verdict's shed/expiry/restart signals. Exposed
    separately from {!serve} so unit tests can drive {!handle_line}
    without a socket. *)

val handle_line : state -> string -> string * [ `Continue | `Shutdown ]
(** Process one request line (without its newline), producing one response
    line (without its newline) and whether the daemon should drain. Work
    requests are executed immediately — admission control is the socket
    loop's concern — so this is a pure request->response function. Never
    raises: parse and dispatch failures become [error] responses. *)

val shutdown_state : state -> unit
(** Flush the deferred cache and shut the pool down. Idempotent. *)

val serve :
  socket:string ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?default_timeout:float ->
  ?idle_reap:float ->
  ?metrics_out:string ->
  ?metrics_interval:float ->
  ?access_log:string ->
  ?health_window:float ->
  ?max_queue:int ->
  ?max_conns:int ->
  ?max_frame_bytes:int ->
  ?read_deadline:float ->
  ?queue_deadline:float ->
  ?max_worker_mem:int ->
  unit ->
  int
(** Run the daemon on [socket] until [shutdown] or SIGTERM/SIGINT; returns
    the process exit code (0 on a graceful drain). A pre-existing socket
    path is probed with a nonblocking, bounded connect before anything
    else: ECONNREFUSED/ENOENT means the previous daemon is dead and the
    path is reclaimed; an accepted (or backlogged) connect means a live
    daemon owns it and this process refuses to steal the socket (exits 2,
    naming the owner's pid when a [status] call yields one within a
    bounded wait); any other probe failure proves nothing, so the daemon
    also refuses to start rather than clobber a possibly-live socket.

    [idle_reap] (default 30 s, measured on the monotonic clock) retires
    pool workers and flushes the cache after that much request silence;
    the next request respawns them. [metrics_out] writes the {!Obs}
    metrics JSON (atomically: temp file + rename) at the {e start} of a
    graceful drain — before the final in-flight requests run, so a drain
    that hangs cannot lose the run's metrics — and again when the drain
    completes; with [metrics_interval] (seconds) it is also rewritten
    periodically while serving, so even a SIGKILLed daemon leaves recent
    data. [access_log] appends one JSONL line per finished or refused
    work request ([seq], [id], [client], [method], [outcome], [ts_ms],
    [queue_ms], [exec_ms], and [retry_after_ms] on sheds).
    [health_window] (seconds, default 10) tunes the [health] verdict's
    recency window. [max_queue] (default 64) bounds the
    admission queue; [max_conns] (default 512, clamped below select's
    FD_SETSIZE) bounds concurrent connections — beyond it, accepts are
    answered with a retryable [overloaded] error and closed;
    [max_frame_bytes] (default 8 MiB) bounds one request line;
    [read_deadline] (default 30 s) bounds how long a started frame may
    stay unfinished and how long pending response bytes may go
    undelivered; [queue_deadline] (seconds, default none) is a
    server-wide cap on queue wait, combined with each request's own
    [deadline_ms] by taking the tighter of the two; [max_worker_mem]
    (MiB, default 0 = uncapped) caps each worker's address space. *)

val client_call : socket:string -> string -> (string, string) result
(** Connect, send one request line, read one response line. [Error] carries
    a connection-level message (the server being down, a closed socket); an
    in-band [error] response is returned as [Ok] — the caller distinguishes
    transport failures from request failures. *)

val default_retries : int
(** Default retry budget of {!client_request} (5). *)

val client_request :
  socket:string ->
  ?retries:int ->
  ?backoff_base_ms:int ->
  ?backoff_cap_ms:int ->
  ?sleep:(float -> unit) ->
  string ->
  (string, [ `Overloaded of int * string | `Unreachable of int * string ]) result
(** {!client_call} under a self-healing retry loop: connection failures and
    structured [overloaded] sheds are retried up to [retries] more times
    under capped exponential backoff ([backoff_base_ms] · 2{^attempt},
    capped at [backoff_cap_ms]) with ±25% jitter, honoring the daemon's
    [retry_after_ms] hint as a floor. Every other response — including
    [expired] and [frame_too_large] — is returned as [Ok] verbatim:
    retrying those without new information would only reheat the overload.

    [Error (`Overloaded (attempts, last_response))] means the daemon was
    alive and still shedding after the whole budget (the CLI exits 4);
    [Error (`Unreachable (attempts, message))] means no connection ever
    produced a response (the CLI exits 2). [sleep] is a test seam. *)
