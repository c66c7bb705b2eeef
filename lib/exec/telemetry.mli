(** Request-lifecycle telemetry for the [shelley serve] daemon.

    Every work request ([check]/[lint]) gets a timing record as it moves
    through the daemon — read/classify, queue wait, dispatch, worker
    wall time — feeding per-method and per-outcome {!Histogram}s, a
    bounded ring buffer of the most recent completions, and the access
    log. The [metrics] and [health] RPCs render from here.

    Design constraints:

    - {b O(1) per event, constant memory.} Recording is a few integer
      stores and histogram increments; the ring buffer overwrites. The
      recorder can run for the daemon's whole lifetime at full request
      rate.
    - {b One clock, deterministic when faked.} Real durations are
      {!Clock.now} differences, on the same monotonic clock as every
      daemon timer. When [SHELLEY_OBS_FAKE_CLOCK] is set
      ({!Clock.fake_requested}), the clock is a tick counter advanced
      {e only} by request-lifecycle reads — one tick per read, never by
      wall time — so a serial request sequence
      produces byte-identical [metrics] snapshots and access-log lines,
      and the cram suite pins them.
    - {b Optional, invisible when off.} A disabled recorder does nothing
      and the daemon's responses are byte-identical either way
      (property-tested). Report output never depends on telemetry.

    All durations are integer milliseconds (the unit the protocol already
    uses for [deadline_ms]/[retry_after_ms]). *)

type t

type meth = [ `Check | `Lint ]

type outcome =
  [ `Ok  (** dispatched, worker answered a result *)
  | `Error  (** dispatched, answered an [error] response *)
  | `Shed  (** refused at admission: queue full *)
  | `Expired  (** deadline passed while queued; never dispatched *) ]

type entry = {
  e_seq : int;  (** completion order, 1-based *)
  e_id : string;  (** the request's [id], rendered as JSON *)
  e_client : int;  (** admission-control client id; -1 = no connection *)
  e_meth : meth;
  e_outcome : outcome;
  e_start_ms : int;  (** clock at read/classify time *)
  e_queue_ms : int;  (** classify → dispatch (or → refusal for sheds) *)
  e_exec_ms : int;  (** dispatch → response built; 0 if never dispatched *)
  e_retry_after_ms : int option;  (** the hint a shed carried *)
}
(** One finished (or refused) request, as kept in the ring buffer and
    written to the access log. *)

type pending
(** A started request: created at classify time, updated at dispatch,
    closed by {!finish}. *)

val create : ?enabled:bool -> ?fake_clock:bool -> unit -> t
(** [enabled] defaults to [true]; a disabled recorder makes every
    operation a no-op and every snapshot empty. [fake_clock] defaults to
    {!Clock.fake_requested}. The recent-requests ring keeps the last 32
    entries. *)

val enabled : t -> bool

val clock_label : t -> string
(** ["off"], ["fake"] or ["real"] — stamped into snapshots so a reader
    knows whether durations mean anything. *)

val now_ms : t -> int
(** Read the telemetry clock. Fake mode: advances one tick (= 1 ms) per
    read. Real mode: milliseconds since the recorder's monotonic epoch.
    Disabled: 0. *)

val peek_ms : t -> int
(** The clock {e without} advancing a fake tick — for rendering
    snapshots and evaluating {!health}, which must not perturb the
    deterministic request timeline. *)

(** {1 Lifecycle} *)

val start : t -> id:Jsonl.t -> meth:meth -> pending
(** Called at classify time, before the request is admitted. Reads the
    clock once. *)

val set_client : pending -> int -> unit
(** Attach the connection's admission-control client id (known only once
    the socket loop admits the work; the socketless [handle_line] path
    leaves it at -1). *)

val dispatched : t -> pending -> unit
(** Called when the request leaves the queue for a worker. Reads the
    clock once. *)

val finish :
  t -> pending -> outcome:outcome -> ?retry_after_ms:int -> unit -> entry option
(** Close the record: computes queue/exec durations (one clock read),
    feeds the per-method and per-outcome histograms and the health
    event marks, pushes the entry onto the ring buffer, and returns it
    so the caller can append it to the access log. [None] when the
    recorder is disabled. *)

val note_restart : t -> unit
(** Mark a worker restart (the daemon detects them by diffing pool
    stats); feeds the {!health} [recent_worker_restarts] signal. Does
    not advance the fake clock. *)

(** {1 Snapshots} *)

val method_hists : t -> (string * Histogram.t * Histogram.t) list
(** [(name, queue_ms, exec_ms)] per method, in fixed order
    [["check"; "lint"]]. The histograms are live — callers must not
    mutate them. *)

val outcome_hists : t -> (string * Histogram.t) list
(** Total-latency histogram per outcome, fixed order
    [["ok"; "error"; "shed"; "expired"]]; each histogram's [count] is
    the number of requests with that outcome. *)

val recent : t -> entry list
(** The ring buffer's contents, oldest first, at most 32. *)

val entry_fields : entry -> (string * Jsonl.t) list
(** The entry as JSON object fields — the access-log line format and the
    [metrics] RPC's [recent] items: [seq], [id], [client], [method],
    [outcome], [ts_ms] (= start), [queue_ms], [exec_ms], and
    [retry_after_ms] when the outcome carried a hint. *)

(** {1 Health} *)

type health = [ `Ok | `Degraded | `Overloaded ]

val health_label : health -> string

val health :
  t -> queue_depth:int -> queue_cap:int -> window_ms:int -> health * string list
(** Derive a load-balancer-probe verdict plus its reasons:
    [`Overloaded] when the queue is full or a shed happened within the
    last [window_ms]; [`Degraded] when the queue is at least half full,
    or an expiry or worker restart happened within the window; [`Ok]
    otherwise. A disabled recorder still reports the queue-depth
    signals (they come from the caller), just never the windowed ones. *)
