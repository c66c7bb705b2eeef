(* The shelley verification daemon. One process owns a persistent
   Supervisor pool (via Checker) and a Unix-domain listening socket;
   requests are newline-delimited JSON-RPC. The protocol handler is pure
   string -> string (handle_line), so unit tests drive it without any
   socket.

   Overload safety is layered in front of the pool:

   - every per-connection read buffer is bounded ([max_frame_bytes]): an
     oversized frame gets a structured [frame_too_large] error and the
     connection is closed, so one hostile client cannot OOM the daemon
     with a single unbounded line;
   - a per-connection read deadline ([read_deadline]) reaps slow-loris
     clients that start a frame and never finish it (idle clients with
     *no* partial frame are welcome to stay connected);
   - [check]/[lint] requests pass a bounded {!Admission} queue: a full
     queue sheds with a structured [overloaded] error carrying a
     [retry_after_ms] hint; a queued request whose deadline passes is
     answered [expired] and never dispatched; dispatch is per-client
     round-robin within a [priority] level, so no client can starve the
     others. [status] and [shutdown] bypass the queue entirely, so the
     daemon stays observable while loaded;
   - worker memory is capped via setrlimit(RLIMIT_AS) (see
     {!Supervisor.config} [max_as_mb]), so a ballooning check fails as a
     classified resource limit instead of summoning the OOM killer.

   All daemon-side timers run on the monotonic clock ({!Sysconf}): a
   wall-clock jump can neither reap a warm pool nor expire a fresh
   request. *)

type load = {
  mutable queue_depth : int;
  queue_cap : int;
  mutable conns : int;
  conns_cap : int;
  mutable shed : int;
  mutable expired : int;
  mutable frames_oversized : int;
  mutable conns_reaped : int;
  mutable conns_rejected : int;
}

type state = {
  pool : Checker.pool;
  cache : Cache.t option;
  default_timeout : float option;
  load : load;
  telem : Telemetry.t;
  health_window_ms : int;
  mutable access_log : out_channel option;
  mutable oldest_probe : unit -> float option;
      (* ms the oldest queued request has waited; the socket loop installs
         a closure over its admission queue, [handle_line]-only states
         report no backlog (theirs never queues) *)
  mutable requests : int;
  mutable errors : int;
}

let make_state ?after_fork ?cache ?default_timeout ?(max_queue = 64)
    ?(max_conns = 512) ?(max_worker_mem = 0) ?(telemetry = true) ?fake_clock
    ?access_log ?(health_window = 10.) ~jobs () =
  Option.iter Cache.defer_writes cache;
  {
    pool = Checker.make_pool ?after_fork ~max_as_mb:max_worker_mem ~jobs ();
    cache;
    default_timeout;
    load =
      {
        queue_depth = 0;
        queue_cap = max_queue;
        conns = 0;
        conns_cap = max_conns;
        shed = 0;
        expired = 0;
        frames_oversized = 0;
        conns_reaped = 0;
        conns_rejected = 0;
      };
    telem = Telemetry.create ~enabled:telemetry ?fake_clock ();
    health_window_ms = int_of_float (Float.max 0.0 health_window *. 1000.);
    access_log;
    oldest_probe = (fun () -> None);
    requests = 0;
    errors = 0;
  }

let state_pool st = st.pool

let shutdown_state st =
  Option.iter (fun c -> ignore (Cache.flush c)) st.cache;
  Checker.shutdown_pool st.pool

(* --- responses -------------------------------------------------------------- *)

let num_i n = Jsonl.Num (float_of_int n)
let ok_response id fields = Jsonl.Obj [ ("id", id); ("result", Jsonl.Obj fields) ]

(* Degradation-path errors are structured: a stable [error_code] machine
   key next to the human message, plus [retry_after_ms] where a retry is
   what the daemon is asking for. Errors without an [error_code] are plain
   request mistakes (bad JSON, unknown method, bad params). *)
let error_response ?(code = 2) ?error_code ?retry_after_ms id msg =
  Jsonl.Obj
    ([ ("id", id); ("error", Jsonl.Str msg); ("code", num_i code) ]
    @ (match error_code with
      | Some ec -> [ ("error_code", Jsonl.Str ec) ]
      | None -> [])
    @
    match retry_after_ms with
    | Some ms -> [ ("retry_after_ms", num_i ms) ]
    | None -> [])

let overloaded_response ~retry_after_ms id =
  error_response ~code:4 ~error_code:"overloaded" ~retry_after_ms id
    (Printf.sprintf
       "daemon overloaded: admission queue is full; retry in %dms" retry_after_ms)

let expired_response id =
  error_response ~code:3 ~error_code:"expired" id
    "request deadline expired while queued; it was never dispatched"

(* A connection refused at accept time, before any request: same
   [overloaded] error code as a queue shed, so self-healing clients back
   off and retry rather than giving up, but counted separately
   ([conns_rejected]) so queue sheds stay deterministic. *)
let connection_limit_response ~max_conns =
  error_response ~code:4 ~error_code:"overloaded" ~retry_after_ms:1000 Jsonl.Null
    (Printf.sprintf
       "daemon overloaded: at its %d-connection limit; retry in 1000ms" max_conns)

let frame_too_large_response ~max_frame_bytes =
  error_response ~code:2 ~error_code:"frame_too_large" Jsonl.Null
    (Printf.sprintf "frame exceeds the %d-byte limit; closing connection"
       max_frame_bytes)

let read_timeout_response ~read_deadline =
  error_response ~code:2 ~error_code:"read_timeout" Jsonl.Null
    (Printf.sprintf
       "no complete frame within %gs of the first byte; closing connection"
       read_deadline)

(* --- request parameters ----------------------------------------------------- *)

let limits_of_params st params =
  let deadline =
    match Jsonl.mem_num "timeout" params with
    | None -> st.default_timeout
    | timeout -> timeout
  in
  Limits.make
    ?max_states:(Jsonl.mem_int "max_states" params)
    ?max_configs:(Jsonl.mem_int "fuel" params)
    ?deadline ()

let digests paths =
  List.filter_map
    (fun path ->
      match Digest.file path with
      | d -> Some (Digest.to_hex d)
      | exception Sys_error _ -> None)
    paths

let files_of_params params = Jsonl.mem_str_list "files" params

(* --- methods ---------------------------------------------------------------- *)

let do_check st id params =
  match files_of_params params with
  | None | Some [] ->
    error_response id "check: params.files must be a non-empty array of strings"
  | Some files -> (
    let using = Option.value (Jsonl.mem_str_list "using" params) ~default:[] in
    (* Same up-front validation as the one-shot CLI: a broken --using model
       is one request-level error, not N per-file failures. *)
    match Model_io.env_of_files using with
    | Error msg -> error_response id msg
    | Ok _ ->
      let warnings = Jsonl.mem_bool "warnings" params in
      let explain = Jsonl.mem_bool "explain" params in
      let lint = Jsonl.mem_bool "lint" params in
      let limits = limits_of_params st params in
      let verdicts =
        Checker.check_files ~limits ~warnings ~explain ~lint ~using ~pool:st.pool
          ?cache:st.cache ~cache_extra:(digests using) files
      in
      let code = Checker.exit_code verdicts in
      let buf = Buffer.create 256 in
      List.iter
        (fun (v : Checker.verdict) -> Buffer.add_string buf v.Checker.output)
        verdicts;
      (* Byte-identity with one-shot stdout includes the success line. *)
      if code = 0 then Buffer.add_string buf "OK: specification verified\n";
      ok_response id [ ("output", Jsonl.Str (Buffer.contents buf)); ("code", num_i code) ])

let do_lint st id params =
  match files_of_params params with
  | None | Some [] ->
    error_response id "lint: params.files must be a non-empty array of strings"
  | Some files -> (
    let format_name = Option.value (Jsonl.mem_str "format" params) ~default:"text" in
    match Lint_render.format_of_string format_name with
    | Error msg -> error_response id msg
    | Ok format ->
      let d = Lint_semantic.default_thresholds in
      let int_param key default =
        Option.value (Jsonl.mem_int key params) ~default
      in
      let thresholds =
        {
          Lint_semantic.max_behavior_size =
            int_param "max_behavior_size" d.Lint_semantic.max_behavior_size;
          max_star_height = int_param "max_star_height" d.Lint_semantic.max_star_height;
          entail_fuel = int_param "entail_fuel" d.Lint_semantic.entail_fuel;
          race_fuel = int_param "race_fuel" d.Lint_semantic.race_fuel;
        }
      in
      let limits = limits_of_params st params in
      let results =
        Checker.lint_files ~limits ~thresholds ~pool:st.pool ?cache:st.cache files
      in
      ok_response id
        [
          ("output", Jsonl.Str (Lint_render.render format results));
          ("code", num_i (Lint.exit_code results));
        ])

(* ms the oldest queued request has waited, Null when the queue is empty
   — measured on the daemon's monotonic clock (queue waits are real time
   even under the fake telemetry clock, whose ticks only count lifecycle
   events). *)
let oldest_queued_ms st =
  match st.oldest_probe () with
  | Some ms -> num_i (int_of_float ms)
  | None -> Jsonl.Null

let load_fields st =
  [
    ("queue_depth", num_i st.load.queue_depth);
    ("max_queue", num_i st.load.queue_cap);
    ("oldest_queued_ms", oldest_queued_ms st);
    ("conns", num_i st.load.conns);
    ("max_conns", num_i st.load.conns_cap);
    ("shed", num_i st.load.shed);
    ("expired", num_i st.load.expired);
    ("frames_oversized", num_i st.load.frames_oversized);
    ("conns_reaped", num_i st.load.conns_reaped);
    ("conns_rejected", num_i st.load.conns_rejected);
  ]

let pool_fields st =
  let s = Checker.pool_stats st.pool in
  [
    ("spawns", num_i s.Supervisor.spawns);
    ("restarts", num_i s.Supervisor.restarts);
    ("recycles", num_i s.Supervisor.recycles);
    ("backoff_waits", num_i s.Supervisor.backoff_waits);
    ("heartbeat_misses", num_i s.Supervisor.heartbeat_misses);
    ("kills", num_i s.Supervisor.kills);
    ("poisoned", num_i s.Supervisor.poisoned);
    ("fork_failures", num_i s.Supervisor.fork_failures);
    ("batches", num_i s.Supervisor.batches);
    ("tasks", num_i s.Supervisor.tasks);
    ("inline_tasks", num_i s.Supervisor.inline_tasks);
    ("live_workers", num_i s.Supervisor.live_workers);
  ]

let do_status st id =
  ok_response id
    [
      ("pid", num_i (Unix.getpid ()));
      ("requests", num_i st.requests);
      ("errors", num_i st.errors);
      ("load", Jsonl.Obj (load_fields st));
      ("pool", Jsonl.Obj (pool_fields st));
      ( "workers",
        Jsonl.Arr (List.map num_i (Checker.pool_worker_pids st.pool)) );
    ]

(* --- metrics and health -------------------------------------------------------
   Both are answered at read time, exactly like [status]: the whole point
   of a health probe is that it works while the work queue is full. *)

let hist_json h =
  let q p =
    match Histogram.quantile h p with
    | Some v -> num_i v
    | None -> Jsonl.Null
  in
  Jsonl.Obj
    [
      ("count", num_i (Histogram.count h));
      ("sum", num_i (Histogram.sum h));
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
      ( "max",
        match Histogram.max_recorded h with
        | Some v -> num_i v
        | None -> Jsonl.Null );
    ]

let do_metrics st id =
  let workers =
    List.map
      (fun (w : Supervisor.worker_info) ->
        Jsonl.Obj
          [
            ("lane", num_i w.Supervisor.wi_lane);
            ( "pid",
              match w.Supervisor.wi_pid with
              | Some pid -> num_i pid
              | None -> Jsonl.Null );
            ("busy", Jsonl.Bool w.Supervisor.wi_busy);
            ("tasks_done", num_i w.Supervisor.wi_tasks_done);
          ])
      (Checker.pool_workers st.pool)
  in
  ok_response id
    [
      ("schema", Jsonl.Str "shelley.serve-metrics/1");
      ("clock", Jsonl.Str (Telemetry.clock_label st.telem));
      ("requests", num_i st.requests);
      ("errors", num_i st.errors);
      ("load", Jsonl.Obj (load_fields st));
      ( "methods",
        Jsonl.Obj
          (List.map
             (fun (name, qh, eh) ->
               ( name,
                 Jsonl.Obj
                   [ ("queue_ms", hist_json qh); ("exec_ms", hist_json eh) ] ))
             (Telemetry.method_hists st.telem)) );
      ( "outcomes",
        Jsonl.Obj
          (List.map
             (fun (name, h) -> (name, hist_json h))
             (Telemetry.outcome_hists st.telem)) );
      ( "recent",
        Jsonl.Arr
          (List.map
             (fun e -> Jsonl.Obj (Telemetry.entry_fields e))
             (Telemetry.recent st.telem)) );
      ("pool", Jsonl.Obj (pool_fields st));
      ("workers", Jsonl.Arr workers);
    ]

let do_health st id =
  let level, reasons =
    Telemetry.health st.telem ~queue_depth:st.load.queue_depth
      ~queue_cap:st.load.queue_cap ~window_ms:st.health_window_ms
  in
  ok_response id
    [
      ("health", Jsonl.Str (Telemetry.health_label level));
      ("reasons", Jsonl.Arr (List.map (fun r -> Jsonl.Str r) reasons));
      ("queue_depth", num_i st.load.queue_depth);
      ("max_queue", num_i st.load.queue_cap);
      ("oldest_queued_ms", oldest_queued_ms st);
      ("shed", num_i st.load.shed);
      ("expired", num_i st.load.expired);
    ]

(* --- classification ----------------------------------------------------------

   One request line either gets an immediate reply (status, shutdown, and
   every malformed request — all cheap, all answered at read time, so the
   daemon stays observable however deep the work queue is) or is verifiable
   *work* to be run through admission control. [handle_line] executes work
   immediately — the admission queue is the socket loop's business — so its
   pure request->response contract (and every test built on it) is
   unchanged. *)

type work = {
  w_id : Jsonl.t;
  w_kind : [ `Check | `Lint ];
  w_params : Jsonl.t;
  w_priority : int;
  w_deadline_ms : float option;  (* max queue wait the client will accept *)
  w_telem : Telemetry.pending;  (* lifecycle record, opened at classify time *)
}

type classified =
  | Reply of Jsonl.t * [ `Continue | `Shutdown ]
  | Admit of work

let classify st line =
  match Jsonl.parse line with
  | Error msg ->
    Reply (error_response Jsonl.Null (Printf.sprintf "bad request: %s" msg), `Continue)
  | Ok req -> (
    let id = Option.value (Jsonl.member "id" req) ~default:Jsonl.Null in
    match Jsonl.mem_str "method" req with
    | None -> Reply (error_response id "missing method", `Continue)
    | Some m -> (
      let params = Option.value (Jsonl.member "params" req) ~default:(Jsonl.Obj []) in
      st.requests <- st.requests + 1;
      Obs.count "serve.requests" 1;
      let work kind =
        Admit
          {
            w_id = id;
            w_kind = kind;
            w_params = params;
            w_priority = Option.value (Jsonl.mem_int "priority" params) ~default:0;
            w_deadline_ms = Jsonl.mem_num "deadline_ms" params;
            w_telem = Telemetry.start st.telem ~id ~meth:kind;
          }
      in
      match m with
      | "check" -> work `Check
      | "lint" -> work `Lint
      | "status" -> Reply (do_status st id, `Continue)
      | "metrics" -> Reply (do_metrics st id, `Continue)
      | "health" -> Reply (do_health st id, `Continue)
      | "shutdown" -> Reply (ok_response id [ ("ok", Jsonl.Bool true) ], `Shutdown)
      | m -> Reply (error_response id ("unknown method: " ^ m), `Continue)))

(* Work can fail arbitrarily (the pool, the cache, the filesystem): an
   unexpected exception becomes an error response on that request, never a
   dead daemon. *)
let execute st (w : work) =
  match
    match w.w_kind with
    | `Check -> do_check st w.w_id w.w_params
    | `Lint -> do_lint st w.w_id w.w_params
  with
  | resp -> resp
  | exception exn ->
    error_response w.w_id ("internal error: " ^ Printexc.to_string exn)

(* Every response funnels through here so the error ledger can't drift
   between the in-process handler and the socket loop. *)
let track st resp =
  (match resp with
  | Jsonl.Obj fields when List.mem_assoc "error" fields ->
    st.errors <- st.errors + 1;
    Obs.count "serve.errors" 1
  | _ -> ());
  resp

(* Close a work request's lifecycle record and append the access-log
   line. Log I/O failures are swallowed: losing a log line must never
   cost a response. *)
let finish_work st (w : work) ~outcome ?retry_after_ms () =
  match Telemetry.finish st.telem w.w_telem ~outcome ?retry_after_ms () with
  | None -> ()
  | Some entry -> (
    match st.access_log with
    | None -> ()
    | Some oc -> (
      try
        output_string oc
          (Jsonl.to_string (Jsonl.Obj (Telemetry.entry_fields entry)) ^ "\n");
        flush oc
      with Sys_error _ -> ()))

let outcome_of_response = function
  | Jsonl.Obj fields when List.mem_assoc "error" fields -> `Error
  | _ -> `Ok

(* Dispatch + execute + close the record: the one way work leaves the
   queue for a worker, shared by the socket loop, the drain path and the
   socketless [handle_line]. *)
let run_work st (w : work) =
  Telemetry.dispatched st.telem w.w_telem;
  let resp = execute st w in
  finish_work st w ~outcome:(outcome_of_response resp) ();
  resp

let handle_line st line =
  match
    match classify st line with
    | Reply (resp, k) -> (resp, k)
    | Admit w -> (run_work st w, `Continue)
  with
  | resp, k -> (Jsonl.to_string (track st resp), k)
  | exception exn ->
    ( Jsonl.to_string
        (track st
           (error_response Jsonl.Null ("internal error: " ^ Printexc.to_string exn))),
      `Continue )

(* --- socket plumbing -------------------------------------------------------- *)

let rec write_all fd bytes pos len =
  if pos < len then
    match Unix.write fd bytes pos (len - pos) with
    | k -> write_all fd bytes (pos + k) len
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes pos len

type conn = {
  fd : Unix.file_descr;  (* nonblocking *)
  cid : int;  (* admission-control client identity *)
  rbuf : Buffer.t;
  mutable partial_since : float;
      (* monotonic instant the current partial frame started; 0.0 = the
         buffer is empty (an idle connection is never reaped for slowness) *)
  wq : string Queue.t;
      (* pending response lines (newline included): responses are never
         written synchronously — a client that stops reading fills its own
         buffer here, not the daemon's one thread *)
  mutable wpos : int;  (* written prefix of the head of [wq] *)
  mutable wbytes : int;  (* total bytes pending across [wq] *)
  mutable write_since : float;
      (* monotonic instant of the last write progress while data is
         pending; 0.0 = nothing pending *)
  mutable closing : bool;  (* drop as soon as [wq] drains *)
}

let pending conn = conn.wbytes

(* A stalled reader may buffer this much undelivered response data before
   the connection is reaped — bounded, so N hostile clients cost at most
   N * 32 MiB, never unbounded daemon growth. *)
let max_write_buffer = 32 * 1024 * 1024

(* Split the buffer's complete lines off, keeping the partial tail. *)
let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear buf;
    Buffer.add_string buf (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)

(* --- startup safety ----------------------------------------------------------

   A pre-existing socket file is only stale if nothing is listening on it.
   Probe with a nonblocking connect (a blocking one could hang startup
   indefinitely against a live daemon with a full backlog) — only a clean
   refusal (ECONNREFUSED/ENOENT) means the previous daemon is gone and the
   path can be reclaimed; success means a live daemon owns it, and a second
   daemon must refuse to steal the socket rather than silently orphan it;
   any *other* failure (EACCES, EINTR, ...) proves nothing, so the safe
   answer is "assume live, refuse to start" rather than unlink a socket a
   healthy daemon may still be serving. A [status] call (bounded wait)
   decorates the refusal with the pid. *)

let probe_live_daemon socket =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> `Undetermined (Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        let outcome =
          match Unix.connect fd (Unix.ADDR_UNIX socket) with
          | () -> `Connected
          | exception
              Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
            `Refused
          | exception
              Unix.Unix_error
                ( (Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                  _,
                  _ ) -> (
            match Unix.select [] [ fd ] [] 2.0 with
            | _, _ :: _, _ -> (
              match Unix.getsockopt_error fd with
              | None -> `Connected
              | Some (Unix.ECONNREFUSED | Unix.ENOENT) -> `Refused
              | Some e -> `Error e)
            | _ ->
              (* No resolution within the window: something is listening
                 but its backlog is full — a live, if swamped, daemon. *)
              `Busy
            | exception Unix.Unix_error _ -> `Busy)
          | exception Unix.Unix_error (e, _, _) -> `Error e
        in
        match outcome with
        | `Refused -> `Stale
        | `Busy -> `Live None
        | `Error e -> `Undetermined (Unix.error_message e)
        | `Connected ->
          (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
          let pid =
            let line = "{\"id\":0,\"method\":\"status\"}\n" in
            match write_all fd (Bytes.of_string line) 0 (String.length line) with
            | exception Unix.Unix_error _ -> None
            | () ->
              let deadline = Sysconf.monotonic_time () +. 2.0 in
              let buf = Buffer.create 256 in
              let chunk = Bytes.create 4096 in
              let rec go () =
                if String.contains (Buffer.contents buf) '\n' then
                  Option.bind
                    (Jsonl.parse
                       (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
                     |> Result.to_option)
                    (fun resp ->
                      Option.bind (Jsonl.member "result" resp) (Jsonl.mem_int "pid"))
                else begin
                  let left = deadline -. Sysconf.monotonic_time () in
                  if left <= 0.0 then None
                  else
                    match Unix.select [ fd ] [] [] left with
                    | [], _, _ -> None
                    | _ -> (
                      match Unix.read fd chunk 0 (Bytes.length chunk) with
                      | 0 -> None
                      | n ->
                        Buffer.add_subbytes buf chunk 0 n;
                        go ()
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
                      | exception Unix.Unix_error _ -> None)
                end
              in
              go ()
          in
          `Live pid)

(* --- the daemon loop --------------------------------------------------------- *)

(* Metrics snapshots are written atomically (temp file + rename in the
   same directory): a reader — or a SIGKILL mid-write — sees either the
   previous complete snapshot or the new one, never a torn file. Write
   failures are reported once on stderr, not fatal: metrics are an
   amenity, the daemon's job is answering requests. *)
let write_metrics_atomic path =
  try
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (match
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (Obs.render_metrics_json ()))
     with
    | () -> Unix.rename tmp path
    | exception Sys_error _ -> ())
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    prerr_endline ("shelley serve: cannot write metrics snapshot: " ^ msg)

let serve ~socket ?(jobs = 1) ?cache ?default_timeout ?(idle_reap = 30.)
    ?metrics_out ?metrics_interval ?access_log ?(health_window = 10.)
    ?(max_queue = 64) ?(max_conns = 512)
    ?(max_frame_bytes = 8 * 1024 * 1024) ?(read_deadline = 30.) ?queue_deadline
    ?(max_worker_mem = 0) () =
  (* select(2) rejects fds >= FD_SETSIZE (1024): keep the connection count
     comfortably below it so worker pipes and cache fds still fit. *)
  let max_conns = max 1 (min max_conns 960) in
  (* Reclaim a stale socket from a dead daemon; refuse both non-sockets and
     the socket of a daemon that is still alive. *)
  (match Unix.stat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    match probe_live_daemon socket with
    | `Stale -> ( try Unix.unlink socket with Unix.Unix_error _ -> ())
    | `Undetermined reason ->
      prerr_endline
        (Printf.sprintf
           "shelley serve: cannot tell whether a daemon still owns %s (%s); \
            refusing to start — remove the socket manually if its daemon is \
            gone"
           socket reason);
      exit 2
    | `Live pid ->
      prerr_endline
        (Printf.sprintf
           "shelley serve: a daemon%s is already running on %s; refusing to \
            steal its socket"
           (match pid with
           | Some pid -> Printf.sprintf " (pid %d)" pid
           | None -> "")
           socket);
      exit 2)
  | _ ->
    prerr_endline ("shelley serve: " ^ socket ^ " exists and is not a socket");
    exit 2
  | exception Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind listen_fd (Unix.ADDR_UNIX socket) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    prerr_endline
      (Printf.sprintf "shelley serve: cannot bind %s: %s" socket (Unix.error_message e));
    exit 2);
  Unix.listen listen_fd 16;
  (* Nonblocking, so one select round can drain the whole accept backlog:
     otherwise a burst of connects is admitted one per round, and a client
     whose connect is still queued behind its siblings' can miss the round
     in which their requests contend for the admission queue. *)
  Unix.set_nonblock listen_fd;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let conns_by_cid : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  (* Workers fork lazily, possibly while clients are connected: every
     daemon-side descriptor must close in the child or a worker would hold
     the socket open past the daemon's exit. *)
  let after_fork () =
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns
  in
  let access_log_oc =
    match access_log with
    | None -> None
    | Some path -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc -> Some oc
      | exception Sys_error msg ->
        prerr_endline ("shelley serve: cannot open access log: " ^ msg);
        None)
  in
  let st =
    make_state ~after_fork ?cache ?default_timeout ~max_queue ~max_conns
      ~max_worker_mem ?access_log:access_log_oc ~health_window ~jobs ()
  in
  let queue : work Admission.t = Admission.create ~max_queue in
  st.oldest_probe <-
    (fun () ->
      Option.map
        (fun arrival -> (Sysconf.monotonic_time () -. arrival) *. 1000.)
        (Admission.oldest_arrival queue));
  let sync_depth () = st.load.queue_depth <- Admission.length queue in
  let sync_conns () = st.load.conns <- Hashtbl.length conns in
  let draining = ref false in
  let handler = Sys.Signal_handle (fun _ -> draining := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  let next_cid = ref 0 in
  let drop conn =
    Hashtbl.remove conns conn.fd;
    Hashtbl.remove conns_by_cid conn.cid;
    ignore (Admission.drop_client queue conn.cid);
    sync_depth ();
    sync_conns ();
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  (* A connection is done for once it is closing or already dropped:
     buffered input from it must not be served. *)
  let conn_live conn = Hashtbl.mem conns conn.fd && not conn.closing in
  (* Drain as much of [conn]'s pending output as the socket accepts right
     now; the select writable set calls back for the rest. Never blocks —
     a stalled reader costs an O(1) EAGAIN, not a wedged daemon. *)
  let rec flush_conn conn =
    if pending conn = 0 then begin
      conn.write_since <- 0.0;
      if conn.closing && Hashtbl.mem conns conn.fd then drop conn
    end
    else
      let line = Queue.peek conn.wq in
      let len = String.length line in
      match Unix.write_substring conn.fd line conn.wpos (len - conn.wpos) with
      | k ->
        conn.wbytes <- conn.wbytes - k;
        conn.wpos <- conn.wpos + k;
        conn.write_since <- Sysconf.monotonic_time ();
        if conn.wpos >= len then begin
          ignore (Queue.pop conn.wq);
          conn.wpos <- 0
        end;
        flush_conn conn
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn conn
      | exception Unix.Unix_error _ -> drop conn
  in
  let respond conn resp =
    let line = Jsonl.to_string (track st resp) ^ "\n" in
    Queue.push line conn.wq;
    conn.wbytes <- conn.wbytes + String.length line;
    if conn.write_since = 0.0 then conn.write_since <- Sysconf.monotonic_time ();
    if pending conn > max_write_buffer then begin
      (* The client has stopped reading: nothing we queue can reach it. *)
      st.load.conns_reaped <- st.load.conns_reaped + 1;
      Obs.count_stable "serve.conns_reaped" 1;
      drop conn
    end
    else flush_conn conn
  in
  (* Close once everything queued (typically a final error) is delivered;
     the write-stall reaper bounds how long that delivery may take. *)
  let close_after_flush conn =
    conn.closing <- true;
    if pending conn = 0 && Hashtbl.mem conns conn.fd then drop conn
  in
  let respond_cid cid resp =
    (* The client may have disconnected while its request was queued or
       running; its work is then simply discarded. *)
    match Hashtbl.find_opt conns_by_cid cid with
    | Some conn -> respond conn resp
    | None -> ignore (track st resp)
  in
  let oversize conn =
    st.load.frames_oversized <- st.load.frames_oversized + 1;
    Obs.count_stable "serve.frames_oversized" 1;
    respond conn (frame_too_large_response ~max_frame_bytes);
    if Hashtbl.mem conns conn.fd then close_after_flush conn
  in
  let admit conn (w : work) =
    Telemetry.set_client w.w_telem conn.cid;
    let now = Sysconf.monotonic_time () in
    let deadline =
      (* The effective queue-wait budget: the tighter of the request's own
         deadline_ms and the server-wide --queue-deadline, if either. *)
      let of_ms ms = now +. (ms /. 1000.) in
      match (w.w_deadline_ms, queue_deadline) with
      | Some ms, Some qd -> Some (Float.min (of_ms ms) (now +. qd))
      | Some ms, None -> Some (of_ms ms)
      | None, Some qd -> Some (now +. qd)
      | None, None -> None
    in
    (match
       Admission.submit queue ~client:conn.cid ~priority:w.w_priority ~deadline ~now w
     with
    | Admission.Admitted -> ()
    | Admission.Shed retry_after_ms ->
      st.load.shed <- st.load.shed + 1;
      Obs.count_stable "serve.shed" 1;
      finish_work st w ~outcome:`Shed ~retry_after_ms ();
      respond conn (overloaded_response ~retry_after_ms w.w_id)
    | Admission.Expired ->
      st.load.expired <- st.load.expired + 1;
      Obs.count_stable "serve.expired" 1;
      finish_work st w ~outcome:`Expired ();
      respond conn (expired_response w.w_id));
    sync_depth ()
  in
  (* Serve every complete line this connection has buffered: immediate
     replies (status/shutdown/errors) are written at once — that is what
     keeps [status] answerable under load — and work goes through
     admission. The shutdown acknowledgment is written here too, so the
     client that asked always hears the answer. *)
  let pump conn =
    List.iter
      (fun line ->
        if conn_live conn && String.trim line <> "" then begin
          if String.length line > max_frame_bytes then oversize conn
          else
            match classify st line with
            | Reply (resp, k) ->
              respond conn resp;
              (match k with
              | `Shutdown -> draining := true
              | `Continue -> ())
            | Admit w -> admit conn w
            | exception exn ->
              respond conn
                (error_response Jsonl.Null
                   ("internal error: " ^ Printexc.to_string exn))
        end)
      (take_lines conn.rbuf);
    if conn_live conn then
      if Buffer.length conn.rbuf > max_frame_bytes then
        (* The partial tail alone already exceeds any legal frame. *)
        oversize conn
      else if Buffer.length conn.rbuf = 0 then conn.partial_since <- 0.0
      else if conn.partial_since = 0.0 then
        conn.partial_since <- Sysconf.monotonic_time ()
  in
  let chunk = Bytes.create 65536 in
  (* Does the newly read chunk contain a newline? Scanning only the chunk
     (never the accumulated buffer) keeps a hostile near-limit partial
     frame O(bytes received) instead of O(bytes^2). *)
  let chunk_has_nl n =
    let rec go i = i < n && (Bytes.get chunk i = '\n' || go (i + 1)) in
    go 0
  in
  let read_conn conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> drop conn
    | n ->
      Buffer.add_subbytes conn.rbuf chunk 0 n;
      if chunk_has_nl n then pump conn
        (* No newline arrived, so the buffer still holds one partial
           frame (pump always consumes through the last newline). A
           partial frame larger than any legal frame can never complete:
           shed it now rather than buffering an attacker's stream. *)
      else if Buffer.length conn.rbuf > max_frame_bytes then oversize conn
      else if conn.partial_since = 0.0 then
        conn.partial_since <- Sysconf.monotonic_time ()
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
    | exception Unix.Unix_error _ -> drop conn
  in
  let last_activity = ref (Sysconf.monotonic_time ()) in
  let reaped = ref false in
  (* Worker restarts feed the health probe: the pool counts them, the
     loop diffs the counter and timestamps the change. *)
  let restarts_seen = ref (Checker.pool_stats st.pool).Supervisor.restarts in
  let note_restarts () =
    let r = (Checker.pool_stats st.pool).Supervisor.restarts in
    if r > !restarts_seen then begin
      restarts_seen := r;
      Telemetry.note_restart st.telem
    end
  in
  (* --metrics-interval: periodic atomic snapshot, so a SIGKILLed daemon
     still leaves recent metrics behind. *)
  let last_snapshot = ref (Sysconf.monotonic_time ()) in
  let maybe_snapshot () =
    match (metrics_out, metrics_interval) with
    | Some path, Some interval when interval > 0.0 ->
      let now = Sysconf.monotonic_time () in
      if now -. !last_snapshot >= interval then begin
        last_snapshot := now;
        write_metrics_atomic path
      end
    | _ -> ()
  in
  (* select refused our fd set (EBADF from a descriptor closed under us,
     EINVAL past FD_SETSIZE): self-heal by dropping what is verifiably
     dead, and failing that shed the newest connection — degraded service
     beats an uncaught exception that skips every cleanup on the way out. *)
  let shed_broken () =
    let dead =
      Hashtbl.fold
        (fun _ conn acc ->
          match Unix.fstat conn.fd with
          | _ -> acc
          | exception Unix.Unix_error _ -> conn :: acc)
        conns []
    in
    match dead with
    | _ :: _ -> List.iter drop dead
    | [] ->
      Hashtbl.fold
        (fun _ (conn : conn) acc ->
          match acc with
          | Some (newest : conn) when newest.cid >= conn.cid -> acc
          | _ -> Some conn)
        conns None
      |> Option.iter (fun conn ->
             st.load.conns_reaped <- st.load.conns_reaped + 1;
             Obs.count_stable "serve.conns_reaped" 1;
             drop conn)
  in
  while not !draining do
    let rfds =
      listen_fd
      :: Hashtbl.fold
           (fun fd conn acc -> if conn.closing then acc else fd :: acc)
           conns []
    in
    let wfds =
      Hashtbl.fold
        (fun fd conn acc -> if pending conn > 0 then fd :: acc else acc)
        conns []
    in
    (* With admitted work waiting, only poll — dispatch must not starve
       behind the select timer. *)
    let select_timeout = if Admission.length queue > 0 then 0.0 else 0.5 in
    (match Unix.select rfds wfds [] select_timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> shed_broken ()
    | readable, writable, _ ->
      List.iter
        (fun fd ->
          if fd == listen_fd then begin
            let accepting = ref true in
            while !accepting do
              match Unix.accept listen_fd with
              | client, _ ->
                if Hashtbl.length conns >= max_conns then begin
                  (* At the connection cap (kept below FD_SETSIZE so select
                     keeps working): refuse with a structured, retryable
                     error rather than crash later or hang the client. *)
                  st.load.conns_rejected <- st.load.conns_rejected + 1;
                  Obs.count_stable "serve.conns_rejected" 1;
                  let line =
                    Jsonl.to_string
                      (track st (connection_limit_response ~max_conns))
                    ^ "\n"
                  in
                  (try Unix.set_nonblock client with Unix.Unix_error _ -> ());
                  (try
                     ignore
                       (Unix.write_substring client line 0 (String.length line))
                   with Unix.Unix_error _ -> ());
                  try Unix.close client with Unix.Unix_error _ -> ()
                end
                else begin
                  (* Client fds are nonblocking: reads that would block are
                     skipped and writes buffer in [wq], so no single client
                     can stall the loop. (The accepted fd does not inherit
                     the listening socket's nonblocking flag on Linux.) *)
                  (try Unix.set_nonblock client with Unix.Unix_error _ -> ());
                  incr next_cid;
                  let conn =
                    { fd = client; cid = !next_cid; rbuf = Buffer.create 256;
                      partial_since = 0.0; wq = Queue.create (); wpos = 0;
                      wbytes = 0; write_since = 0.0; closing = false }
                  in
                  Hashtbl.replace conns client conn;
                  Hashtbl.replace conns_by_cid conn.cid conn;
                  sync_conns ();
                  last_activity := Sysconf.monotonic_time ();
                  reaped := false
                end
              | exception Unix.Unix_error _ -> accepting := false
            done
          end
          else
            match Hashtbl.find_opt conns fd with
            | Some conn ->
              last_activity := Sysconf.monotonic_time ();
              reaped := false;
              read_conn conn
            | None -> ())
        readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt conns fd with
          | Some conn -> flush_conn conn
          | None -> ())
        writable);
    let now = Sysconf.monotonic_time () in
    (* Queued requests whose deadline passed are answered, never run. *)
    List.iter
      (fun (cid, (w : work)) ->
        st.load.expired <- st.load.expired + 1;
        Obs.count_stable "serve.expired" 1;
        finish_work st w ~outcome:`Expired ();
        respond_cid cid (expired_response w.w_id))
      (Admission.expired queue ~now);
    (* Dispatch exactly one admitted request per iteration, so arrivals,
       expiries and reaps are re-examined between dispatches. *)
    (match Admission.next queue ~now with
    | Some (cid, w) ->
      sync_depth ();
      respond_cid cid (run_work st w);
      note_restarts ();
      last_activity := Sysconf.monotonic_time ();
      reaped := false
    | None -> sync_depth ());
    maybe_snapshot ();
    (* Reap slow-loris connections: a partial frame has [read_deadline]
       seconds to complete, counted from its first byte. *)
    let stalled =
      Hashtbl.fold
        (fun _ conn acc ->
          if
            (not conn.closing)
            && conn.partial_since > 0.0
            && now -. conn.partial_since > read_deadline
          then conn :: acc
          else acc)
        conns []
    in
    List.iter
      (fun conn ->
        st.load.conns_reaped <- st.load.conns_reaped + 1;
        Obs.count_stable "serve.conns_reaped" 1;
        respond conn (read_timeout_response ~read_deadline);
        if Hashtbl.mem conns conn.fd then close_after_flush conn)
      stalled;
    (* Reap write-stalled connections: pending output that has made no
       progress for [read_deadline] seconds will never be delivered — the
       peer has stopped reading. No farewell response; it could not be
       delivered either. *)
    let write_stalled =
      Hashtbl.fold
        (fun _ conn acc ->
          if conn.write_since > 0.0 && now -. conn.write_since > read_deadline
          then conn :: acc
          else acc)
        conns []
    in
    List.iter
      (fun conn ->
        st.load.conns_reaped <- st.load.conns_reaped + 1;
        Obs.count_stable "serve.conns_reaped" 1;
        drop conn)
      write_stalled;
    (* A dormant daemon holds no worker processes and no unflushed cache
       entries: both respawn / refill on the next request. *)
    if
      (not !reaped)
      && Hashtbl.length conns = 0
      && Sysconf.monotonic_time () -. !last_activity > idle_reap
    then begin
      Checker.quiesce_pool st.pool;
      Option.iter (fun c -> ignore (Cache.flush c)) st.cache;
      Obs.count "serve.idle_reaps" 1;
      reaped := true
    end
  done;
  (* Graceful drain: answer everything fully received — buffered lines are
     classified and admitted, then the whole queue is dispatched (expiries
     still honored) — then flush state and dismantle. The handler runs to
     completion even when the signal lands mid-verification (the
     supervisor retries its selects on EINTR). *)
  Hashtbl.iter (fun _ conn -> pump conn) (Hashtbl.copy conns);
  (* Flush metrics *before* draining the queue: the drain below runs real
     verification work and can take as long as the slowest request — if
     the operator escalates to SIGKILL meanwhile, the run's metrics must
     already be on disk. A second (atomic) write below refreshes the file
     with whatever the drain itself added. *)
  Option.iter write_metrics_atomic metrics_out;
  let drain_now = Sysconf.monotonic_time () in
  List.iter
    (fun (cid, (w : work)) ->
      st.load.expired <- st.load.expired + 1;
      Obs.count_stable "serve.expired" 1;
      finish_work st w ~outcome:`Expired ();
      respond_cid cid (expired_response w.w_id))
    (Admission.expired queue ~now:drain_now);
  let rec drain_queue () =
    match Admission.next queue ~now:(Sysconf.monotonic_time ()) with
    | Some (cid, w) ->
      sync_depth ();
      respond_cid cid (run_work st w);
      drain_queue ()
    | None -> sync_depth ()
  in
  drain_queue ();
  (* Responses are buffered per connection: give slow readers a bounded
     window to take delivery before the daemon dismantles itself. *)
  let flush_deadline = Sysconf.monotonic_time () +. 5.0 in
  let rec final_flush () =
    let wfds =
      Hashtbl.fold
        (fun fd conn acc -> if pending conn > 0 then fd :: acc else acc)
        conns []
    in
    let left = flush_deadline -. Sysconf.monotonic_time () in
    if wfds <> [] && left > 0.0 then
      match Unix.select [] wfds [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> final_flush ()
      | exception Unix.Unix_error _ -> ()
      | _, writable, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some conn -> flush_conn conn
            | None -> ())
          writable;
        final_flush ()
  in
  final_flush ();
  Option.iter (fun c -> ignore (Cache.flush c)) st.cache;
  Option.iter write_metrics_atomic metrics_out;
  Option.iter close_out_noerr access_log_oc;
  st.access_log <- None;
  shutdown_state st;
  Hashtbl.iter (fun _ conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  0

(* --- client ----------------------------------------------------------------- *)

let client_call ~socket line =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
        | () -> (
          let payload = Bytes.of_string (line ^ "\n") in
          match write_all fd payload 0 (Bytes.length payload) with
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | () ->
            let buf = Buffer.create 1024 in
            let chunk = Bytes.create 65536 in
            let rec go () =
              if String.contains (Buffer.contents buf) '\n' then ()
              else
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> ()
                | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  go ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            in
            (match go () with
            | () -> ()
            | exception Unix.Unix_error _ -> ());
            let s = Buffer.contents buf in
            (match String.index_opt s '\n' with
            | Some i -> Ok (String.sub s 0 i)
            | None ->
              if s = "" then Error "connection closed without a response" else Ok s)))

(* --- self-healing client ------------------------------------------------------

   The retry loop the CLI client uses: transparently retries the two
   failures that mean "try again" — a connection that cannot be established
   (the daemon is restarting, or its socket briefly missing) and a
   structured [overloaded] shed — under capped exponential backoff with
   jitter, honoring the daemon's [retry_after_ms] hint as a floor. Every
   other response (including [expired] and [frame_too_large]) is returned
   to the caller as-is: retrying those without new information would just
   reheat the overload.

   The two exhaustion flavors stay distinct so the CLI can exit
   differently: [`Unreachable] is a connectivity/protocol failure, while
   [`Overloaded] means the daemon is alive and explicitly shedding. *)

let default_retries = 5

let retryable_shed line =
  match Jsonl.parse line with
  | Ok resp when Jsonl.mem_str "error_code" resp = Some "overloaded" ->
    Some (Option.value (Jsonl.mem_int "retry_after_ms" resp) ~default:0)
  | _ -> None

let client_request ~socket ?(retries = default_retries) ?(backoff_base_ms = 50)
    ?(backoff_cap_ms = 2000) ?(sleep = Unix.sleepf) line =
  let rng = lazy (Random.State.make_self_init ()) in
  let backoff attempt hint_ms =
    let exp =
      float_of_int backoff_base_ms *. (2.0 ** float_of_int attempt)
      |> Float.min (float_of_int backoff_cap_ms)
    in
    let base = Float.max (float_of_int hint_ms) exp in
    let jitter = 0.75 +. Random.State.float (Lazy.force rng) 0.5 in
    sleep (base *. jitter /. 1000.0)
  in
  let rec attempt k =
    match client_call ~socket line with
    | Error msg ->
      if k >= retries then Error (`Unreachable (k + 1, msg))
      else begin
        backoff k 0;
        attempt (k + 1)
      end
    | Ok resp_line -> (
      match retryable_shed resp_line with
      | None -> Ok resp_line
      | Some hint_ms ->
        if k >= retries then Error (`Overloaded (k + 1, resp_line))
        else begin
          backoff k hint_ms;
          attempt (k + 1)
        end)
  in
  attempt 0
