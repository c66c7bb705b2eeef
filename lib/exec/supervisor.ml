type 'r outcome =
  | Done of 'r
  | Timed_out of {
      seconds : float;
      attempts : int;
    }
  | Crashed of {
      reason : string;
      attempts : int;
    }

let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigbus then "SIGBUS"
  else if n = Sys.sigill then "SIGILL"
  else if n = Sys.sigfpe then "SIGFPE"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigpipe then "SIGPIPE"
  else if n = Sys.sigalrm then "SIGALRM"
  else if n = Sys.sighup then "SIGHUP"
  else if n = Sys.sigquit then "SIGQUIT"
  else Printf.sprintf "signal %d" n

type config = {
  jobs : int;
  batch_size : int;
  deadline : float option;
  max_tasks_per_worker : int;
  max_rss_kb : int;
  max_as_mb : int;  (* setrlimit(RLIMIT_AS) in each worker; 0 = uncapped *)
  max_restarts : int;
  backoff_base : float;
  backoff_cap : float;
  heartbeat_interval : float;
  grace : float;
}

let config ?(jobs = 1) ?(batch_size = 8) ?deadline ?(max_tasks_per_worker = 128)
    ?(max_rss_kb = 512 * 1024) ?(max_as_mb = 0) ?(max_restarts = 3)
    ?(backoff_base = 0.05) ?(backoff_cap = 1.0) ?(heartbeat_interval = 2.0)
    ?(grace = 0.5) () =
  {
    jobs = max 1 jobs;
    batch_size = max 1 batch_size;
    deadline;
    max_tasks_per_worker;
    max_rss_kb;
    max_as_mb = max 0 max_as_mb;
    max_restarts;
    backoff_base;
    backoff_cap;
    heartbeat_interval;
    grace;
  }

(* --- Fault-injection seam ---------------------------------------------------

   Same master switch and SHELLEY_FAULT syntax as the checker-level faults
   (hang/crash): armed only by an explicit in-process opt-in, so a stale
   environment variable can never sabotage a real run. The supervisor adds
   the process-plumbing faults: [garbage:SUBSTR] (corrupt result frame),
   [glued-garbage:SUBSTR] (the same, written in one write together with
   the previous task's result), [wedge:SUBSTR] (worker stops reading,
   ignoring heartbeats), [forkfail:N] (the next N forks fail). *)
let fault_injection = ref false

let contains ~sub s =
  sub <> ""
  && String.length s >= String.length sub
  && List.exists
       (fun off -> String.sub s off (String.length sub) = sub)
       (List.init (String.length s - String.length sub + 1) Fun.id)

let fault_entries () =
  if not !fault_injection then []
  else
    match Sys.getenv_opt "SHELLEY_FAULT" with
    | None | Some "" -> []
    | Some spec ->
      String.split_on_char ',' spec
      |> List.filter_map (fun entry ->
             match String.index_opt entry ':' with
             | None -> None
             | Some i ->
               Some
                 ( String.sub entry 0 i,
                   String.sub entry (i + 1) (String.length entry - i - 1) ))

let fault_matches kind label =
  List.exists
    (fun (k, sub) -> String.equal k kind && contains ~sub label)
    (fault_entries ())

let fault_forkfail_budget () =
  List.fold_left
    (fun acc (k, v) ->
      if String.equal k "forkfail" then
        match int_of_string_opt v with
        | Some n when n > 0 -> acc + n
        | _ -> acc
      else acc)
    0 (fault_entries ())

(* --- Wire protocol ----------------------------------------------------------

   Frame = 3-byte magic + 4-byte big-endian payload length + Marshal
   payload. The magic and a length sanity cap let the parent classify a
   corrupt pipe byte-stream as such instead of feeding garbage to
   [Marshal.from_string] at an attacker-chosen length. *)

let frame_magic = "SF1"
let frame_header_len = 7
let max_frame_len = 1 lsl 26 (* 64 MB: far above any rendered report block *)

type 't to_worker =
  | Job of (int * 't) list
  | Ping of int
  | Quit

type 'r from_worker =
  | Started of int
  | Result of int * ('r, string) result
  | Pong of int

let rec write_all fd bytes pos len =
  if pos < len then
    match Unix.write fd bytes pos (len - pos) with
    | k -> write_all fd bytes (pos + k) len
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes pos len

let frame_bytes payload =
  let len = Bytes.length payload in
  let b = Bytes.create (frame_header_len + len) in
  Bytes.blit_string frame_magic 0 b 0 3;
  Bytes.set b 3 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 4 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 5 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 6 (Char.chr (len land 0xff));
  Bytes.blit payload 0 b frame_header_len len;
  b

let frame_of v = frame_bytes (Marshal.to_bytes v [])

let send_frame fd v =
  let b = frame_of v in
  write_all fd b 0 (Bytes.length b)

(* Parse every complete frame out of [buf], up to the point where the
   stream stops looking like frames. The decoded prefix is returned with
   either the number of consumed bytes, so the caller can keep the tail, or
   [`Garbage]: the frames before the corruption are still valid and must be
   settled before the worker is condemned. *)
let parse_frames (buf : Buffer.t) : 'a list * [ `Consumed of int | `Garbage ] =
  let s = Buffer.contents buf in
  let total = String.length s in
  let rec go acc off =
    if total - off < frame_header_len then (List.rev acc, `Consumed off)
    else if String.sub s off 3 <> frame_magic then (List.rev acc, `Garbage)
    else begin
      let len =
        (Char.code s.[off + 3] lsl 24)
        lor (Char.code s.[off + 4] lsl 16)
        lor (Char.code s.[off + 5] lsl 8)
        lor Char.code s.[off + 6]
      in
      if len < 0 || len > max_frame_len then (List.rev acc, `Garbage)
      else if total - off - frame_header_len < len then (List.rev acc, `Consumed off)
      else
        match (Marshal.from_string s (off + frame_header_len) : 'a) with
        | v -> go (v :: acc) (off + frame_header_len + len)
        | exception _ -> (List.rev acc, `Garbage)
    end
  in
  go [] 0

(* --- The worker process -----------------------------------------------------

   A worker is a blocking read-dispatch loop: read a frame from the job
   pipe, acknowledge each task with [Started] (the parent's wedge detector
   and per-task deadline clock both key off it), run it, send [Result].
   EOF on the job pipe — however the parent died — is a clean exit, so a
   crashed daemon leaves no orphan workers behind. *)

let rec read_exact fd b pos len =
  if len = 0 then true
  else
    match Unix.read fd b pos len with
    | 0 -> false
    | k -> read_exact fd b (pos + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd b pos len

let read_frame fd : 'a option =
  let header = Bytes.create frame_header_len in
  if not (read_exact fd header 0 frame_header_len) then None
  else if Bytes.sub_string header 0 3 <> frame_magic then None
  else begin
    let len =
      (Char.code (Bytes.get header 3) lsl 24)
      lor (Char.code (Bytes.get header 4) lsl 16)
      lor (Char.code (Bytes.get header 5) lsl 8)
      lor Char.code (Bytes.get header 6)
    in
    if len < 0 || len > max_frame_len then None
    else begin
      let payload = Bytes.create len in
      if not (read_exact fd payload 0 len) then None
      else
        match (Marshal.from_bytes payload 0 : 'a) with
        | v -> Some v
        | exception _ -> None
    end
  end

let result_frame idx (res : ('r, string) result) =
  match Marshal.to_bytes (Result (idx, res) : 'r from_worker) [] with
  | payload -> frame_bytes payload
  | exception exn ->
    let reason = "unmarshalable worker result: " ^ Printexc.to_string exn in
    frame_of (Result (idx, (Error reason : ('r, string) result)))

let worker_main ~job_rd ~res_wr run label =
  (* Session leader: a deadline kill of the process group takes out any
     subprocess the task spawned along with the worker itself. *)
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  (* Lifecycle is pipe-driven (Quit / EOF): the parent's signals must not
     race a half-written result frame into the parent's parser. *)
  (try Sys.set_signal Sys.sigterm Sys.Signal_ignore with _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore with _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let armed = !fault_injection in
  let rec loop () =
    match (read_frame job_rd : _ to_worker option) with
    | None | Some Quit -> Unix._exit 0
    | Some (Ping n) ->
      send_frame res_wr (Pong n : _ from_worker);
      loop ()
    | Some (Job tasks) ->
      let wedge = ref false in
      let fault kind task = armed && fault_matches kind (label task) in
      let emit frames =
        let b = Bytes.concat Bytes.empty frames in
        write_all res_wr b 0 (Bytes.length b)
      in
      let corrupt = Bytes.of_string "!!corrupt-frame!!" in
      (* [held] is the previous task's result frame, kept back only when
         this task is a glued-garbage one. *)
      let rec go held = function
        | [] -> ()
        | (idx, task) :: rest ->
          let started = frame_of (Started idx : _ from_worker) in
          let held =
            if fault "glued-garbage" task then begin
              (* The previous result, this ack and the corrupt bytes reach
                 the parent in one write, hence in one read. *)
              emit (held @ [ started; corrupt ]);
              []
            end
            else begin
              emit [ started ];
              if fault "garbage" task then begin
                emit [ corrupt ];
                []
              end
              else
                let result =
                  match run task with
                  | r -> (Ok r : (_, string) result)
                  | exception exn -> Error (Printexc.to_string exn)
                in
                let frame = result_frame idx result in
                match rest with
                | (_, next) :: _ when fault "glued-garbage" next -> [ frame ]
                | _ ->
                  emit [ frame ];
                  []
            end
          in
          if fault "wedge" task then wedge := true;
          go held rest
      in
      go [] tasks;
      if !wedge then
        (* Simulate a worker that stops servicing its job pipe: alive, but
           deaf to dispatches and heartbeats alike. *)
        while true do
          Unix.sleepf 3600.0
        done;
      loop ()
  in
  try loop () with _ -> Unix._exit 1

(* --- The supervisor ---------------------------------------------------------

   Parent-side state: one slot per lane; a slot may hold a live worker
   process or be empty (backing off after a crash, or not yet demanded).
   All scheduling state is per-[run] call; slots and their workers
   persist across calls — that is the whole point. *)

type 't item = {
  idx : int;
  attempt : int;
  task : 't;
  enqueued_at : float;
}

type 't proc = {
  pid : int;
  job_wr : Unix.file_descr;
  res_rd : Unix.file_descr;
  rbuf : Buffer.t;
  assigned : 't item Queue.t;
  mutable dispatched_at : float;  (* last Job frame send time *)
  mutable head_started_at : float;  (* 0.0 until Started for the head arrives *)
  mutable tasks_done : int;
  mutable ping_at : float;  (* 0.0 = no ping outstanding *)
  mutable last_heard : float;
}

type 't slot = {
  lane : int;
  mutable proc : 't proc option;
  mutable ready_at : float;  (* backoff gate; 0.0 = ready now *)
  mutable consec_failures : int;
}

type stats = {
  spawns : int;
  restarts : int;
  recycles : int;
  backoff_waits : int;
  heartbeat_misses : int;
  kills : int;
  poisoned : int;
  fork_failures : int;
  batches : int;
  tasks : int;
  inline_tasks : int;
  live_workers : int;
}

type stats_mut = {
  mutable m_spawns : int;
  mutable m_restarts : int;
  mutable m_recycles : int;
  mutable m_backoff_waits : int;
  mutable m_heartbeat_misses : int;
  mutable m_kills : int;
  mutable m_poisoned : int;
  mutable m_fork_failures : int;
  mutable m_batches : int;
  mutable m_tasks : int;
  mutable m_inline_tasks : int;
}

type ('t, 'r) t = {
  cfg : config;
  run : 't -> 'r;
  label : 't -> string;
  after_fork : unit -> unit;
  slots : 't slot array;
  st : stats_mut;
  mutable ping_seq : int;
  mutable forkfail_budget : int;  (* armed fault: fail this many forks *)
  mutable closed : bool;
}

let stamp () = if Obs.enabled () then Unix.gettimeofday () else 0.0
let us since = int_of_float ((Unix.gettimeofday () -. since) *. 1e6)
let tally key since = if Obs.enabled () then Obs.count key (us since)
let bump key n = if Obs.enabled () then Obs.count key n

(* Jitter from a private RNG: the pool must not perturb any caller that
   seeds the global [Random] state for reproducibility. *)
let rng = lazy (Random.State.make_self_init ())

let create ?(after_fork = fun () -> ()) ?(label = fun _ -> "") cfg run =
  (* The parent writes into worker pipes; a worker that died between the
     liveness check and the write must surface as a catchable EPIPE, not a
     process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  {
    cfg;
    run;
    label;
    after_fork;
    slots =
      Array.init cfg.jobs (fun lane ->
          { lane; proc = None; ready_at = 0.0; consec_failures = 0 });
    st =
      {
        m_spawns = 0;
        m_restarts = 0;
        m_recycles = 0;
        m_backoff_waits = 0;
        m_heartbeat_misses = 0;
        m_kills = 0;
        m_poisoned = 0;
        m_fork_failures = 0;
        m_batches = 0;
        m_tasks = 0;
        m_inline_tasks = 0;
      };
    ping_seq = 0;
    forkfail_budget = (if !fault_injection then fault_forkfail_budget () else 0);
    closed = false;
  }

let live_workers pool =
  Array.fold_left
    (fun acc slot -> if slot.proc = None then acc else acc + 1)
    0 pool.slots

let stats pool =
  {
    spawns = pool.st.m_spawns;
    restarts = pool.st.m_restarts;
    recycles = pool.st.m_recycles;
    backoff_waits = pool.st.m_backoff_waits;
    heartbeat_misses = pool.st.m_heartbeat_misses;
    kills = pool.st.m_kills;
    poisoned = pool.st.m_poisoned;
    fork_failures = pool.st.m_fork_failures;
    batches = pool.st.m_batches;
    tasks = pool.st.m_tasks;
    inline_tasks = pool.st.m_inline_tasks;
    live_workers = live_workers pool;
  }

let worker_pids pool =
  Array.to_list pool.slots
  |> List.filter_map (fun slot -> Option.map (fun p -> p.pid) slot.proc)

type worker_info = {
  wi_lane : int;
  wi_pid : int option;
  wi_busy : bool;
  wi_tasks_done : int;
}

let workers pool =
  Array.to_list pool.slots
  |> List.map (fun slot ->
         match slot.proc with
         | None ->
           { wi_lane = slot.lane; wi_pid = None; wi_busy = false; wi_tasks_done = 0 }
         | Some p ->
           {
             wi_lane = slot.lane;
             wi_pid = Some p.pid;
             wi_busy = not (Queue.is_empty p.assigned);
             wi_tasks_done = p.tasks_done;
           })

let rec waitpid_no_eintr pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_no_eintr pid

(* Resident set size in KB, from /proc (field 2 of statm is resident
   pages). 0 — never triggering the recycle ceiling — where /proc is not
   a thing or the process is already gone. *)
let rss_kb pid =
  match open_in (Printf.sprintf "/proc/%d/statm" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ -> (
          match int_of_string_opt resident with
          | Some pages -> pages * 4096 / 1024
          | None -> 0)
        | _ | (exception End_of_file) -> 0)

exception Fork_failed of string

let spawn pool slot =
  if pool.forkfail_budget > 0 then begin
    pool.forkfail_budget <- pool.forkfail_budget - 1;
    raise (Fork_failed "injected fork failure")
  end;
  (* Flush before forking: anything buffered would be written twice if the
     child ever touched the same channels. *)
  flush stdout;
  flush stderr;
  let fork_start = stamp () in
  let job_rd, job_wr =
    try Unix.pipe () with exn -> raise (Fork_failed (Printexc.to_string exn))
  in
  let res_rd, res_wr =
    try Unix.pipe ()
    with exn ->
      Unix.close job_rd;
      Unix.close job_wr;
      raise (Fork_failed (Printexc.to_string exn))
  in
  match Unix.fork () with
  | exception exn ->
    List.iter (fun fd -> try Unix.close fd with _ -> ()) [ job_rd; job_wr; res_rd; res_wr ];
    raise (Fork_failed (Printexc.to_string exn))
  | 0 ->
    (try Unix.close job_wr with _ -> ());
    (try Unix.close res_rd with _ -> ());
    (* Close every sibling's pipe ends: a worker holding a dup of another
       worker's job pipe would keep that pipe open past the parent's
       close, breaking the EOF-means-quit contract. *)
    Array.iter
      (fun s ->
        match s.proc with
        | None -> ()
        | Some p ->
          (try Unix.close p.job_wr with _ -> ());
          (try Unix.close p.res_rd with _ -> ()))
      pool.slots;
    (* The address-space cap goes on before any task code runs: a
       ballooning verification then dies on a catchable Out_of_memory
       inside the worker (classified by the task runner) instead of
       dragging the whole machine through the OOM killer. *)
    if pool.cfg.max_as_mb > 0 then ignore (Sysconf.set_rlimit_as pool.cfg.max_as_mb);
    (try pool.after_fork () with _ -> ());
    worker_main ~job_rd ~res_wr pool.run pool.label
  | pid ->
    (try Unix.close job_rd with _ -> ());
    (try Unix.close res_wr with _ -> ());
    pool.st.m_spawns <- pool.st.m_spawns + 1;
    bump "pool.spawns" 1;
    tally "pool.fork_us" fork_start;
    let now = Unix.gettimeofday () in
    slot.proc <-
      Some
        {
          pid;
          job_wr;
          res_rd;
          rbuf = Buffer.create 1024;
          assigned = Queue.create ();
          dispatched_at = now;
          head_started_at = 0.0;
          tasks_done = 0;
          ping_at = 0.0;
          last_heard = now;
        }

(* Tear a worker down: close pipes (EOF doubles as Quit), give it [grace]
   to exit, then SIGKILL its whole group and reap. Never blocks forever —
   a wedged worker hits the SIGKILL arm. *)
let terminate pool slot (p : 't proc) =
  (try send_frame p.job_wr (Quit : _ to_worker) with _ -> ());
  (try Unix.close p.job_wr with _ -> ());
  (try Unix.close p.res_rd with _ -> ());
  let deadline = Unix.gettimeofday () +. pool.cfg.grace in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
      if Unix.gettimeofday () >= deadline then begin
        (try Unix.kill (-p.pid) Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_no_eintr p.pid)
      end
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
    | _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  slot.proc <- None

let quiesce pool =
  Array.iter
    (fun slot ->
      match slot.proc with
      | None -> ()
      | Some p ->
        terminate pool slot p;
        slot.ready_at <- 0.0;
        slot.consec_failures <- 0)
    pool.slots

let shutdown pool =
  quiesce pool;
  pool.closed <- true

let backoff pool slot =
  slot.consec_failures <- slot.consec_failures + 1;
  let n = slot.consec_failures in
  let base = pool.cfg.backoff_base *. (2.0 ** float_of_int (n - 1)) in
  let capped = Float.min pool.cfg.backoff_cap base in
  let jitter = 1.0 +. (0.25 *. Random.State.float (Lazy.force rng) 1.0) in
  slot.ready_at <- Unix.gettimeofday () +. (capped *. jitter);
  pool.st.m_backoff_waits <- pool.st.m_backoff_waits + 1;
  bump "pool.backoff_waits" 1;
  bump "pool.backoff_us" (int_of_float (capped *. jitter *. 1e6))

(* --- run -------------------------------------------------------------------- *)

type 'r settled = {
  outcome : 'r outcome;
  lane : int;
  attempts : int;
}

let run ?retry ?deadline pool tasks =
  let deadline =
    match deadline with
    | Some _ as d -> d
    | None -> pool.cfg.deadline
  in
  let n = List.length tasks in
  if n = 0 then []
  else begin
    let arr = Array.of_list tasks in
    let results = Array.make n None in
    let unsettled = ref n in
    let pending : _ item Queue.t = Queue.create () in
    Array.iteri
      (fun idx task -> Queue.add { idx; attempt = 1; task; enqueued_at = stamp () } pending)
      arr;
    (* A failed first attempt re-queues once (transformed) when a retry is
       available; a failed second attempt — or any failure without a retry
       — is final: the task is poisoned, never retried forever. *)
    let settle (item : _ item) lane outcome =
      match outcome with
      | Done _ ->
        results.(item.idx) <- Some { outcome; lane; attempts = item.attempt };
        decr unsettled
      | Timed_out _ | Crashed _ ->
        if item.attempt = 1 && retry <> None then begin
          bump "pool.retries" 1;
          Queue.add
            {
              idx = item.idx;
              attempt = 2;
              task = (Option.get retry) item.task;
              enqueued_at = stamp ();
            }
            pending
        end
        else begin
          if item.attempt >= 2 then begin
            pool.st.m_poisoned <- pool.st.m_poisoned + 1;
            bump "pool.poisoned" 1
          end;
          results.(item.idx) <- Some { outcome; lane; attempts = item.attempt };
          decr unsettled
        end
    in
    (* In-process fallback: same attempt/retry semantics, no deadline (the
       whole point of running inline is that there is no worker to kill).
       Used when the pool is closed or forking has been written off. *)
    let run_one_inline (item : _ item) =
      pool.st.m_inline_tasks <- pool.st.m_inline_tasks + 1;
      bump "pool.inline_tasks" 1;
      let t0 = stamp () in
      let outcome =
        match pool.run item.task with
        | r -> Done r
        | exception exn ->
          Crashed { reason = Printexc.to_string exn; attempts = item.attempt }
      in
      tally "pool.task_wall_us" t0;
      settle item 0 outcome
    in
    let drain_inline () =
      (* Index order, for the avoidance of any doubt: inline execution must
         produce the same (input-ordered) result list as any pool width. *)
      let items = List.of_seq (Queue.to_seq pending) in
      Queue.clear pending;
      List.sort (fun a b -> compare (a.idx, a.attempt) (b.idx, b.attempt)) items
      |> List.iter (fun item -> if results.(item.idx) = None then run_one_inline item)
    in
    let requeue_assigned (p : _ proc) =
      Queue.iter (fun item -> Queue.add item pending) p.assigned;
      Queue.clear p.assigned
    in
    (* Worker died (EOF / read error on its result pipe): reap, classify
       from the exit status ("killed by SIGKILL", "exited with code 42"), charge
       the started head, re-queue the rest. *)
    let handle_death slot (p : _ proc) =
      (try Unix.close p.job_wr with _ -> ());
      (try Unix.close p.res_rd with _ -> ());
      let status = waitpid_no_eintr p.pid in
      slot.proc <- None;
      let reason =
        match status with
        | Unix.WEXITED 0 -> "worker exited before returning a result"
        | Unix.WEXITED code -> Printf.sprintf "exited with code %d" code
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> "killed by " ^ signal_name s
      in
      (match Queue.take_opt p.assigned with
      | Some head when p.head_started_at > 0.0 ->
        tally "pool.task_wall_us" p.head_started_at;
        settle head slot.lane (Crashed { reason; attempts = head.attempt })
      | Some head -> Queue.add head pending (* never started: not its fault *)
      | None -> ());
      requeue_assigned p;
      backoff pool slot;
      bump "pool.restarts" 1;
      pool.st.m_restarts <- pool.st.m_restarts + 1
    in
    (* Deliberate kill of a live-but-condemned worker (deadline expiry,
       wedge, garbage frame): process-group SIGKILL so task-spawned
       subprocesses die too, then charge/re-queue as appropriate. *)
    let kill_worker slot (p : _ proc) ~charge =
      (try Unix.close p.job_wr with _ -> ());
      (try Unix.close p.res_rd with _ -> ());
      (try Unix.kill (-p.pid) Sys.sigkill with Unix.Unix_error _ -> ());
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_no_eintr p.pid);
      slot.proc <- None;
      (match Queue.take_opt p.assigned with
      | Some head -> (
        match charge with
        | `Timeout ->
          pool.st.m_kills <- pool.st.m_kills + 1;
          bump "pool.kills" 1;
          tally "pool.task_wall_us" p.head_started_at;
          settle head slot.lane
            (Timed_out { seconds = Option.get deadline; attempts = head.attempt })
        | `Crash reason ->
          if p.head_started_at > 0.0 then begin
            tally "pool.task_wall_us" p.head_started_at;
            settle head slot.lane (Crashed { reason; attempts = head.attempt })
          end
          else Queue.add head pending
        | `No_charge -> Queue.add head pending)
      | None -> ());
      requeue_assigned p
    in
    (* One decoded frame from a live worker. *)
    let handle_frame slot (p : _ proc) (frame : _ from_worker) =
      p.last_heard <- Unix.gettimeofday ();
      match frame with
      | Pong _ -> p.ping_at <- 0.0
      | Started idx ->
        (match Queue.peek_opt p.assigned with
        | Some head when head.idx = idx ->
          p.head_started_at <- Unix.gettimeofday ();
          tally "pool.queue_wait_us" head.enqueued_at
        | _ -> () (* stale ack from a previous incarnation: ignore *))
      | Result (idx, res) -> (
        match Queue.peek_opt p.assigned with
        | Some head when head.idx = idx ->
          ignore (Queue.take p.assigned);
          tally "pool.task_wall_us" p.head_started_at;
          p.head_started_at <- 0.0;
          p.tasks_done <- p.tasks_done + 1;
          pool.st.m_tasks <- pool.st.m_tasks + 1;
          bump "pool.tasks" 1;
          slot.consec_failures <- 0;
          (match res with
          | Ok r -> settle head slot.lane (Done r)
          | Error reason ->
            settle head slot.lane (Crashed { reason; attempts = head.attempt }))
        | _ ->
          (* A result for a task this worker does not own: protocol
             corruption — condemn the worker, charge nothing blindly. *)
          kill_worker slot p ~charge:(`Crash "out-of-order frame on result pipe");
          backoff pool slot;
          pool.st.m_restarts <- pool.st.m_restarts + 1;
          bump "pool.restarts" 1)
    in
    let read_chunk = Bytes.create 65536 in
    let handle_readable slot (p : _ proc) =
      match Unix.read p.res_rd read_chunk 0 (Bytes.length read_chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> handle_death slot p
      | 0 -> handle_death slot p
      | k -> (
        Buffer.add_subbytes p.rbuf read_chunk 0 k;
        let frames, tail = parse_frames p.rbuf in
        (match tail with
        | `Consumed consumed ->
          let rest = Buffer.sub p.rbuf consumed (Buffer.length p.rbuf - consumed) in
          Buffer.clear p.rbuf;
          Buffer.add_string p.rbuf rest
        | `Garbage -> ());
        (* The worker may have been condemned by an earlier frame in this
           very batch of frames. *)
        let alive () =
          match slot.proc with
          | Some q -> q == p
          | None -> false
        in
        List.iter (fun frame -> if alive () then handle_frame slot p frame) frames;
        (* Garbage after valid frames belongs to whichever task is the head
           once those frames are settled, never to one they completed. *)
        match tail with
        | `Garbage when alive () ->
          kill_worker slot p ~charge:(`Crash "garbage frame on result pipe");
          backoff pool slot;
          pool.st.m_restarts <- pool.st.m_restarts + 1;
          bump "pool.restarts" 1
        | `Garbage | `Consumed _ -> ())
    in
    (* Write a Job frame; a write failure means the worker just died — let
       the death path classify it (nothing was started, so nothing can be
       charged to a task). *)
    let dispatch slot (p : _ proc) items =
      List.iter (fun item -> Queue.add item p.assigned) items;
      p.dispatched_at <- Unix.gettimeofday ();
      p.head_started_at <- 0.0;
      pool.st.m_batches <- pool.st.m_batches + 1;
      bump "pool.batches" 1;
      bump "pool.batch_tasks" (List.length items);
      match send_frame p.job_wr (Job (List.map (fun i -> (i.idx, i.task)) items)) with
      | () -> ()
      | exception _ -> handle_death slot p
    in
    (* Spread small runs across lanes (chunk ≤ ⌈pending / width⌉) while
       batching large ones (chunk ≤ batch_size): two files at -j 4 land on
       lanes 0 and 1, a thousand files go out 8 at a time. *)
    let chunk_size () =
      let p = Queue.length pending in
      max 1 (min pool.cfg.batch_size ((p + pool.cfg.jobs - 1) / pool.cfg.jobs))
    in
    let take_chunk () =
      let rec go k acc =
        if k = 0 then List.rev acc
        else
          match Queue.take_opt pending with
          | None -> List.rev acc
          | Some item -> go (k - 1) (item :: acc)
      in
      go (chunk_size ()) []
    in
    let degraded () =
      live_workers pool = 0
      && Array.for_all
           (fun slot -> slot.consec_failures > pool.cfg.max_restarts)
           pool.slots
    in
    let now () = Unix.gettimeofday () in
    if pool.closed then drain_inline ()
    else begin
      while !unsettled > 0 do
        (* 1. Spawn / respawn where there is demand and the backoff gate is
           open. A spawn failure is a counted fork failure; persistent
           failure everywhere degrades the whole run to inline. *)
        Array.iter
          (fun slot ->
            if
              slot.proc = None
              && (not (Queue.is_empty pending))
              && slot.consec_failures <= pool.cfg.max_restarts
              && now () >= slot.ready_at
            then
              try spawn pool slot
              with Fork_failed reason ->
                ignore reason;
                pool.st.m_fork_failures <- pool.st.m_fork_failures + 1;
                bump "pool.fork_failures" 1;
                backoff pool slot)
          pool.slots;
        if degraded () && not (Queue.is_empty pending) then drain_inline ()
        else begin
          (* 2. Dispatch to idle workers, lane order (determinism of the
             trace lanes, not of the output — output order is pinned by
             idx). *)
          Array.iter
            (fun slot ->
              match slot.proc with
              | Some p when Queue.is_empty p.assigned && not (Queue.is_empty pending)
                ->
                dispatch slot p (take_chunk ())
              | _ -> ())
            pool.slots;
          (* 3. Wait for frames, deadlines, backoff gates or heartbeats —
             whichever is nearest. *)
          let timeout =
            let t = ref 0.25 in
            let consider v = t := Float.min !t (Float.max 0.0 v) in
            let n0 = now () in
            Array.iter
              (fun slot ->
                match slot.proc with
                | None -> if slot.ready_at > n0 then consider (slot.ready_at -. n0)
                | Some p ->
                  if Queue.is_empty p.assigned then begin
                    if p.ping_at > 0.0 then
                      consider (p.ping_at +. pool.cfg.heartbeat_interval -. n0)
                  end
                  else if p.head_started_at > 0.0 then
                    Option.iter
                      (fun d -> consider (p.head_started_at +. d -. n0))
                      deadline
                  else
                    consider (p.dispatched_at +. pool.cfg.heartbeat_interval -. n0))
              pool.slots;
            !t
          in
          let fds =
            Array.to_list pool.slots
            |> List.filter_map (fun slot -> Option.map (fun p -> p.res_rd) slot.proc)
          in
          let readable, _, _ =
            if fds = [] then begin
              Unix.sleepf (Float.min timeout 0.25);
              ([], [], [])
            end
            else
              try Unix.select fds [] [] timeout
              with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          List.iter
            (fun fd ->
              Array.iter
                (fun slot ->
                  match slot.proc with
                  | Some p when p.res_rd = fd -> handle_readable slot p
                  | _ -> ())
                pool.slots)
            readable;
          (* 4. Enforce deadlines and wedge detection. *)
          let n1 = now () in
          Array.iter
            (fun slot ->
              match slot.proc with
              | None -> ()
              | Some p ->
                if not (Queue.is_empty p.assigned) then begin
                  if p.head_started_at > 0.0 then (
                    match deadline with
                    | Some d when n1 -. p.head_started_at > d ->
                      kill_worker slot p ~charge:`Timeout
                    | _ -> ())
                  else if n1 -. p.dispatched_at > pool.cfg.heartbeat_interval then begin
                    (* Accepted a batch but never acknowledged starting it:
                       wedged. Nothing ran, so nothing is charged. *)
                    pool.st.m_heartbeat_misses <- pool.st.m_heartbeat_misses + 1;
                    bump "pool.heartbeat_misses" 1;
                    kill_worker slot p ~charge:`No_charge;
                    backoff pool slot;
                    pool.st.m_restarts <- pool.st.m_restarts + 1;
                    bump "pool.restarts" 1
                  end
                end
                else if p.ping_at > 0.0 then begin
                  if n1 -. p.ping_at > pool.cfg.heartbeat_interval then begin
                    pool.st.m_heartbeat_misses <- pool.st.m_heartbeat_misses + 1;
                    bump "pool.heartbeat_misses" 1;
                    kill_worker slot p ~charge:`No_charge;
                    backoff pool slot;
                    pool.st.m_restarts <- pool.st.m_restarts + 1;
                    bump "pool.restarts" 1
                  end
                end
                else if n1 -. p.last_heard > pool.cfg.heartbeat_interval then begin
                  pool.ping_seq <- pool.ping_seq + 1;
                  match send_frame p.job_wr (Ping pool.ping_seq : _ to_worker) with
                  | () -> p.ping_at <- n1
                  | exception _ -> handle_death slot p
                end)
            pool.slots;
          (* 5. Recycle idle workers that hit their task or RSS ceiling —
             leak containment for pools that live for days. *)
          Array.iter
            (fun slot ->
              match slot.proc with
              | Some p
                when Queue.is_empty p.assigned
                     && ((pool.cfg.max_tasks_per_worker > 0
                         && p.tasks_done >= pool.cfg.max_tasks_per_worker)
                        || (pool.cfg.max_rss_kb > 0 && rss_kb p.pid > pool.cfg.max_rss_kb)
                        ) ->
                terminate pool slot p;
                slot.ready_at <- 0.0;
                pool.st.m_recycles <- pool.st.m_recycles + 1;
                bump "pool.recycles" 1
              | _ -> ())
            pool.slots
        end
      done
    end;
    Array.to_list results
    |> List.map (function
         | Some settled -> settled
         | None ->
           (* Unreachable: every queued item either settles or re-queues
              exactly once, and the loop only exits at zero unsettled. *)
           {
             outcome = Crashed { reason = "task was never scheduled"; attempts = 0 };
             lane = 0;
             attempts = 0;
           })
  end

let map ?retry ?deadline pool tasks =
  List.map (fun s -> s.outcome) (run ?retry ?deadline pool tasks)
