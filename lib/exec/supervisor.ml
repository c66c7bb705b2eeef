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
  max_tasks_per_worker : int;
  max_rss_kb : int;
  max_as_mb : int;  (* setrlimit(RLIMIT_AS) in each worker; 0 = uncapped *)
  max_restarts : int;
  backoff_base : float;
  backoff_cap : float;
  heartbeat_interval : float;
  grace : float;
}

let config ?(jobs = 1) ?(batch_size = 8) ?(max_tasks_per_worker = 128)
    ?(max_rss_kb = 512 * 1024) ?(max_as_mb = 0) ?(max_restarts = 3)
    ?(backoff_base = 0.05) ?(backoff_cap = 1.0) ?(heartbeat_interval = 2.0)
    ?(grace = 0.5) () =
  {
    jobs = max 1 jobs;
    batch_size = max 1 batch_size;
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

(* The one SHELLEY_FAULT parser: [KIND:ARG] entries, comma-separated, in
   spec order; empty unless armed. *)
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

let faults_for label =
  List.filter_map
    (fun (kind, sub) -> if contains ~sub label then Some kind else None)
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

let write_all fd b =
  let rec go pos =
    if pos < Bytes.length b then
      match Unix.write fd b pos (Bytes.length b - pos) with
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

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

let send_frame fd v = write_all fd (frame_of v)

(* The payload length announced by the frame header at [off] of [s], or
   [None] if those bytes are no sane header (bad magic, insane length). *)
let header_len s off =
  if String.sub s off 3 <> frame_magic then None
  else
    let len =
      (Char.code s.[off + 3] lsl 24)
      lor (Char.code s.[off + 4] lsl 16)
      lor (Char.code s.[off + 5] lsl 8)
      lor Char.code s.[off + 6]
    in
    if len < 0 || len > max_frame_len then None else Some len

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
    else
      match header_len s off with
      | None -> (List.rev acc, `Garbage)
      | Some len when total - off - frame_header_len < len -> (List.rev acc, `Consumed off)
      | Some len -> (
        match (Marshal.from_string s (off + frame_header_len) : 'a) with
        | v -> go (v :: acc) (off + frame_header_len + len)
        | exception _ -> (List.rev acc, `Garbage))
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
  else
    match header_len (Bytes.to_string header) 0 with
    | None -> None
    | Some len -> (
      let payload = Bytes.create len in
      if not (read_exact fd payload 0 len) then None
      else
        match (Marshal.from_bytes payload 0 : 'a) with
        | v -> Some v
        | exception _ -> None)

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
      let fault kind task = armed && List.mem kind (faults_for (label task)) in
      let emit frames =
        if frames <> [] then write_all res_wr (Bytes.concat Bytes.empty frames)
      in
      let corrupt = Bytes.of_string "!!corrupt-frame!!" in
      (* [held] is the previous task's result frame: it goes out in one
         write with this task's start acknowledgement, so the parent wakes
         once per task. The last result of the job goes out alone. *)
      let rec go held = function
        | [] -> emit held
        | (idx, task) :: rest ->
          let started = frame_of (Started idx : _ from_worker) in
          if fault "glued-garbage" task then
            (* The previous result, this ack and the corrupt bytes reach
               the parent in one write, hence in one read. *)
            emit (held @ [ started; corrupt ])
          else if fault "garbage" task then begin
            emit (held @ [ started ]);
            emit [ corrupt ]
          end
          else begin
            emit (held @ [ started ]);
            let result =
              match run task with
              | r -> (Ok r : (_, string) result)
              | exception exn -> Error (Printexc.to_string exn)
            in
            if fault "wedge" task then wedge := true;
            go [ result_frame idx result ] rest
          end
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
  mutable fed : bool;  (* has been sent a Job: its RSS is worth reading *)
  mutable draining : bool;  (* over the RSS ceiling: finish, then recycle *)
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
  first_tasks : int;
  live_workers : int;
}

type ('t, 'r) t = {
  cfg : config;
  run : 't -> 'r;
  label : 't -> string;
  after_fork : unit -> unit;
  slots : 't slot array;
  ledger : Obs.Ledger.t;  (* every pool.* event count; [stats] reads it *)
  mutable ping_seq : int;
  mutable forkfail_budget : int;  (* armed fault: fail this many forks *)
  mutable closed : bool;
}

let stamp () = if Obs.enabled () then Clock.now () else 0.0
let us since = int_of_float ((Clock.now () -. since) *. 1e6)
let tally key since = if Obs.enabled () then Obs.count key (us since)
let bump pool key n = Obs.Ledger.add pool.ledger key n

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
    ledger = Obs.Ledger.create ();
    ping_seq = 0;
    forkfail_budget = (if !fault_injection then fault_forkfail_budget () else 0);
    closed = false;
  }

let live_workers pool =
  Array.fold_left
    (fun acc slot -> if slot.proc = None then acc else acc + 1)
    0 pool.slots

let stats pool =
  let get = Obs.Ledger.get pool.ledger in
  {
    spawns = get "pool.spawns";
    restarts = get "pool.restarts";
    recycles = get "pool.recycles";
    backoff_waits = get "pool.backoff_waits";
    heartbeat_misses = get "pool.heartbeat_misses";
    kills = get "pool.kills";
    poisoned = get "pool.poisoned";
    fork_failures = get "pool.fork_failures";
    batches = get "pool.batches";
    tasks = get "pool.tasks";
    inline_tasks = get "pool.inline_tasks";
    first_tasks = get "pool.first_tasks";
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

(* Resident set size in kB: the [VmRSS:] line of /proc/PID/status, which
   the kernel states in kB whatever its page size. 0 — never triggering the
   recycle ceiling — where /proc is not a thing or the process is gone. *)
let rss_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> 0
          | line when String.starts_with ~prefix:"VmRSS:" line -> (
            match Scanf.sscanf_opt line "VmRSS: %d" Fun.id with
            | Some kb -> kb
            | None -> 0)
          | _ -> find ()
        in
        find ())

(* The smallest capacity a pipe has on Linux (one page: pipes shrink to it
   when their user passes pipe-user-pages-soft). A frame this small written
   to an empty pipe never blocks. *)
let pipe_floor = 4096

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
    (* First thing, before this child allocates: its nursery's free pages
       are still its parent's, and each would be copied on first write. *)
    Sysconf.drop_free_nursery ();
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
    bump pool "pool.spawns" 1;
    tally "pool.fork_us" fork_start;
    let now = Clock.now () in
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
          fed = false;
          draining = false;
        }

(* Retire a worker: Quit, then close its job pipe (EOF doubles as Quit).
   Its result pipe stays open: the worker's exit closes the far end, and
   that EOF is what [reap] waits on. *)
let retire (p : 't proc) =
  (try send_frame p.job_wr (Quit : _ to_worker) with _ -> ());
  try Unix.close p.job_wr with _ -> ()

(* Reap retired workers under one shared [grace] deadline. Each wait is a
   [select] on their result pipes of at most 5 ms, never past the deadline.
   A worker's exit closes the far end, so the wait wakes at once on its EOF
   and the waitpid that follows returns. A pipe held open by a
   task-spawned subprocess never reaches EOF; the WNOHANG poll after each
   wait catches that worker's exit instead. Frames still in flight are
   read and dropped, so a busy worker never blocks on a full pipe. A worker
   still alive at the deadline gets a process-group SIGKILL. Never blocks
   forever. *)
let reap pool (procs : 't proc list) =
  let deadline = Clock.now () +. pool.cfg.grace in
  let scratch = Bytes.create 4096 in
  let at_eof (p : _ proc) =
    match Unix.read p.res_rd scratch 0 (Bytes.length scratch) with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    | exception Unix.Unix_error _ -> true
  in
  let exited (p : _ proc) =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> false
    | _, _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    | exception Unix.Unix_error _ -> true
  in
  let rec go = function
    | [] -> ()
    | waiting ->
      let now = Clock.now () in
      let gone =
        if now >= deadline then fun (p : _ proc) ->
          (try Unix.kill (-p.pid) Sys.sigkill with Unix.Unix_error _ -> ());
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_no_eintr p.pid);
          true
        else begin
          let readable, _, _ =
            try
              Unix.select
                (List.map (fun (p : _ proc) -> p.res_rd) waiting)
                [] [] (Float.min 0.005 (deadline -. now))
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          fun p ->
            if List.mem p.res_rd readable && at_eof p then begin
              ignore (waitpid_no_eintr p.pid);
              true
            end
            else exited p
        end
      in
      go
        (List.filter
           (fun (p : _ proc) ->
             if gone p then begin
               (try Unix.close p.res_rd with _ -> ());
               false
             end
             else true)
           waiting)
  in
  go procs

(* Tear down the workers of [slots]: retire them all first, then reap them
   together, so N busy workers cost one [grace], not N. *)
let teardown pool slots =
  match List.filter_map (fun slot -> slot.proc) slots with
  | [] -> ()
  | procs ->
    let t0 = stamp () in
    List.iter retire procs;
    reap pool procs;
    List.iter (fun slot -> slot.proc <- None) slots;
    bump pool "pool.reaps" (List.length procs);
    tally "pool.reap_us" t0

let quiesce pool =
  let live = List.filter (fun slot -> slot.proc <> None) (Array.to_list pool.slots) in
  teardown pool live;
  List.iter
    (fun slot ->
      slot.ready_at <- 0.0;
      slot.consec_failures <- 0)
    live

let shutdown pool =
  quiesce pool;
  pool.closed <- true

let backoff pool slot =
  slot.consec_failures <- slot.consec_failures + 1;
  let n = slot.consec_failures in
  let base = pool.cfg.backoff_base *. (2.0 ** float_of_int (n - 1)) in
  let capped = Float.min pool.cfg.backoff_cap base in
  let jitter = 1.0 +. (0.25 *. Random.State.float (Lazy.force rng) 1.0) in
  slot.ready_at <- Clock.now () +. (capped *. jitter);
  bump pool "pool.backoff_waits" 1;
  bump pool "pool.backoff_us" (int_of_float (capped *. jitter *. 1e6))

(* --- run ---------------------------------------------------------------------

   One [run] call is a loop of named steps over one run record: [recycle]
   the workers that drained under the RSS ceiling, [spawn_wanted] what the
   pending tasks need, [dispatch] (idle lanes, then one pipelined chunk),
   [wait] for the nearest frame or due instant and read what arrived
   ([on_readable]), then [enforce] whatever fell due. Each decision is
   written once: every timing rule of a lane is in [due], every lost
   worker goes through [lose], and every retry through [retry_of]. *)

type 'r settled = {
  outcome : 'r outcome;
  lane : int;
  attempts : int;
}

(* The one retry policy. A failed first attempt is retried, transformed by
   [retry], when one is given; a failed second attempt is final and counted
   poisoned, so no task is retried forever. [Some task] is the task to run
   as attempt 2; [None] means [outcome] is final. *)
let retry_of ?retry ~count ~attempt task outcome =
  match (outcome, retry) with
  | Done _, _ -> None
  | _, Some retry when attempt = 1 ->
    count "pool.retries" 1;
    Some (retry task)
  | _ ->
    if attempt >= 2 then count "pool.poisoned" 1;
    None

(* The one in-process settle path: an attempt runs [f] here, and a failed
   first attempt runs its retry at once, so one call settles the task. There
   is no deadline: running inline means there is no worker to kill. *)
let settle_inline ?retry ?(attempt = 1) ?(count = fun (_ : string) (_ : int) -> ()) f task =
  let rec go attempt task =
    count "pool.inline_tasks" 1;
    let outcome =
      match f task with
      | r -> Done r
      | exception exn -> Crashed { reason = Printexc.to_string exn; attempts = attempt }
    in
    match retry_of ?retry ~count ~attempt task outcome with
    | Some task -> go 2 task
    | None -> { outcome; lane = 0; attempts = attempt }
  in
  go attempt task

type ('t, 'r) run = {
  pool : ('t, 'r) t;
  retry : ('t -> 't) option;
  deadline : float option;
  results : 'r settled option array;  (* by task index; [None] until final *)
  pending : 't item Queue.t;  (* queued, not yet sent to any worker *)
  mutable unsettled : int;
  chunk : Bytes.t;  (* read buffer for the result pipes *)
}

let settle st (item : _ item) lane outcome =
  match
    retry_of ?retry:st.retry ~count:(bump st.pool) ~attempt:item.attempt item.task outcome
  with
  | Some task -> Queue.add { item with attempt = 2; task; enqueued_at = stamp () } st.pending
  | None ->
    st.results.(item.idx) <- Some { outcome; lane; attempts = item.attempt };
    st.unsettled <- st.unsettled - 1

(* Run every pending task in-process, in index order: inline execution must
   produce the same (input-ordered) result list as any pool width. *)
let drain_inline st =
  let items = List.of_seq (Queue.to_seq st.pending) in
  Queue.clear st.pending;
  let timed task =
    let t0 = stamp () in
    Fun.protect ~finally:(fun () -> tally "pool.task_wall_us" t0) (fun () -> st.pool.run task)
  in
  List.sort (fun a b -> compare (a.idx, a.attempt) (b.idx, b.attempt)) items
  |> List.iter (fun item ->
         if st.results.(item.idx) = None then begin
           st.results.(item.idx) <-
             Some
               (settle_inline ?retry:st.retry ~attempt:item.attempt ~count:(bump st.pool)
                  timed item.task);
           st.unsettled <- st.unsettled - 1
         end)

(* The one loss path. A worker is lost when it died (EOF or an error on
   its pipes) or when the loop condemns it: a deadline kill, a wedge or a
   corrupt frame. A condemned worker gets a process-group SIGKILL, so
   task-spawned subprocesses die with it. Either way it is reaped, its
   head is charged only if it started ([Timed_out] for a deadline kill,
   else [Crashed] with the reason, "killed by SIGKILL" or "exited with code
   42" for a death), and the rest is re-queued uncharged. The lane then
   restarts under backoff, except after a deadline kill: the task was at
   fault there, not the worker. *)
let lose st slot (p : _ proc) cause =
  (try Unix.close p.job_wr with _ -> ());
  (try Unix.close p.res_rd with _ -> ());
  if cause <> `Died then begin
    (try Unix.kill (-p.pid) Sys.sigkill with Unix.Unix_error _ -> ());
    try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()
  end;
  let status = waitpid_no_eintr p.pid in
  slot.proc <- None;
  (match Queue.take_opt p.assigned with
  | Some head when p.head_started_at > 0.0 ->
    tally "pool.task_wall_us" p.head_started_at;
    let attempts = head.attempt in
    settle st head slot.lane
      (match cause with
      | `Deadline ->
        bump st.pool "pool.kills" 1;
        Timed_out { seconds = Option.get st.deadline; attempts }
      | `Condemned reason -> Crashed { reason; attempts }
      | `Died ->
        let reason =
          match status with
          | Unix.WEXITED 0 -> "worker exited before returning a result"
          | Unix.WEXITED code -> Printf.sprintf "exited with code %d" code
          | Unix.WSIGNALED s | Unix.WSTOPPED s -> "killed by " ^ signal_name s
        in
        Crashed { reason; attempts })
  | Some head -> Queue.add head st.pending
  | None -> ());
  Queue.iter (fun item -> Queue.add item st.pending) p.assigned;
  Queue.clear p.assigned;
  if cause <> `Deadline then begin
    backoff st.pool slot;
    bump st.pool "pool.restarts" 1
  end

(* One decoded frame from a live worker. *)
let on_frame st slot (p : _ proc) (frame : _ from_worker) =
  p.last_heard <- Clock.now ();
  match frame with
  | Pong _ -> p.ping_at <- 0.0
  | Started idx -> (
    match Queue.peek_opt p.assigned with
    | Some head when head.idx = idx ->
      p.head_started_at <- Clock.now ();
      tally "pool.queue_wait_us" head.enqueued_at
    | _ -> () (* stale ack from a previous incarnation: ignore *))
  | Result (idx, res) -> (
    match Queue.peek_opt p.assigned with
    | Some head when head.idx = idx -> (
      ignore (Queue.take p.assigned);
      tally "pool.task_wall_us" p.head_started_at;
      if p.tasks_done = 0 then begin
        bump st.pool "pool.first_tasks" 1;
        tally "pool.first_task_us" p.head_started_at
      end;
      p.head_started_at <- 0.0;
      p.tasks_done <- p.tasks_done + 1;
      bump st.pool "pool.tasks" 1;
      slot.consec_failures <- 0;
      match res with
      | Ok r -> settle st head slot.lane (Done r)
      | Error reason -> settle st head slot.lane (Crashed { reason; attempts = head.attempt }))
    | _ ->
      (* A result for a task this worker does not own: protocol
         corruption — condemn the worker, charge nothing blindly. *)
      lose st slot p (`Condemned "out-of-order frame on result pipe"))

let on_readable st slot (p : _ proc) =
  match Unix.read p.res_rd st.chunk 0 (Bytes.length st.chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> lose st slot p `Died
  | 0 -> lose st slot p `Died
  | k -> (
    Buffer.add_subbytes p.rbuf st.chunk 0 k;
    let frames, tail = parse_frames p.rbuf in
    (match tail with
    | `Consumed consumed ->
      let rest = Buffer.sub p.rbuf consumed (Buffer.length p.rbuf - consumed) in
      Buffer.clear p.rbuf;
      Buffer.add_string p.rbuf rest
    | `Garbage -> ());
    (* The worker may have been condemned by an earlier frame in this very
       batch of frames. *)
    let alive () =
      match slot.proc with
      | Some q -> q == p
      | None -> false
    in
    List.iter (fun frame -> if alive () then on_frame st slot p frame) frames;
    (* Garbage after valid frames belongs to whichever task is the head once
       those frames are settled, never to one they completed. *)
    match tail with
    | `Garbage when alive () -> lose st slot p (`Condemned "garbage frame on result pipe")
    | `Garbage | `Consumed _ -> ())

let live_where pool pred =
  List.filter
    (fun slot ->
      match slot.proc with
      | Some p -> pred p
      | None -> false)
    (Array.to_list pool.slots)

let recycle pool = function
  | [] -> ()
  | slots ->
    teardown pool slots;
    List.iter (fun slot -> slot.ready_at <- 0.0) slots;
    bump pool "pool.recycles" (List.length slots)

(* Spawn while the pending tasks outnumber the idle live workers and the
   backoff gate is open: a one-file run forks one worker, whatever the
   width. A spawn failure is a counted fork failure that backs its lane
   off; persistent failure everywhere degrades the whole run to inline. *)
let spawn_wanted st =
  let pool = st.pool in
  let idle =
    ref
      (List.length (live_where pool (fun p -> Queue.is_empty p.assigned)))
  in
  Array.iter
    (fun slot ->
      if
        slot.proc = None
        && Queue.length st.pending > !idle
        && slot.consec_failures <= pool.cfg.max_restarts
        && Clock.now () >= slot.ready_at
      then
        try
          spawn pool slot;
          incr idle
        with Fork_failed _ ->
          bump pool "pool.fork_failures" 1;
          backoff pool slot)
    pool.slots

let degraded pool =
  live_workers pool = 0
  && Array.for_all (fun slot -> slot.consec_failures > pool.cfg.max_restarts) pool.slots

(* Spread small runs across lanes (chunk ≤ ⌈pending / width⌉) while
   batching large ones (chunk ≤ batch_size): two files at -j 4 land on
   lanes 0 and 1, a thousand files go out 8 at a time. *)
let chunk_size st =
  let p = Queue.length st.pending in
  max 1 (min st.pool.cfg.batch_size ((p + st.pool.cfg.jobs - 1) / st.pool.cfg.jobs))

(* Send [p] its next chunk. A worker past its first chunk may have grown
   since: one RSS read per chunk, and a worker over [max_rss_kb] is sent
   nothing more — it drains what it holds and is recycled. A pipelined
   chunk goes to a worker whose last task is running, so the write must
   not block on a full pipe (a hung task would stall the whole loop): the
   worker has read every earlier frame, so the job pipe is empty and a
   frame that fits [pipe_floor] goes through at once; a larger one waits
   until the worker is idle. A write failure means the worker just died.
   Never resets the head's start time: a running head keeps its deadline
   clock. *)
let feed st slot (p : _ proc) ~pipelined =
  let cfg = st.pool.cfg in
  if p.fed && cfg.max_rss_kb > 0 && rss_kb p.pid > cfg.max_rss_kb then p.draining <- true
  else
    let items = List.of_seq (Seq.take (chunk_size st) (Queue.to_seq st.pending)) in
    let frame = frame_of (Job (List.map (fun i -> (i.idx, i.task)) items) : _ to_worker) in
    if not (pipelined && Bytes.length frame > pipe_floor) then begin
      List.iter
        (fun item ->
          ignore (Queue.take st.pending);
          Queue.add item p.assigned)
        items;
      p.fed <- true;
      p.dispatched_at <- Clock.now ();
      bump st.pool "pool.batches" 1;
      bump st.pool "pool.batch_tasks" (List.length items);
      match write_all p.job_wr frame with
      | () -> ()
      | exception _ -> lose st slot p `Died
    end

(* Dispatch to idle workers first, in lane order (determinism of the trace
   lanes, not of the output — output order is pinned by idx). Only then one
   chunk of lookahead to each worker whose last assigned task has started,
   so it never waits on the parent between chunks. *)
let dispatch st =
  let feed_where pred ~pipelined =
    Array.iter
      (fun slot ->
        match slot.proc with
        | Some p when pred p && (not p.draining) && not (Queue.is_empty st.pending) ->
          feed st slot p ~pipelined
        | _ -> ())
      st.pool.slots
  in
  feed_where (fun p -> Queue.is_empty p.assigned) ~pipelined:false;
  feed_where (fun p -> Queue.length p.assigned = 1 && p.head_started_at > 0.0) ~pipelined:true

(* What a lane waits for. The first two are acted on by the loop's own
   steps ([spawn_wanted], [recycle]); [enforce] performs the rest. *)
type due =
  | Gate_opens  (* an empty lane's backoff ends *)
  | Drained  (* an idle worker over the RSS ceiling: recycle it *)
  | Deadline  (* the running head reaches the run's deadline: kill *)
  | Wedged  (* the head's [Started] is a heartbeat overdue: condemn *)
  | Deaf  (* the outstanding ping is a heartbeat old: condemn *)
  | Silent  (* an idle worker unheard for a heartbeat: ping it *)

(* The one timing rule: a lane's next instant and the action due then.
   An unstarted head's [Started] is owed from the worker's last frame or
   the dispatch, whichever is later: measuring from the dispatch alone
   would condemn a healthy worker whose chunk outlasts one heartbeat. *)
let due st now slot =
  let hb = st.pool.cfg.heartbeat_interval in
  match slot.proc with
  | None -> if slot.ready_at > now then Some (slot.ready_at, Gate_opens) else None
  | Some p ->
    if not (Queue.is_empty p.assigned) then
      if p.head_started_at > 0.0 then
        Option.map (fun d -> (p.head_started_at +. d, Deadline)) st.deadline
      else Some (Float.max p.dispatched_at p.last_heard +. hb, Wedged)
    else if p.draining then Some (now, Drained)
    else if p.ping_at > 0.0 then Some (p.ping_at +. hb, Deaf)
    else Some (p.last_heard +. hb, Silent)

(* Wait for frames until the earliest due instant, at most 0.25 s, and
   read whatever arrived. *)
let wait st =
  let now = Clock.now () in
  let timeout =
    Array.fold_left
      (fun t slot ->
        match due st now slot with
        | Some (at, _) -> Float.min t (Float.max 0.0 (at -. now))
        | None -> t)
      0.25 st.pool.slots
  in
  let fds =
    Array.to_list st.pool.slots
    |> List.filter_map (fun slot -> Option.map (fun p -> p.res_rd) slot.proc)
  in
  let readable =
    if fds = [] then begin
      Unix.sleepf timeout;
      []
    end
    else
      match Unix.select fds [] [] timeout with
      | readable, _, _ -> readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  List.iter
    (fun fd ->
      Array.iter
        (fun slot ->
          match slot.proc with
          | Some p when p.res_rd = fd -> on_readable st slot p
          | _ -> ())
        st.pool.slots)
    readable

(* Perform every worker action whose instant has passed. A worker that
   holds a task it never acknowledged starting, or leaves a ping
   unanswered, for a heartbeat is wedged: nothing ran, so nothing is
   charged. *)
let enforce st =
  let pool = st.pool in
  let now = Clock.now () in
  Array.iter
    (fun slot ->
      match (slot.proc, due st now slot) with
      | Some p, Some (at, action) when now > at -> (
        match action with
        | Deadline -> lose st slot p `Deadline
        | Wedged | Deaf ->
          bump pool "pool.heartbeat_misses" 1;
          lose st slot p (`Condemned "missed heartbeat")
        | Silent -> (
          pool.ping_seq <- pool.ping_seq + 1;
          match send_frame p.job_wr (Ping pool.ping_seq : _ to_worker) with
          | () -> p.ping_at <- now
          | exception _ -> lose st slot p `Died)
        | Gate_opens | Drained -> ())
      | _ -> ())
    pool.slots

let run ?retry ?deadline pool tasks =
  let n = List.length tasks in
  if n = 0 then []
  else begin
    let st =
      {
        pool;
        retry;
        deadline;
        results = Array.make n None;
        pending = Queue.create ();
        unsettled = n;
        chunk = Bytes.create 65536;
      }
    in
    List.iteri
      (fun idx task -> Queue.add { idx; attempt = 1; task; enqueued_at = stamp () } st.pending)
      tasks;
    if pool.closed then drain_inline st
    else begin
      (* The task-count ceiling is checked between runs: a run never pays
         for a fresh worker's warm-up just to reset a counter. *)
      recycle pool
        (live_where pool (fun p ->
             p.draining
             || (pool.cfg.max_tasks_per_worker > 0
                && p.tasks_done >= pool.cfg.max_tasks_per_worker)));
      while st.unsettled > 0 do
        recycle pool (live_where pool (fun p -> p.draining && Queue.is_empty p.assigned));
        spawn_wanted st;
        if degraded pool && not (Queue.is_empty st.pending) then drain_inline st
        else begin
          dispatch st;
          wait st;
          enforce st
        end
      done
    end;
    Array.to_list st.results
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
