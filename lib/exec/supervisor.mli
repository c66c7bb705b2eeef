(** A supervised, persistent prefork worker pool.

    Rather than forking one short-lived process per task (and paying ~ms of
    fork + pipe setup for ~µs of work), a [Supervisor] pool forks its
    workers {e once} and then streams tasks to them over pipes as
    length-prefixed [Marshal] frames, batching several tasks per dispatch to
    amortize the IPC round trip. The pool is built to stay up for days under
    a long-running daemon ({!Serve}), so the supervision loop assumes
    everything fails eventually:

    - {b deadlines}: a task that outlives its {!run}'s [deadline] is
      killed externally (process-group SIGKILL) and reported [Timed_out];
      the killed worker's remaining batch is re-queued untouched.
    - {b crashes}: a worker that dies mid-task charges only the task it was
      running ([Crashed], with a ["killed by SIGNAL"] reason named by
      {!signal_name}); the rest of its batch is re-queued at the same
      attempt number. The slot restarts under capped exponential backoff
      with jitter.
    - {b poisoned tasks}: a task whose retry also fails is final after 2
      attempts — the pool never retries the same input forever.
    - {b heartbeats}: idle workers are pinged; a worker that accepts a batch
      but never acknowledges starting it (or an idle worker that stops
      answering pings) is declared wedged, its batch re-queued, the slot
      restarted.
    - {b protocol corruption}: a garbage frame on a result pipe (bad magic,
      insane length, undecodable payload) condemns that worker alone; the
      in-flight task is charged, everything else re-queued.
    - {b recycling}: a worker is retired and respawned after
      [max_tasks_per_worker] tasks or when its RSS exceeds [max_rss_kb]
      (leak containment for day-long daemons).
    - {b fork failure}: if forking itself fails persistently, the pool
      degrades to in-process sequential execution — a run always completes.

    Scheduling never affects output: results are reassembled in submission
    order, so a caller that renders them is byte-identical at any pool
    width. Lanes (pool slot indices) are reported per result so the {!Obs}
    trace sink can draw one timeline row per worker.

    Every time the pool keeps — deadlines, heartbeats, backoff gates, the
    reap grace and the timing tallies — is read from {!Clock.now}, which
    is monotonic: a wall-clock step can neither charge a task a timeout
    it did not earn nor stretch a backoff.

    Lifecycle counters live in one {!Obs.Ledger} per pool: each event is
    counted once, into the totals {!stats} reads and, when the recorder is
    enabled, into the plain {!Obs.count} of the same name (never the
    byte-stable [--stats] table). They are [pool.spawns],
    [pool.restarts], [pool.recycles], [pool.backoff_waits],
    [pool.heartbeat_misses], [pool.kills], [pool.poisoned],
    [pool.fork_failures], [pool.batches], [pool.tasks],
    [pool.inline_tasks] (one per {!stats} field), plus [pool.retries],
    [pool.batch_tasks], [pool.backoff_us] and [pool.reaps] (workers torn
    down by {!quiesce}, {!shutdown} or recycling). The timing tallies
    [pool.fork_us], [pool.queue_wait_us], [pool.task_wall_us] and
    [pool.reap_us] (teardown time) are recorded only while the recorder is
    enabled, so fork, task and reap time add up against elapsed time. *)

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

type config = {
  jobs : int;  (** pool width: number of worker slots (min 1) *)
  batch_size : int;
      (** max tasks per dispatch frame; the effective chunk also never
          exceeds ⌈pending / jobs⌉, so small runs still spread across
          lanes *)
  max_tasks_per_worker : int;
      (** recycle a worker after this many tasks (0 = never) *)
  max_rss_kb : int;
      (** recycle an idle worker whose RSS exceeds this (0 = never;
          measured from /proc, a no-op where that is absent) *)
  max_as_mb : int;
      (** cap each worker's address space via setrlimit(RLIMIT_AS) right
          after the fork (0 = uncapped). Unlike [max_rss_kb] — containment
          of slow leaks in idle workers — this bounds a single ballooning
          task: the allocation that crosses the cap raises a catchable
          [Out_of_memory] inside the worker, which the task function can
          classify (the checker renders it as a resource-limit verdict)
          instead of the host OOM killer picking a victim *)
  max_restarts : int;
      (** consecutive failed spawns / crashes per slot before the slot is
          written off; when every slot is written off and no worker is
          live, the pool falls back to in-process execution *)
  backoff_base : float;  (** first restart delay, seconds *)
  backoff_cap : float;  (** max restart delay, seconds *)
  heartbeat_interval : float;
      (** idle-ping period; also the dispatch-acknowledge deadline after
          which an unresponsive worker is declared wedged *)
  grace : float;
      (** seconds the workers retired by one teardown get, together, to
          exit after Quit. Teardown wakes on each exit, so the full grace
          is paid only for a worker that does not exit; that worker is
          then SIGKILLed with its process group *)
}

val config :
  ?jobs:int ->
  ?batch_size:int ->
  ?max_tasks_per_worker:int ->
  ?max_rss_kb:int ->
  ?max_as_mb:int ->
  ?max_restarts:int ->
  ?backoff_base:float ->
  ?backoff_cap:float ->
  ?heartbeat_interval:float ->
  ?grace:float ->
  unit ->
  config
(** Defaults: [jobs = 1], [batch_size = 8],
    [max_tasks_per_worker = 128], [max_rss_kb = 524288] (512 MB),
    [max_as_mb = 0] (uncapped), [max_restarts = 3], [backoff_base = 0.05],
    [backoff_cap = 1.0], [heartbeat_interval = 2.0], [grace = 0.5]. *)

type ('t, 'r) t
(** A pool mapping marshal-safe tasks ['t] to marshal-safe results ['r].
    The worker function is fixed at {!create} (it crosses into the workers
    by fork inheritance, never by marshaling), so one pool serves any
    number of {!run} calls — the daemon keeps one pool across
    requests. *)

val create :
  ?after_fork:(unit -> unit) ->
  ?label:('t -> string) ->
  config ->
  ('t -> 'r) ->
  ('t, 'r) t
(** [create config f] builds a pool whose workers each apply [f]. No
    worker is forked until a {!run} needs it, and a run forks a worker only
    while its pending tasks outnumber the idle live workers: a one-task run
    forks one worker at any width, and a later run reuses the workers left
    idle before forking more. Workers persist across runs, become their
    own session leaders (so a deadline kill takes out any task-spawned
    subprocesses too), ignore SIGTERM/SIGINT (shutdown is by pipe EOF /
    [Quit], so a signal to the parent's group cannot kill them mid-write),
    and exit when the job pipe reaches EOF — so even an abruptly dead
    parent leaves no orphans behind. [after_fork] runs in each child right after the fork
    (the daemon uses it to close its listening socket). [label] names
    tasks for the fault-injection seam and error text (default
    [fun _ -> ""]). *)

type 'r settled = {
  outcome : 'r outcome;
  lane : int;  (** pool slot that produced the outcome; [0] when inline *)
  attempts : int;
      (** attempts actually consumed, including for [Done] — the checker
          refuses to cache a result whose successful attempt was the
          reduced-budget retry *)
}

val run :
  ?retry:('t -> 't) -> ?deadline:float -> ('t, 'r) t -> 't list -> 'r settled list
(** Run every task through the pool; results in submission order. With
    [?retry], a failed first attempt is re-queued once as [retry task] (the
    checker shrinks fuel budgets with it); the second failure is final with
    [attempts = 2]. Without [?retry] a failure is final immediately.
    [?deadline] bounds each task attempt of this call, in seconds on the
    monotonic clock from the worker's start acknowledgement (default: no
    bound) — the daemon applies per-request deadlines over one long-lived
    pool. Never raises; never loses or duplicates a task. *)

val map : ?retry:('t -> 't) -> ?deadline:float -> ('t, 'r) t -> 't list -> 'r outcome list
(** {!run} projected to outcomes alone. *)

val quiesce : ('t, 'r) t -> unit
(** Retire every live worker (Quit and job-pipe EOF to all of them first),
    then reap them together under one [grace] deadline: each reap wakes as
    soon as its worker exits, and a worker still alive at the deadline is
    SIGKILLed with its process group. The pool stays usable: the next
    {!run} respawns on demand. The daemon calls this after an idle period
    so a dormant service holds no processes. *)

val shutdown : ('t, 'r) t -> unit
(** {!quiesce} and mark the pool closed. Idempotent. A closed pool runs
    subsequent {!run} calls inline (degraded), so even a use-after-close
    bug cannot lose results. Returns as soon as every worker has exited,
    typically well under a millisecond per worker, and never later than
    [grace] plus the SIGKILL reap. *)

type stats = {
  spawns : int;  (** workers forked, ever *)
  restarts : int;  (** respawns after a crash / wedge / garbage frame *)
  recycles : int;  (** planned retirements (task count or RSS ceiling) *)
  backoff_waits : int;  (** times a slot entered a backoff delay *)
  heartbeat_misses : int;  (** pings or dispatch-acks that timed out *)
  kills : int;  (** deadline kills *)
  poisoned : int;  (** tasks final-failed after their retry *)
  fork_failures : int;  (** fork attempts that themselves failed *)
  batches : int;  (** job frames dispatched *)
  tasks : int;  (** tasks completed by workers *)
  inline_tasks : int;  (** tasks run in-process by graceful degradation *)
  live_workers : int;  (** workers alive right now *)
}

val stats : ('t, 'r) t -> stats

val worker_pids : ('t, 'r) t -> int list
(** PIDs of the live workers, for the no-orphans test assertions. *)

type worker_info = {
  wi_lane : int;
  wi_pid : int option;  (** [None] = the slot holds no live worker *)
  wi_busy : bool;  (** tasks currently assigned to this worker *)
  wi_tasks_done : int;  (** tasks this worker completed since it spawned *)
}

val workers : ('t, 'r) t -> worker_info list
(** Per-slot worker state, one entry per lane in lane order — the
    daemon's [metrics] RPC surfaces it so an operator can see load skew
    and recycling churn per worker, not just pool-wide totals.
    [wi_tasks_done] resets when a worker is restarted or recycled (it is
    the {e process}'s counter, which is the point: a lane whose counter
    keeps resetting is a lane that keeps crashing). *)

val fault_injection : bool ref
(** The shared fault-injection master switch ({!Checker.fault_injection} is
    this very ref). When armed, [SHELLEY_FAULT] entries extend to
    supervisor-level faults: [garbage:SUBSTR] (the worker writes a corrupt
    frame instead of the matching task's result), [glued-garbage:SUBSTR]
    (the same, but the previous task's result frame, the matching task's
    start acknowledgement and the corrupt bytes go out in one write, so the
    parent reads a valid prefix followed by garbage), [wedge:SUBSTR] (the
    worker stops reading its job pipe after completing the batch containing
    the matching task, ignoring heartbeats), [forkfail:N] (the pool's next
    N fork attempts fail). Inert by default. *)

val faults_for : string -> string list
(** The kinds of the armed [SHELLEY_FAULT] entries whose argument occurs in
    [label], in spec order; [[]] unless {!fault_injection} is set. The one
    parser of that variable: {!Checker.fault_hook} acts on the kinds it
    owns, the pool on the rest. *)

val write_all : Unix.file_descr -> bytes -> unit
(** Write all of the bytes, retrying on EINTR (blocking descriptors). *)

val signal_name : int -> string
(** Human-readable name for an OCaml [Sys] signal number (["SIGKILL"],
    ["SIGSEGV"], …); ["signal <n>"] for unknown ones. Names the signal in
    a [Crashed] reason here and in {!Nusmv_driver}'s tool verdicts. *)
