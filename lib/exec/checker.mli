(** Parallel, fault-isolated driving of the verification pipeline over
    files — the engine behind [shelley check -j N --timeout S] and the
    [shelley serve] daemon.

    Each file is one verification unit: a {!Supervisor} pool worker parses
    and extracts it once ({!Pipeline.front_end}), checks it
    ({!Pipeline.verify}) and sends back the
    fully rendered report block plus the per-file exit code. Because workers
    return {e rendered text} (not interned symbols or models, which are not
    stable across process boundaries), the parent only concatenates blocks
    in input order — so the aggregate output is byte-identical for
    [jobs = 1] and [jobs = N], and a unit's block depends only on that
    unit.

    A unit that exceeds {!Limits.t.deadline} or whose worker dies is
    retried once under {!Limits.reduced} (so a fuel-reachable blowup
    resurfaces as a deterministic [Resource_limit] report instead of a
    bare timeout); a failed retry yields a {!Report.Timeout} /
    {!Report.Worker_crashed} block and per-file code 3 while every other
    unit still completes. *)

type verdict = {
  path : string;
  output : string;
      (** the file's full report block, ["== path ==…"], empty when the
          file verified silently *)
  code : int;  (** per-file exit code: 0 / 1 / 2 / 3, see {!exit_code} *)
  profile : Obs.profile option;
      (** the unit's span tree and counters when the {!Obs} recorder was
          enabled during the check (in the worker, for forked units);
          [None] when observability is off or the unit timed out /
          crashed. Already merged into the parent recorder by
          {!check_files}. *)
}

type job_spec
(** One file's job as it crosses the worker pipe: path, mode and budgets. *)

type job_result
(** What a worker sends back for one job: the cache payload and profile. *)

type pool = (job_spec, job_result) Supervisor.t
(** A persistent {!Supervisor} worker pool able to serve both {!check_files}
    and {!lint_files} jobs. One pool can outlive any number of calls — the
    daemon keeps a single pool across requests so workers stay hot. Its
    stats, workers and quiescence are {!Supervisor}'s. *)

val make_pool :
  ?after_fork:(unit -> unit) -> ?max_as_mb:int -> ?jobs:int -> unit -> pool
(** Build a pool of [jobs] (default 1) persistent workers. No worker is
    forked until a call needs one, and a call forks at most as many workers
    as it has tasks beyond the idle ones: a one-file check forks one worker
    at any [jobs]. [after_fork] runs in each child right after
    the fork (the daemon closes its listening socket there). With
    [max_as_mb > 0] each worker's address space is capped via
    setrlimit(RLIMIT_AS): a check or lint unit that balloons past the cap
    fails with a rendered resource-limit verdict (exit 3, same class as
    running out of fuel) instead of a crash — and instead of inviting the
    host OOM killer. *)

val pool_worker_pids : pool -> int list
(** {!Supervisor.worker_pids}. *)

val shutdown_pool : pool -> unit
(** Retire the workers and close the pool. Idempotent; a closed pool still
    completes calls by running jobs in-process. *)

val check_files :
  ?jobs:int ->
  ?limits:Limits.t ->
  ?warnings:bool ->
  ?explain:bool ->
  ?lint:bool ->
  ?using:string list ->
  ?pool:pool ->
  ?cache:Cache.t ->
  ?cache_extra:string list ->
  string list ->
  verdict list
(** All files, in input order, through a persistent {!Supervisor} pool of
    [jobs] workers (default 1) with [limits.deadline] as the per-unit wall
    clock (enforced externally by the supervisor, per attempt). With
    [jobs <= 1], no deadline and no [?pool] the files run in-process with
    identical settle/retry semantics and no forks at all. With [?pool] the
    caller's pool is used (and kept open), [jobs] is ignored in favor of
    the pool's width, and [limits.deadline] applies per call — this is how
    the daemon multiplexes requests over one pool. The deadline is measured
    on the monotonic {!Clock}, so a wall-clock step cannot time a unit out.

    Each file is read, verified tolerantly and rendered. Unreadable or
    broken input never raises: it is a rendered error block with code 2.
    With [~lint:true], the lint pass ({!Lint.lint_front}, over the same
    parse and extraction) also runs and its {!lint_only} findings are
    appended to the file's block
    as [file:line: severity CODE \[Class\]: message] lines; an
    error-severity lint finding raises the per-file code to at least 1.
    With linting off the output is byte-identical to what [check] has
    always printed.

    [?using] names model files whose exported environment
    ({!Model_io.env_of_files}) augments verification; workers rebuild and
    memoize it by path + content digest, so a long-lived worker notices
    edits between requests. Unreadable or broken [--using] files should be
    rejected by the caller up front (the CLI exits 2); a file that breaks
    {e after} that validation degrades to an empty environment rather than
    crashing the unit.

    With [?cache], every readable file is first looked up under its
    {!check_cache_key} (computed in the orchestrator, so an entry is read
    once however many workers run); hits yield their stored verdict without
    running a worker or {!fault_hook}, misses run as usual and the
    orchestrator stores each rendered result after the pool settles — but
    only results whose {e first} attempt succeeded: timed-out and crashed
    units are never stored, and a success on the reduced-budget retry is
    not stored either (it answers a smaller-fuel question than the key
    describes). Store-on-settle is also what makes the daemon's graceful
    drain safe: finished units are persisted by the orchestrator even if a
    worker dies later. A warm rerun is byte-identical to the cold run at
    any [jobs] level. [cache_extra] carries key material only the caller
    knows — the CLI passes the digests of every [--using] model file, since
    those shape verdicts too.

    When the {!Obs} recorder is enabled, each completed unit's profile
    (captured inside the worker and marshaled back with the result) is
    merged into the parent recorder under the worker's pool lane,
    timed-out / crashed units are tallied under [checker.timeout_units] /
    [checker.crashed_units], and cache behavior appears as [cache.hits] /
    [cache.misses] / [cache.stale_evictions] / [cache.corrupt_entries] /
    [cache.bytes_read] (stable orchestrator counters) plus
    [cache.bytes_written] tallied at store time. Observability never
    touches [output]: report text stays byte-identical with it on or
    off. *)

val check_cache_key :
  ?limits:Limits.t ->
  ?warnings:bool ->
  ?explain:bool ->
  ?lint:bool ->
  ?extra:string list ->
  path:string ->
  string ->
  string
(** The content-addressed cache key of one check-mode verification unit:
    a digest over the [path] and source bytes, the budget fields of
    [limits] that check and lint read ([max_configs], [max_regex_size]; the
    wall-clock deadline is excluded — it can prevent a verdict but never
    change one), the output-shaping flags,
    {!Cache.tool_version}, {!Pipeline.semantics_version},
    {!Rules.fingerprint} (when [lint]) and any [extra] caller material.
    [path] is key material because rendered blocks embed it ("== path =="):
    equal bytes at two paths must not share an entry. Exposed so tests can
    pin the invalidation rules. *)

val lint_cache_key :
  ?limits:Limits.t ->
  ?thresholds:Lint_semantic.thresholds ->
  ?extra:string list ->
  path:string ->
  string ->
  string
(** The key of one lint-mode unit: path and source bytes, budgets,
    thresholds, {!Rules.fingerprint}, tool and semantics versions. *)

val lint_only : Lint.diagnostic -> bool
(** The findings [check --lint] appends: all but the codes plain [check]
    reports in its own words (SY001–SY007, SY010/SY011, SY020). *)

val exit_code : verdict list -> int
(** The process exit code: the maximum per-file code. 0 = every file
    verified; 1 = a verification failure; 2 = unreadable / syntax error;
    3 = a resource budget was exceeded — deterministic fuel, the wall-clock
    deadline, or a crashed worker. *)

val lint_files :
  ?jobs:int ->
  ?limits:Limits.t ->
  ?thresholds:Lint_semantic.thresholds ->
  ?pool:pool ->
  ?cache:Cache.t ->
  ?cache_extra:string list ->
  string list ->
  Lint.file_result list
(** All files through the lint engine ({!Lint.lint_path}), in input order,
    using the same {!Supervisor} worker pool, wall-clock deadline and
    reduced-budget retry as {!check_files} (including [?pool] reuse). [Lint.file_result] is
    marshal-safe by construction, so it crosses the worker pipe as-is; a
    unit that times out yields one SY090 finding, a crashed worker one
    SY091 finding, and every other file still completes. Output built from
    the results is byte-identical for any [jobs] level. Per-unit [Obs]
    profiles merge into the parent recorder exactly as for checking.
    [?cache] / [?cache_extra] behave exactly as in {!check_files}, with
    {!lint_cache_key} as the key and the whole [Lint.file_result] as the
    stored payload. Both functions are one engine: annotate each file with
    its cache fate, run the misses through the pool, store first-attempt
    successes, replay in input order. *)

val fault_injection : bool ref
(** Arms {!fault_hook} and the supervisor-level faults — this is the very
    same ref as {!Supervisor.fault_injection}. Defaults to [false], in
    which case the hooks are inert no matter what the environment says — a
    stale [SHELLEY_FAULT] variable in a user's shell must not be able to
    sabotage real runs. Set by the hidden [shelley check
    --fault-injection] flag and by the fault-isolation tests. *)

val fault_hook : string -> unit
(** Test seam for the fault-isolation contract. Only when {!fault_injection}
    is [true] {e and} the [SHELLEY_FAULT] environment variable is set to
    [KIND:SUBSTR] (comma-separated entries allowed), a checked path
    containing [SUBSTR] misbehaves before parsing: [hang] spins forever
    (exercises the deadline killer), [crash] raises SIGKILL against its own
    process (exercises crash isolation), [slow] sleeps one second and then
    proceeds normally (gives drain tests an in-flight window), [balloon]
    allocates until the worker's RLIMIT_AS cap raises [Out_of_memory]
    (exercises the memory-cap classification; bounded at ~4 GiB, so it is
    a no-op in an uncapped process). The supervisor-level kinds
    ([garbage], [wedge], [forkfail]) are documented at
    {!Supervisor.fault_injection}. Inert in normal operation; ignored
    entries are harmless. [SHELLEY_FAULT] is parsed in one place,
    {!Supervisor.faults_for}. *)
