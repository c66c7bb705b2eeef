(* The fault-isolation layer: Supervisor (prefork pool, deadlines, retry),
   Checker (parallel `shelley check` determinism), and the hardened
   Nusmv_driver classification. *)

let valve_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
|}

let bad_sector_source =
  valve_source
  ^ {|
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return []
            case ["clean"]:
                self.a.clean()
                return []
|}

let broken_source = "class Broken:\n    def m(self:\n        return []\n"

(* Async corpus: a spawned task whose interleavings violate the Log
   protocol (verification fails on a preempting schedule), and a race-free
   variant. Checking these exercises the shuffle product under -j N. *)
let racy_async_source =
  {|import asyncio

@sys
class Log:
    def __init__(self):
        self.pin = Pin(1, OUT)

    @op_initial
    def begin(self):
        self.pin.on()
        return ["begin", "end"]

    @op_final
    def end(self):
        self.pin.off()
        return ["begin"]


@sys(["log"])
class App:
    def __init__(self):
        self.log = Log()

    @op_initial_final
    async def run(self):
        asyncio.create_task(self.log.begin())
        self.log.begin()
        self.log.end()
        return []
|}

let race_free_async_source =
  {|import asyncio

@sys
class Log:
    def __init__(self):
        self.pin = Pin(1, OUT)

    @op_initial_final
    def begin(self):
        self.pin.on()
        return ["begin"]


@sys(["log"])
class App:
    def __init__(self):
        self.log = Log()

    @op_initial_final
    async def run(self):
        asyncio.create_task(self.log.begin())
        self.log.begin()
        return []
|}

(* A throwaway directory of corpus files; returns their paths. *)
let corpus_dir =
  lazy
    (let dir = Filename.temp_file "shelley_exec" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     let write name contents =
       let path = Filename.concat dir name in
       let oc = open_out_bin path in
       output_string oc contents;
       close_out oc;
       path
     in
     [
       write "ok.py" valve_source;
       write "bad.py" bad_sector_source;
       write "broken.py" broken_source;
       write "race.py" racy_async_source;
       write "race_free.py" race_free_async_source;
     ])

let suicide _ = Unix.kill (Unix.getpid ()) Sys.sigkill

(* --- Supervisor (persistent prefork pool) ---------------------------------- *)

(* A small, fast pool configuration for tests: tight heartbeats and grace
   so wedge/restart paths resolve in tenths of a second, not seconds. *)
let test_config ?jobs ?batch_size ?max_tasks_per_worker ?max_restarts () =
  Supervisor.config ?jobs ?batch_size ?max_tasks_per_worker ?max_restarts
    ~backoff_base:0.005 ~backoff_cap:0.05 ~heartbeat_interval:0.4 ~grace:0.1 ()

let with_pool ?label cfg f body =
  let pool = Supervisor.create ?label cfg f in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown pool) (fun () -> body pool)

let test_supervisor_inline_matches_pooled () =
  let tasks = List.init 23 (fun i -> i) in
  let f n = n * n in
  let unwrap = function
    | Supervisor.Done r -> r
    | Supervisor.Timed_out _ | Supervisor.Crashed _ -> Alcotest.fail "task failed"
  in
  let expected = List.map f tasks in
  with_pool (test_config ~jobs:4 ~batch_size:3 ()) f @@ fun pool ->
  let pooled = List.map unwrap (Supervisor.map pool tasks) in
  Alcotest.(check (list int)) "pooled order = input order" expected pooled;
  let st = Supervisor.stats pool in
  Alcotest.(check bool) "batching amortizes dispatches" true (st.Supervisor.batches < 23);
  Alcotest.(check bool) "all tasks ran in workers" true (st.Supervisor.tasks = 23)

let test_supervisor_pool_persists_across_maps () =
  let f n = n + 1 in
  with_pool (test_config ~jobs:2 ()) f @@ fun pool ->
  let run () =
    match Supervisor.map pool [ 1; 2; 3; 4 ] with
    | [ Supervisor.Done 2; Done 3; Done 4; Done 5 ] -> ()
    | _ -> Alcotest.fail "wrong results"
  in
  run ();
  let spawned_once = (Supervisor.stats pool).Supervisor.spawns in
  run ();
  run ();
  Alcotest.(check int) "workers reused, not respawned"
    spawned_once
    (Supervisor.stats pool).Supervisor.spawns;
  Alcotest.(check bool) "workers spawned at all" true (spawned_once > 0)

let test_supervisor_crash_mid_batch_isolated () =
  (* Task 2 kills its worker mid-batch; the remaining tasks of that batch
     are re-dispatched and still complete — only task 2 is charged. *)
  let f = function
    | 2 -> suicide 2; 0
    | n -> n * 10
  in
  with_pool (test_config ~jobs:1 ~batch_size:8 ()) f @@ fun pool ->
  match Supervisor.map pool [ 1; 2; 3; 4 ] with
  | [ Done 10; Crashed { reason; attempts = 1 }; Done 30; Done 40 ] ->
    Alcotest.(check string) "signal named" "killed by SIGKILL" reason;
    let st = Supervisor.stats pool in
    Alcotest.(check bool) "crash restarted the worker" true (st.Supervisor.restarts >= 1);
    Alcotest.(check bool) "restart entered backoff" true
      (st.Supervisor.backoff_waits >= 1)
  | outcomes -> Alcotest.failf "unexpected outcomes (%d)" (List.length outcomes)

let test_supervisor_deadline_mid_batch () =
  let f = function
    | 2 -> Unix.sleep 30; 0
    | n -> n * 10
  in
  with_pool (test_config ~jobs:1 ~batch_size:8 ()) f @@ fun pool ->
  match Supervisor.map ~deadline:0.3 pool [ 1; 2; 3 ] with
  | [ Done 10; Timed_out { seconds; attempts = 1 }; Done 30 ] ->
    Alcotest.(check (float 0.001)) "configured deadline" 0.3 seconds;
    Alcotest.(check bool) "deadline kill counted" true
      ((Supervisor.stats pool).Supervisor.kills >= 1)
  | outcomes -> Alcotest.failf "unexpected outcomes (%d)" (List.length outcomes)

let test_supervisor_success_not_retried () =
  with_pool (test_config ~jobs:2 ()) (fun n -> n * n) @@ fun pool ->
  match Supervisor.map ~retry:(fun _ -> -1) pool [ 2; 3; 4 ] with
  | [ Done 4; Done 9; Done 16 ] -> ()
  | _ -> Alcotest.fail "successful first attempts were not kept"

let test_supervisor_retry_recovers_and_attempts () =
  (* Attempt 1 (positive task) crashes; the retry transform flips the sign
     and succeeds. The settled record must say two attempts were spent, so
     the checker knows not to cache the reduced-budget result. *)
  let f n = if n > 0 then (suicide n; 0) else n * 10 in
  with_pool (test_config ~jobs:2 ()) f @@ fun pool ->
  match Supervisor.run ~retry:(fun n -> -n) pool [ 7 ] with
  | [ { Supervisor.outcome = Done (-70); attempts = 2; _ } ] -> ()
  | [ { Supervisor.outcome = Done r; attempts; _ } ] ->
    Alcotest.failf "got Done %d after %d attempts" r attempts
  | _ -> Alcotest.fail "expected the retry's Done"

let test_supervisor_poisoned_after_two_attempts () =
  let f n = if n = 2 then (suicide n; 0) else n in
  with_pool (test_config ~jobs:2 ()) f @@ fun pool ->
  match Supervisor.run ~retry:(fun n -> n) pool [ 1; 2; 3 ] with
  | [
   { Supervisor.outcome = Done 1; _ };
   { Supervisor.outcome = Crashed { attempts = 2; _ }; attempts = 2; _ };
   { Supervisor.outcome = Done 3; _ };
  ] ->
    Alcotest.(check int) "poisoned task counted" 1
      (Supervisor.stats pool).Supervisor.poisoned
  | _ -> Alcotest.fail "expected exactly the poisoned task to fail"

let test_supervisor_recycles_workers () =
  with_pool
    (test_config ~jobs:1 ~batch_size:1 ~max_tasks_per_worker:2 ())
    (fun n -> n)
  @@ fun pool ->
  let tasks = List.init 10 (fun i -> i) in
  let ok =
    List.for_all2
      (fun n o -> o = Supervisor.Done n)
      tasks (Supervisor.map pool tasks)
  in
  Alcotest.(check bool) "all completed across recycles" true ok;
  let st = Supervisor.stats pool in
  Alcotest.(check bool)
    (Printf.sprintf "recycled every 2 tasks (got %d)" st.Supervisor.recycles)
    true
    (st.Supervisor.recycles >= 4);
  Alcotest.(check bool) "recycles respawn fresh workers" true (st.Supervisor.spawns >= 5)

let test_supervisor_closed_pool_degrades_inline () =
  let pool = Supervisor.create (test_config ~jobs:2 ()) (fun n -> n * 2) in
  Supervisor.shutdown pool;
  (match Supervisor.map pool [ 1; 2; 3 ] with
  | [ Done 2; Done 4; Done 6 ] -> ()
  | _ -> Alcotest.fail "closed pool must still complete inline");
  Alcotest.(check int) "ran in-process" 3 (Supervisor.stats pool).Supervisor.inline_tasks;
  Alcotest.(check int) "no workers" 0 (Supervisor.stats pool).Supervisor.live_workers

let test_supervisor_shutdown_leaves_no_orphans () =
  let f n = n in
  let pids =
    with_pool (test_config ~jobs:3 ()) f @@ fun pool ->
    ignore (Supervisor.map pool [ 1; 2; 3; 4; 5; 6 ]);
    let pids = Supervisor.worker_pids pool in
    Alcotest.(check bool) "workers were live" true (pids <> []);
    pids
  in
  (* After shutdown every worker is reaped: kill 0 probes must fail. *)
  List.iter
    (fun pid ->
      match Unix.kill pid 0 with
      | () -> Alcotest.failf "worker %d survived shutdown" pid
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
      | exception _ -> ())
    pids

let test_supervisor_spawns_on_demand () =
  (* A run forks only the workers its tasks can use: one task on a 4-wide
     pool forks one worker; three more reuse the idle one and fork two. *)
  with_pool (test_config ~jobs:4 ()) (fun n -> n) @@ fun pool ->
  let spawns () = (Supervisor.stats pool).Supervisor.spawns in
  ignore (Supervisor.map pool [ 1 ]);
  Alcotest.(check int) "one task, one spawn" 1 (spawns ());
  ignore (Supervisor.map pool [ 1; 2; 3 ]);
  Alcotest.(check int) "idle lane reused, two more forked" 3 (spawns ())

let test_supervisor_shutdown_despite_held_pipe () =
  (* The task forks a grandchild that inherits the worker's result pipe and
     outlives the worker, so that pipe never reaches EOF. Shutdown must
     still notice the worker's exit well inside [grace] and reap it. *)
  let grace = 0.5 in
  let f _ =
    match Unix.fork () with
    | 0 ->
      Unix.sleepf 3.0;
      Unix._exit 0
    | pid -> pid
  in
  let pool = Supervisor.create (Supervisor.config ~jobs:1 ~grace ()) f in
  let grandchild =
    match Supervisor.map pool [ 0 ] with
    | [ Supervisor.Done pid ] -> pid
    | _ ->
      Supervisor.shutdown pool;
      Alcotest.fail "task failed"
  in
  let workers = Supervisor.worker_pids pool in
  let t0 = Unix.gettimeofday () in
  Supervisor.shutdown pool;
  let took = Unix.gettimeofday () -. t0 in
  (try Unix.kill grandchild Sys.sigkill with Unix.Unix_error _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "shutdown took %.3f s, under grace %.1f s" took grace)
    true (took < grace);
  Alcotest.(check int) "one worker was live" 1 (List.length workers);
  List.iter
    (fun pid ->
      match Unix.kill pid 0 with
      | () -> Alcotest.failf "worker %d survived shutdown" pid
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "kill %d 0: %s, expected ESRCH" pid (Unix.error_message e))
    workers

let test_supervisor_stats_match_obs () =
  (* One recorded run: task 1 crashes and its retry succeeds, task 2 is
     killed at its deadline on both attempts (so it is poisoned), and
     workers recycle every two tasks. Each stats field and its pool.*
     counter are fed by the same ledger call, so they must agree. *)
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let f n =
    if n = 1 then (suicide n; 0) else if n = 2 then (Unix.sleep 30; 0) else abs n
  in
  with_pool (test_config ~jobs:1 ~batch_size:1 ~max_tasks_per_worker:2 ()) f
  @@ fun pool ->
  let retry n = if n = 1 then -1 else n in
  (match Supervisor.map ~retry ~deadline:0.3 pool [ 1; 2; 3; 4; 5; 6 ] with
  | [ Done 1; Timed_out { attempts = 2; _ }; Done 3; Done 4; Done 5; Done 6 ] -> ()
  | outcomes -> Alcotest.failf "unexpected outcomes (%d)" (List.length outcomes));
  let st = Supervisor.stats pool in
  let counter key =
    Option.value ~default:0 (List.assoc_opt ("pool." ^ key) (Obs.counters ()))
  in
  List.iter
    (fun (key, v) ->
      Alcotest.(check int)
        (Printf.sprintf "stats.%s = %d, pool.%s = %d" key v key (counter key))
        v (counter key))
    Supervisor.
      [
        ("spawns", st.spawns);
        ("restarts", st.restarts);
        ("recycles", st.recycles);
        ("backoff_waits", st.backoff_waits);
        ("heartbeat_misses", st.heartbeat_misses);
        ("kills", st.kills);
        ("poisoned", st.poisoned);
        ("fork_failures", st.fork_failures);
        ("batches", st.batches);
        ("tasks", st.tasks);
        ("inline_tasks", st.inline_tasks);
      ];
  (* The run really exercised every event the comment names. *)
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s happened (got %d)" what n) true (n > 0))
    Supervisor.
      [
        ("restart", st.restarts);
        ("deadline kill", st.kills);
        ("poisoning", st.poisoned);
        ("recycle", st.recycles);
      ];
  Alcotest.(check int) "retry counted" 2 (counter "retries")

(* --- Task outcomes (the "runner" group) ------------------------------------ *)

(* How a single task settles through Supervisor.map, whichever path runs
   it: a pool worker or the in-process fallback of a closed pool. *)

let test_runner_inline_matches_forked () =
  let tasks = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let f n = n * n in
  let unwrap = function
    | Supervisor.Done r -> r
    | Supervisor.Timed_out _ | Supervisor.Crashed _ -> Alcotest.fail "task failed"
  in
  let closed = Supervisor.create (test_config ~jobs:4 ()) f in
  Supervisor.shutdown closed;
  let inline = List.map unwrap (Supervisor.map closed tasks) in
  let forked =
    with_pool (test_config ~jobs:4 ()) f @@ fun pool ->
    List.map unwrap (Supervisor.map ~deadline:30.0 pool tasks)
  in
  Alcotest.(check (list int)) "forked order = input order" inline forked;
  Alcotest.(check (list int)) "values" [ 1; 4; 9; 16; 25; 36; 49 ] inline

let test_runner_timeout () =
  with_pool (test_config ~jobs:2 ()) (fun _ -> Unix.sleep 30) @@ fun pool ->
  match Supervisor.map ~deadline:0.3 pool [ () ] with
  | [ Timed_out { seconds; attempts } ] ->
    Alcotest.(check (float 0.001)) "configured deadline" 0.3 seconds;
    Alcotest.(check int) "single attempt without retry" 1 attempts
  | _ -> Alcotest.fail "expected Timed_out"

let test_runner_timeout_retry_attempts () =
  with_pool (test_config ~jobs:2 ()) (fun _ -> Unix.sleep 30) @@ fun pool ->
  match Supervisor.map ~retry:Fun.id ~deadline:0.2 pool [ () ] with
  | [ Timed_out { attempts; _ } ] -> Alcotest.(check int) "both attempts burned" 2 attempts
  | _ -> Alcotest.fail "expected Timed_out"

let test_runner_crash () =
  with_pool (test_config ~jobs:2 ()) suicide @@ fun pool ->
  match Supervisor.map pool [ () ] with
  | [ Crashed { reason; attempts } ] ->
    Alcotest.(check string) "signal named" "killed by SIGKILL" reason;
    Alcotest.(check int) "single attempt" 1 attempts
  | _ -> Alcotest.fail "expected Crashed"

let test_runner_exception_contained () =
  let f _ = failwith "boom" in
  let expect_boom path = function
    | [ Supervisor.Crashed { reason; _ } ] ->
      Alcotest.(check bool) (path ^ ": exception text preserved") true
        (Testutil.contains reason "boom")
    | _ -> Alcotest.failf "%s: expected Crashed" path
  in
  with_pool (test_config ~jobs:2 ()) f (fun pool ->
      expect_boom "pooled" (Supervisor.map pool [ () ]));
  let closed = Supervisor.create (test_config ~jobs:2 ()) f in
  Supervisor.shutdown closed;
  expect_boom "inline" (Supervisor.map closed [ () ])

let test_runner_retry_recovers () =
  (* Task 41 kills its worker; the retried task 42 completes. *)
  let f n = if n = 41 then (suicide n; 0) else n in
  with_pool (test_config ~jobs:2 ()) f @@ fun pool ->
  match Supervisor.map ~retry:(fun n -> n + 1) ~deadline:10.0 pool [ 41 ] with
  | [ Done 42 ] -> ()
  | _ -> Alcotest.fail "expected the retry's Done 42"

let test_runner_success_not_retried () =
  with_pool (test_config ~jobs:2 ()) (fun n -> n * n) @@ fun pool ->
  match Supervisor.map ~retry:(fun _ -> -1) pool [ 2; 3; 4 ] with
  | [ Done 4; Done 9; Done 16 ] -> ()
  | _ -> Alcotest.fail "successful first attempts were not kept"

let test_runner_success_not_retried_with_deadline () =
  (* The deadline path the checker takes when --timeout is set: the retry
     returns a sentinel that would overwrite the real result if it ran. *)
  with_pool (test_config ~jobs:2 ()) (fun n -> n + 1) @@ fun pool ->
  match Supervisor.map ~retry:(fun _ -> -1) ~deadline:10.0 pool [ 1 ] with
  | [ Done 2 ] -> ()
  | _ -> Alcotest.fail "successful first attempt was retried"

let test_runner_isolation () =
  (* One hang and one crash in the middle of the batch: every other task
     still completes, and outcomes stay in input order. *)
  let f = function
    | 2 -> Unix.sleep 30; 0
    | 3 -> suicide 3; 0
    | n -> n * 10
  in
  with_pool (test_config ~jobs:4 ()) f @@ fun pool ->
  match Supervisor.map ~deadline:0.5 pool [ 1; 2; 3; 4 ] with
  | [ Done 10; Timed_out _; Crashed _; Done 40 ] -> ()
  | outcomes -> Alcotest.failf "unexpected outcomes (%d)" (List.length outcomes)

let test_signal_name () =
  Alcotest.(check string) "kill" "SIGKILL" (Supervisor.signal_name Sys.sigkill);
  Alcotest.(check string) "segv" "SIGSEGV" (Supervisor.signal_name Sys.sigsegv);
  Alcotest.(check string) "unknown" "signal 12345" (Supervisor.signal_name 12345)

(* --- Checker determinism --------------------------------------------------- *)

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  let tagged = List.map (fun x -> (Random.State.bits st, x)) l in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged)

(* The contract behind `shelley check -j N`: per-file blocks and codes
   depend only on the file, and aggregation follows input order — so any
   jobs count and any input order produce the same per-path verdicts. *)
let test_checker_determinism =
  QCheck2.Test.make ~count:12 ~name:"check -j N / shuffled inputs deterministic"
    QCheck2.Gen.(pair (int_range 1 4) int)
    (fun (jobs, seed) ->
      let paths = Lazy.force corpus_dir in
      let baseline = Checker.check_files ~jobs:1 paths in
      let shuffled = shuffle seed paths in
      let got = Checker.check_files ~jobs shuffled in
      (* Outcomes arrive in input order... *)
      List.iter2
        (fun path (v : Checker.verdict) -> assert (String.equal path v.Checker.path))
        shuffled got;
      (* ...and each file's block and code are independent of order/jobs. *)
      List.for_all
        (fun (v : Checker.verdict) ->
          let b =
            List.find
              (fun (b : Checker.verdict) -> String.equal b.Checker.path v.Checker.path)
              baseline
          in
          String.equal b.Checker.output v.Checker.output && b.Checker.code = v.Checker.code)
        got)

let test_checker_codes () =
  let paths = Lazy.force corpus_dir in
  let verdicts = Checker.check_files ~jobs:2 paths in
  let code name =
    (List.find
       (fun (v : Checker.verdict) -> Filename.basename v.Checker.path = name)
       verdicts)
      .Checker.code
  in
  Alcotest.(check int) "ok.py verifies" 0 (code "ok.py");
  Alcotest.(check int) "bad.py fails verification" 1 (code "bad.py");
  Alcotest.(check int) "broken.py is a syntax error" 2 (code "broken.py");
  Alcotest.(check int) "race.py caught by an interleaved schedule" 1 (code "race.py");
  Alcotest.(check int) "race_free.py verifies" 0 (code "race_free.py");
  Alcotest.(check int) "aggregate = max" 2 (Checker.exit_code verdicts)

let test_checker_unreadable () =
  let v = List.hd (Checker.check_files ~jobs:1 [ "definitely/not/a/file.py" ]) in
  Alcotest.(check int) "code 2" 2 v.Checker.code;
  Alcotest.(check bool) "rendered" true
    (Testutil.contains v.Checker.output "cannot read file")

let test_checker_deadline_report () =
  (* The fault hook needs both the explicit arm switch and the env var (it
     only fires on matching paths, so scope both). The armed flag is
     inherited by the forked workers. *)
  Checker.fault_injection := true;
  Unix.putenv "SHELLEY_FAULT" "hang:ok.py";
  Fun.protect
    ~finally:(fun () ->
      Checker.fault_injection := false;
      Unix.putenv "SHELLEY_FAULT" "")
    (fun () ->
      let limits = Limits.make ~deadline:0.3 () in
      let verdicts = Checker.check_files ~jobs:2 ~limits (Lazy.force corpus_dir) in
      let hung =
        List.find
          (fun (v : Checker.verdict) -> Filename.basename v.Checker.path = "ok.py")
          verdicts
      in
      Alcotest.(check int) "deadline maps to 3" 3 hung.Checker.code;
      Alcotest.(check bool) "structured block" true
        (Testutil.contains hung.Checker.output "WALL-CLOCK DEADLINE EXCEEDED");
      (* The other files were unaffected. *)
      Alcotest.(check int) "bad.py still checked" 1
        (List.find
           (fun (v : Checker.verdict) -> Filename.basename v.Checker.path = "bad.py")
           verdicts)
          .Checker.code)

let test_checker_fault_hook_inert_unless_armed () =
  (* A stale SHELLEY_FAULT in the environment must be ignored when the
     in-process arm switch is off: ok.py verifies normally instead of
     hanging into its deadline. *)
  Unix.putenv "SHELLEY_FAULT" "hang:ok.py";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SHELLEY_FAULT" "")
    (fun () ->
      let limits = Limits.make ~deadline:10.0 () in
      let verdicts = Checker.check_files ~jobs:2 ~limits (Lazy.force corpus_dir) in
      let ok =
        List.find
          (fun (v : Checker.verdict) -> Filename.basename v.Checker.path = "ok.py")
          verdicts
      in
      Alcotest.(check int) "ok.py verified, not hung" 0 ok.Checker.code)

(* --- Nusmv_driver classification ------------------------------------------- *)

let verdict_label = function
  | Nusmv_driver.Verified _ -> "verified"
  | Nusmv_driver.Counterexample _ -> "counterexample"
  | Nusmv_driver.Rejected_input _ -> "rejected"
  | Nusmv_driver.Tool_missing _ -> "missing"
  | Nusmv_driver.Tool_timeout _ -> "timeout"
  | Nusmv_driver.Tool_failed _ -> "failed"

let classify ?(status = Unix.WEXITED 0) ?(stdout = "") ?(stderr = "") () =
  verdict_label (Nusmv_driver.classify_output ~status ~stdout ~stderr)

let test_driver_classification () =
  Alcotest.(check string) "all true" "verified"
    (classify
       ~stdout:
         "-- specification ((F event = e_end) & x) -> y  is true\n\
          -- specification G z  is true\n"
       ());
  Alcotest.(check string) "one false" "counterexample"
    (classify
       ~stdout:
         "-- specification a is true\n\
          -- specification b is false\n\
          Trace Description: LTL Counterexample\n"
       ());
  Alcotest.(check string) "parser trouble" "rejected"
    (classify ~status:(Unix.WEXITED 1) ~stderr:"file.smv: syntax error at line 3" ());
  Alcotest.(check string) "plain failure" "failed"
    (classify ~status:(Unix.WEXITED 2) ~stderr:"out of memory" ());
  Alcotest.(check string) "NuSMV undefined identifier" "rejected"
    (classify ~status:(Unix.WEXITED 1)
       ~stderr:"file.smv:7:12: undefined identifier \"e_open\"" ());
  (* Not every "undefined" is NuSMV's: a dynamic-linker failure mentioning
     "undefined symbol" is a tool failure, not a rejected model. *)
  Alcotest.(check string) "linker undefined symbol" "failed"
    (classify ~status:(Unix.WEXITED 1)
       ~stderr:"NuSMV: symbol lookup error: libfoo.so: undefined symbol: f" ());
  Alcotest.(check string) "signal" "failed"
    (classify ~status:(Unix.WSIGNALED Sys.sigsegv) ());
  match Nusmv_driver.classify_output ~status:(Unix.WEXITED 0)
          ~stdout:"-- specification p is true\n-- specification q is true\n" ~stderr:""
  with
  | Nusmv_driver.Verified { specs } -> Alcotest.(check int) "spec count" 2 specs
  | _ -> Alcotest.fail "expected Verified"

let test_driver_missing_binary () =
  (match Nusmv_driver.find_binary ~binary:"shelley-no-such-checker" () with
  | Error [ "shelley-no-such-checker" ] -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Error with the searched name");
  let r = Nusmv_driver.run_text ~binary:"shelley-no-such-checker" "MODULE main\n" in
  (match r.Nusmv_driver.verdict with
  | Nusmv_driver.Tool_missing { searched } ->
    Alcotest.(check (list string)) "searched names" [ "shelley-no-such-checker" ] searched
  | v -> Alcotest.failf "expected Tool_missing, got %s" (verdict_label v));
  Alcotest.(check int) "classified nonzero exit" 3
    (Nusmv_driver.exit_code r.Nusmv_driver.verdict)

let test_driver_fake_binary () =
  (* A stub NuSMV exercises the real spawn/drain/kill path hermetically. *)
  let dir = Filename.temp_file "shelley_fakebin" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let script name body =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc ("#!/bin/sh\n" ^ body);
    close_out oc;
    Unix.chmod path 0o755;
    path
  in
  let truthy = script "nusmv-true" "echo '-- specification p  is true'\nexit 0\n" in
  let falsy = script "nusmv-false" "echo '-- specification p  is false'\nexit 0\n" in
  let sleepy = script "nusmv-sleep" "sleep 30\n" in
  (match (Nusmv_driver.run_text ~binary:truthy "MODULE main\n").Nusmv_driver.verdict with
  | Nusmv_driver.Verified { specs = 1 } -> ()
  | v -> Alcotest.failf "expected Verified, got %s" (verdict_label v));
  (match (Nusmv_driver.run_text ~binary:falsy "MODULE main\n").Nusmv_driver.verdict with
  | Nusmv_driver.Counterexample { failed = [ line ] } ->
    Alcotest.(check bool) "spec line kept" true (Testutil.contains line "is false")
  | v -> Alcotest.failf "expected Counterexample, got %s" (verdict_label v));
  match
    (Nusmv_driver.run_text ~binary:sleepy ~timeout:0.3 "MODULE main\n").Nusmv_driver.verdict
  with
  | Nusmv_driver.Tool_timeout { seconds } ->
    Alcotest.(check (float 0.001)) "deadline recorded" 0.3 seconds
  | v -> Alcotest.failf "expected Tool_timeout, got %s" (verdict_label v)

let () =
  Alcotest.run "exec"
    [
      ( "runner",
        [
          Alcotest.test_case "inline = forked, input order" `Quick
            test_runner_inline_matches_forked;
          Alcotest.test_case "deadline kills a hung worker" `Quick test_runner_timeout;
          Alcotest.test_case "retry attempts counted" `Quick
            test_runner_timeout_retry_attempts;
          Alcotest.test_case "crash classified" `Quick test_runner_crash;
          Alcotest.test_case "retry recovers" `Quick test_runner_retry_recovers;
          Alcotest.test_case "success not retried" `Quick test_runner_success_not_retried;
          Alcotest.test_case "success not retried (deadline path)" `Quick
            test_runner_success_not_retried_with_deadline;
          Alcotest.test_case "exception contained" `Quick test_runner_exception_contained;
          Alcotest.test_case "faults isolated per task" `Quick test_runner_isolation;
          Alcotest.test_case "signal names" `Quick test_signal_name;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "inline = pooled, input order, batching" `Quick
            test_supervisor_inline_matches_pooled;
          Alcotest.test_case "pool persists across maps" `Quick
            test_supervisor_pool_persists_across_maps;
          Alcotest.test_case "crash mid-batch isolated" `Quick
            test_supervisor_crash_mid_batch_isolated;
          Alcotest.test_case "deadline kill mid-batch" `Quick
            test_supervisor_deadline_mid_batch;
          Alcotest.test_case "success not retried" `Quick
            test_supervisor_success_not_retried;
          Alcotest.test_case "retry recovers, attempts recorded" `Quick
            test_supervisor_retry_recovers_and_attempts;
          Alcotest.test_case "poisoned after two attempts" `Quick
            test_supervisor_poisoned_after_two_attempts;
          Alcotest.test_case "recycling by task count" `Quick
            test_supervisor_recycles_workers;
          Alcotest.test_case "closed pool degrades inline" `Quick
            test_supervisor_closed_pool_degrades_inline;
          Alcotest.test_case "shutdown leaves no orphans" `Quick
            test_supervisor_shutdown_leaves_no_orphans;
          Alcotest.test_case "spawns only what a run can use" `Quick
            test_supervisor_spawns_on_demand;
          Alcotest.test_case "shutdown despite a held result pipe" `Quick
            test_supervisor_shutdown_despite_held_pipe;
          Alcotest.test_case "stats = pool.* Obs counters" `Quick
            test_supervisor_stats_match_obs;
        ] );
      ( "checker",
        [
          QCheck_alcotest.to_alcotest test_checker_determinism;
          Alcotest.test_case "per-file exit codes" `Quick test_checker_codes;
          Alcotest.test_case "unreadable path" `Quick test_checker_unreadable;
          Alcotest.test_case "deadline yields structured report" `Quick
            test_checker_deadline_report;
          Alcotest.test_case "fault hook inert unless armed" `Quick
            test_checker_fault_hook_inert_unless_armed;
        ] );
      ( "nusmv-driver",
        [
          Alcotest.test_case "output classification" `Quick test_driver_classification;
          Alcotest.test_case "missing binary" `Quick test_driver_missing_binary;
          Alcotest.test_case "stub binary end-to-end" `Quick test_driver_fake_binary;
        ] );
    ]
