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
let test_config ?jobs ?batch_size ?max_tasks_per_worker ?max_rss_kb ?max_restarts
    ?(heartbeat_interval = 0.4) () =
  Supervisor.config ?jobs ?batch_size ?max_tasks_per_worker ?max_rss_kb ?max_restarts
    ~backoff_base:0.005 ~backoff_cap:0.05 ~heartbeat_interval ~grace:0.1 ()

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

(* The task-count ceiling applies between runs: ten tasks as five runs of
   two, so each run after the first finds its worker at the ceiling. *)
let test_supervisor_recycles_workers () =
  with_pool
    (test_config ~jobs:1 ~batch_size:1 ~max_tasks_per_worker:2 ())
    (fun n -> n)
  @@ fun pool ->
  let ok =
    List.for_all
      (fun run ->
        let tasks = [ 2 * run; (2 * run) + 1 ] in
        List.for_all2 (fun n o -> o = Supervisor.Done n) tasks (Supervisor.map pool tasks))
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "all completed across recycles" true ok;
  let st = Supervisor.stats pool in
  Alcotest.(check bool)
    (Printf.sprintf "recycled every 2 tasks (got %d)" st.Supervisor.recycles)
    true
    (st.Supervisor.recycles >= 4);
  Alcotest.(check bool) "recycles respawn fresh workers" true (st.Supervisor.spawns >= 5)

(* ...and never inside one: a 320-task run at -j 2 under the default
   128-task ceiling keeps the two workers it forked. *)
let test_supervisor_no_count_recycling_mid_run () =
  with_pool (Supervisor.config ~jobs:2 ()) (fun n -> n) @@ fun pool ->
  let tasks = List.init 320 Fun.id in
  Alcotest.(check bool) "all completed" true
    (List.for_all2 (fun n o -> o = Supervisor.Done n) tasks (Supervisor.map pool tasks));
  let st = Supervisor.stats pool in
  Alcotest.(check int) "forked exactly jobs workers" 2 st.Supervisor.spawns;
  Alcotest.(check int) "recycled none" 0 st.Supervisor.recycles

(* The RSS ceiling still recycles inside one run: a 1 kB ceiling holds no
   worker, so each is sent its first chunk, drains it and is replaced. *)
let test_supervisor_rss_ceiling_mid_run () =
  with_pool (test_config ~jobs:1 ~batch_size:1 ~max_rss_kb:1 ()) (fun n -> n * 3)
  @@ fun pool ->
  let tasks = List.init 6 Fun.id in
  Alcotest.(check bool) "all completed across recycles" true
    (List.for_all2
       (fun n o -> o = Supervisor.Done (n * 3))
       tasks (Supervisor.map pool tasks));
  let st = Supervisor.stats pool in
  Alcotest.(check bool)
    (Printf.sprintf "recycled within the run (got %d)" st.Supervisor.recycles)
    true
    (st.Supervisor.recycles >= 4);
  Alcotest.(check int) "no restarts" 0 st.Supervisor.restarts

(* A pipelined chunk reaches a worker whose head is running. With chunks of
   one, task 2 is sent while task 1 runs; that send must not restart (or
   clear) task 1's deadline clock, and the kill at the deadline re-queues
   task 2 untouched: four chunks for three tasks. *)
let test_supervisor_pipelined_keeps_deadline () =
  let f = function
    | 1 -> Unix.sleep 30; 0
    | n -> n * 10
  in
  with_pool (test_config ~jobs:1 ~batch_size:1 ()) f @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  (match Supervisor.run ~deadline:0.3 pool [ 1; 2; 3 ] with
  | [
   { Supervisor.outcome = Timed_out { seconds; attempts = 1 }; _ };
   { Supervisor.outcome = Done 20; attempts = 1; _ };
   { Supervisor.outcome = Done 30; attempts = 1; _ };
  ] ->
    Alcotest.(check (float 0.001)) "configured deadline" 0.3 seconds
  | _ -> Alcotest.fail "expected task 1 alone to time out");
  let took = Unix.gettimeofday () -. t0 in
  let st = Supervisor.stats pool in
  Alcotest.(check bool)
    (Printf.sprintf "killed at the deadline (run took %.2f s)" took)
    true (took < 0.3 +. 0.4);
  Alcotest.(check int) "one deadline kill" 1 st.Supervisor.kills;
  Alcotest.(check int) "no heartbeat misses" 0 st.Supervisor.heartbeat_misses;
  Alcotest.(check int) "the pipelined chunk was sent, then re-sent" 4 st.Supervisor.batches;
  (* The task was at fault, not the worker: its lane neither counts a
     restart nor backs off. *)
  Alcotest.(check int) "a deadline kill is no restart" 0 st.Supervisor.restarts;
  Alcotest.(check int) "a deadline kill backs nothing off" 0 st.Supervisor.backoff_waits

(* A crash charges the started head alone: the chunk pipelined behind it is
   re-queued at its own attempt number and the retry is spent on task 1
   only. Three tasks and one retry make four chunks; the pipelined chunk,
   sent again, is the fifth. *)
let test_supervisor_pipelined_crash_charges_head () =
  let f n =
    if n = 1 then begin
      Unix.sleepf 0.1;
      suicide n;
      0
    end
    else abs n * 10
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  with_pool (test_config ~jobs:1 ~batch_size:1 ()) f @@ fun pool ->
  (match Supervisor.run ~retry:(fun n -> -n) pool [ 1; 2; 3 ] with
  | [
   { Supervisor.outcome = Done 10; attempts = 2; _ };
   { Supervisor.outcome = Done 20; attempts = 1; _ };
   { Supervisor.outcome = Done 30; attempts = 1; _ };
  ] -> ()
  | _ -> Alcotest.fail "expected only task 1 to be charged");
  let retries = Option.value ~default:0 (List.assoc_opt "pool.retries" (Obs.counters ())) in
  Alcotest.(check int) "one retry, for the crashed head" 1 retries;
  Alcotest.(check int) "the pipelined chunk was sent, then re-sent" 5
    (Supervisor.stats pool).Supervisor.batches

(* A healthy worker whose chunk outlasts one heartbeat is not wedged: the
   Started it owes is due a heartbeat after its last frame, not after the
   chunk's dispatch. Eight 30 ms tasks per chunk against a 0.1 s
   heartbeat, forty runs; then chunks of one behind 0.25 s tasks, so each
   pipelined chunk waits more than a heartbeat for its worker. *)
let test_supervisor_long_chunk_not_wedged () =
  let check_runs ~batch_size ~sleep ~runs ~per_run =
    with_pool (test_config ~jobs:1 ~batch_size ~heartbeat_interval:0.1 ())
      (fun n -> Unix.sleepf sleep; n)
    @@ fun pool ->
    for _ = 1 to runs do
      let tasks = List.init per_run Fun.id in
      if Supervisor.map pool tasks <> List.map (fun n -> Supervisor.Done n) tasks then
        Alcotest.fail "a run lost a result"
    done;
    let st = Supervisor.stats pool in
    Alcotest.(check int) "no heartbeat misses" 0 st.Supervisor.heartbeat_misses;
    Alcotest.(check int) "no restarts" 0 st.Supervisor.restarts
  in
  check_runs ~batch_size:8 ~sleep:0.03 ~runs:40 ~per_run:8;
  check_runs ~batch_size:1 ~sleep:0.25 ~runs:1 ~per_run:3

(* [rss_kb] reads VmRSS in kB. Checked against statm's resident pages times
   the real page size, and by growth: touching 32 MiB must show. *)
let test_supervisor_rss_kb () =
  if Sys.file_exists "/proc/self/statm" then begin
    let page_kb =
      let ic = Unix.open_process_in "getconf PAGESIZE" in
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 4096 in
      ignore (Unix.close_process_in ic);
      n / 1024
    in
    let statm_kb () =
      let ic = open_in "/proc/self/statm" in
      let line = input_line ic in
      close_in ic;
      Scanf.sscanf line "%d %d" (fun _ resident -> resident * page_kb)
    in
    let pid = Unix.getpid () in
    let within what a b =
      Alcotest.(check bool)
        (Printf.sprintf "%s: rss_kb %d kB vs statm %d kB" what a b)
        true
        (abs (a - b) <= max 1024 (b / 10))
    in
    let a = Supervisor.rss_kb pid in
    within "at rest" a (statm_kb ());
    let ballast = Bytes.make (32 * 1024 * 1024) 'x' in
    let b = Supervisor.rss_kb pid in
    within "with 32 MiB touched" b (statm_kb ());
    Alcotest.(check bool)
      (Printf.sprintf "32 MiB shows (%d -> %d kB)" a b)
      true
      (b - a >= 24 * 1024);
    ignore (Sys.opaque_identity ballast)
  end

let test_supervisor_closed_pool_degrades_inline () =
  let pool = Supervisor.create (test_config ~jobs:2 ()) (fun n -> n * 2) in
  Supervisor.shutdown pool;
  (match Supervisor.map pool [ 1; 2; 3 ] with
  | [ Done 2; Done 4; Done 6 ] -> ()
  | _ -> Alcotest.fail "closed pool must still complete inline");
  Alcotest.(check int) "ran in-process" 3 (Supervisor.stats pool).Supervisor.inline_tasks;
  Alcotest.(check int) "no workers" 0 (Supervisor.stats pool).Supervisor.live_workers

(* A closed pool settles every task inline, its retries included: a failed
   first attempt runs its retry at once instead of being queued behind a
   drain that has already emptied the queue. *)
let test_supervisor_closed_pool_runs_retries () =
  let f n = if n = 1 then failwith "first attempt fails" else n in
  let pool = Supervisor.create (test_config ~jobs:1 ()) f in
  Supervisor.shutdown pool;
  let settled = Supervisor.run ~retry:(fun n -> n + 10) pool [ 0; 1; 2 ] in
  let show (s : int Supervisor.settled) =
    match s.Supervisor.outcome with
    | Done r -> Printf.sprintf "Done %d, attempts %d" r s.Supervisor.attempts
    | Timed_out _ -> Printf.sprintf "Timed_out, attempts %d" s.Supervisor.attempts
    | Crashed { reason; _ } ->
      Printf.sprintf "Crashed %S, attempts %d" reason s.Supervisor.attempts
  in
  Alcotest.(check (list string))
    "task 1 settles on its retry"
    [ "Done 0, attempts 1"; "Done 11, attempts 2"; "Done 2, attempts 1" ]
    (List.map show settled);
  let stats = Supervisor.stats pool in
  Alcotest.(check int) "every attempt ran in-process" 4 stats.Supervisor.inline_tasks;
  Alcotest.(check int) "none poisoned" 0 stats.Supervisor.poisoned

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

let test_supervisor_young_data_survives_fork () =
  (* A worker drops the free part of the nursery it inherits. Here the
     data the task function captures, and the pool itself, are allocated
     just before the run forks, so they are still young at the fork; each
     task then allocates several MiB, so the worker collects its minor heap
     many times over. Every result must equal the in-process one, and
     come from a worker: a pool whose workers die falls back to running
     the tasks in-process, which would hide a worker that corrupted what
     it inherited. *)
  Gc.minor ();
  let table = List.init 2000 (fun i -> (i, string_of_int (i * 7919))) in
  let tasks = List.init 6 (fun i -> (i, List.init 50 (fun j -> string_of_int (i + j)))) in
  let f (i, words) =
    let churn = ref 0 in
    for round = 1 to 40 do
      churn := !churn + List.fold_left ( + ) 0 (List.init 20_000 (fun j -> (j + round) * i))
    done;
    let looked =
      List.fold_left (fun acc (k, s) -> if k mod 6 = i then acc + String.length s else acc) 0 table
    in
    (!churn, looked, String.concat "," words)
  in
  let pooled, st =
    with_pool (test_config ~jobs:2 ()) f (fun pool ->
        let pooled = Supervisor.map pool tasks in
        (pooled, Supervisor.stats pool))
  in
  let expected = List.map (fun task -> Supervisor.Done (f task)) tasks in
  Alcotest.(check bool) "pooled results = in-process results" true (pooled = expected);
  Alcotest.(check (pair int int))
    "tasks run by workers, restarts" (List.length tasks, 0)
    (st.Supervisor.tasks, st.Supervisor.restarts)

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
  (* Three recorded runs: task 1 crashes and its retry succeeds, task 2 is
     killed at its deadline on both attempts (so it is poisoned), and the
     worker that finishes the second run is at its two-task ceiling when
     the third starts, so it is recycled. Each stats field and its pool.*
     counter are fed by the same ledger call, so they must agree. *)
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let f n =
    if n = 1 then (suicide n; 0) else if n = 2 then (Unix.sleep 30; 0) else abs n
  in
  with_pool (test_config ~jobs:1 ~batch_size:1 ~max_tasks_per_worker:2 ()) f
  @@ fun pool ->
  let retry n = if n = 1 then -1 else n in
  let run tasks = Supervisor.map ~retry ~deadline:0.3 pool tasks in
  (match (run [ 1; 2 ], run [ 3; 4 ], run [ 5; 6 ]) with
  | [ Done 1; Timed_out { attempts = 2; _ } ], [ Done 3; Done 4 ], [ Done 5; Done 6 ] -> ()
  | a, b, c -> Alcotest.failf "unexpected outcomes (%d)" (List.length (a @ b @ c)));
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
        ("first_tasks", st.first_tasks);
      ];
  (* Each worker that returned a result counted its first. The second
     and third runs each start on a fresh worker (forked after the last
     deadline kill, and after the recycle), so there are at least two; a
     first task's wall time is part of the tasks' wall time. *)
  let first_us = counter "first_task_us" and wall_us = counter "task_wall_us" in
  Alcotest.(check bool)
    (Printf.sprintf "first tasks counted (got %d)" st.first_tasks)
    true
    (st.first_tasks >= 2 && st.first_tasks <= st.spawns);
  Alcotest.(check bool)
    (Printf.sprintf "0 < first_task_us %d <= task_wall_us %d" first_us wall_us)
    true
    (0 < first_us && first_us <= wall_us);
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
          Alcotest.test_case "no count recycling inside a run" `Quick
            test_supervisor_no_count_recycling_mid_run;
          Alcotest.test_case "RSS ceiling recycles inside a run" `Quick
            test_supervisor_rss_ceiling_mid_run;
          Alcotest.test_case "pipelined chunk keeps the head's deadline" `Quick
            test_supervisor_pipelined_keeps_deadline;
          Alcotest.test_case "pipelined chunk re-queued uncharged" `Quick
            test_supervisor_pipelined_crash_charges_head;
          Alcotest.test_case "long chunk is not a wedge" `Quick
            test_supervisor_long_chunk_not_wedged;
          Alcotest.test_case "rss_kb reads VmRSS in kB" `Quick test_supervisor_rss_kb;
          Alcotest.test_case "closed pool degrades inline" `Quick
            test_supervisor_closed_pool_degrades_inline;
          Alcotest.test_case "closed pool runs its retries" `Quick
            test_supervisor_closed_pool_runs_retries;
          Alcotest.test_case "shutdown leaves no orphans" `Quick
            test_supervisor_shutdown_leaves_no_orphans;
          Alcotest.test_case "spawns only what a run can use" `Quick
            test_supervisor_spawns_on_demand;
          Alcotest.test_case "shutdown despite a held result pipe" `Quick
            test_supervisor_shutdown_despite_held_pipe;
          Alcotest.test_case "young data survives the fork" `Quick
            test_supervisor_young_data_survives_fork;
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
