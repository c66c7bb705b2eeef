(* What every workload shares: the work directory, the metric catalog and
   the result line. *)

let work_dir = ".perfbench"

(* Set-up is repeated and its median reported, so one slow start does not
   decide [setup_s]. *)
let setup_repeats = 5

type result = {
  attempted : int;
  failed : int;
  rows : string list;  (** human-readable lines printed before the result *)
  metrics : (string * float) list;
}

let report ~attempted ~failed ~rows metrics = { attempted; failed; rows; metrics }

let end_to_end =
  [
    ("setup_s", "s");
    ("units_per_s", "1/s");
    ("cpu_ms_per_unit", "ms");
    ("peak_rss_mb", "MiB");
    ("latency_p50_ms", "ms");
    ("sustained_rps", "1/s");
  ]

(* Printed for people but not in the result line: on a shared two-core
   host the served tail moves from run to run by more than any bound a
   regression gate could use (see README.md). *)
let untracked = [ ("latency_p90_ms", "ms"); ("latency_p99_ms", "ms") ]

let rule_codes = List.map (fun ((r : Rules.t), _) -> r.Rules.code) Lint_semantic.rules

let per_layer =
  [
    ("micropython.parse_ms", "ms");
    ("micropython.parse_mb_per_s", "MiB/s");
    ("core.extract_ms", "ms");
    ("core.validate_ms", "ms");
    ("core.usage_ms", "ms");
    ("core.claims_ms", "ms");
    ("core.other_ms", "ms");
    ("automata.expand_ms", "ms");
    ("automata.usage_nfa_states", "count");
    ("automata.shuffle_configs", "count");
    ("automata.language_configs", "count");
    ("automata.determinize_states", "count");
    ("ltl.progression_obligations", "count");
    ("ltl.tableau_states", "count");
    ("ltl.entail_states", "count");
    ("ltl.entail_memo_hits", "count");
    ("ltl.entail_memo_hit_ratio", "ratio");
    ("ltl.entail_budget_exhausted", "count");
    ("lint.source_ms", "ms");
    ("lint.claim_analysis_ms", "ms");
  ]
  @ List.map (fun code -> ("lint.rule_ms." ^ code, "ms")) rule_codes
  @ [
      ("exec.pool.spawn_ms", "ms");
      ("exec.pool.tasks", "count");
      ("exec.pool.tasks_per_batch", "count");
      ("exec.pool.task_wall_ms", "ms");
      ("exec.pool.queue_wait_ms", "ms");
      ("exec.pool.queue_wait_per_lane_wall", "ratio");
      ("exec.pool.unit_ms", "ms");
      ("exec.pool.dispatch_us_per_task", "us");
      ("exec.pool.overhead_us_per_task", "us");
      ("exec.pool.parallel_efficiency", "ratio");
      ("exec.pool.restarts", "count");
      ("exec.pool.retries", "count");
      ("cache.hit_ratio", "ratio");
      ("cache.lookup_us", "us");
      ("cache.store_us", "us");
      ("cache.bytes_read_per_hit", "bytes");
      ("cache.corrupt_entries", "count");
      ("serve.queue_ms.p50", "ms");
      ("serve.queue_ms.p99", "ms");
      ("serve.exec_ms.p50", "ms");
      ("serve.exec_ms.p99", "ms");
      ("serve.transport_ms.p50", "ms");
      ("serve.transport_ms.p99", "ms");
      ("serve.shed", "count");
      ("serve.expired", "count");
      ("serve.worker_restarts", "count");
      ("serve.backlog_max", "count");
      ("harness.generator_lag_ms.p99", "ms");
      ("harness.error_rate", "ratio");
      ("trace.unaccounted_ms", "ms");
      ("trace.overhead_pct", "%");
    ]

let counter counters key = float_of_int (Option.value (List.assoc_opt key counters) ~default:0)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The pool's own counters from one run with the recorder on. [wall_ms] is
   the run's wall time and [unit_us] the summed unit profiles: busy time
   the workers spent verifying. Whatever task wall time the units do not
   cover is dispatch; but the pool starts a task's clock only when the
   worker acknowledges it, so sending the job is not in it. The lanes'
   whole capacity (wall x jobs) minus the units is the pool's full cost
   per task: spawn, dispatch, idle lanes and shutdown. *)
let pool_metrics ~jobs ~wall_ms ~counters ~unit_us =
  let c = counter counters in
  let tasks = c "pool.tasks" in
  let task_wall_ms = c "pool.task_wall_us" /. 1000. in
  let unit_ms = float_of_int unit_us /. 1000. in
  let capacity_ms = wall_ms *. float_of_int jobs in
  [
    ("exec.pool.spawn_ms", c "pool.fork_us" /. 1000.);
    ("exec.pool.tasks", tasks);
    ("exec.pool.tasks_per_batch", ratio (c "pool.batch_tasks") (c "pool.batches"));
    ("exec.pool.task_wall_ms", task_wall_ms);
    ("exec.pool.queue_wait_ms", c "pool.queue_wait_us" /. 1000.);
    ("exec.pool.queue_wait_per_lane_wall", ratio (c "pool.queue_wait_us" /. 1000.) capacity_ms);
    ("exec.pool.unit_ms", unit_ms);
    ("exec.pool.dispatch_us_per_task", ratio ((task_wall_ms -. unit_ms) *. 1000.) tasks);
    ("exec.pool.overhead_us_per_task", ratio ((capacity_ms -. unit_ms) *. 1000.) tasks);
    ("exec.pool.parallel_efficiency", ratio unit_ms capacity_ms);
    ("exec.pool.restarts", c "pool.restarts");
    ("exec.pool.retries", c "pool.retries");
  ]

(* Per key, the median over several runs' metrics. *)
let median_metrics runs =
  match runs with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (name, _) -> (name, Probe.median (List.filter_map (List.assoc_opt name) runs)))
      first

(* [queue_wait] sums every task's wait from enqueue to start, so tasks that
   wait side by side add up: it may exceed the lanes' capacity (wall x
   jobs). That is reported, never folded away. *)
let queue_wait_flag metrics =
  match List.assoc_opt "exec.pool.queue_wait_per_lane_wall" metrics with
  | Some r when r > 1.0 ->
    [
      Printf.sprintf
        "FLAGGED exec.pool.queue_wait_ms = %.1f ms is %.2fx wall x jobs: it sums \
         concurrent waits in the pending queue, not idle lane time"
        (List.assoc "exec.pool.queue_wait_ms" metrics)
        r;
    ]
  | _ -> []

(* The untraced replay, the baseline of [trace.overhead_pct]: the faster
   of two, so the first pass's cold start is not charged to tracing. *)
let untraced_ms replay =
  let once () =
    let t0 = Probe.now () in
    replay ();
    Probe.ms_since t0
  in
  let first = once () in
  Float.min first (once ())

(* Per-layer numbers from a traced replay: self times by span name, the
   library's own [Obs] counters, and the tracing overhead against an
   untraced replay of the same units. *)
let replay_metrics ~replay_ms ~plain_ms ~self ~counters ~bytes =
  let self_of name = Option.value (List.assoc_opt name self) ~default:0.0 in
  let c = counter counters in
  let harness = [ "replay"; "unit" ] in
  let accounted =
    List.fold_left
      (fun acc (name, ms) -> if List.mem name harness then acc else acc +. ms)
      0.0 self
  in
  let parse_ms = self_of "micropython.parse" in
  let hits = c "entail.memo_hits" and states = c "entail.states" in
  [
    ("micropython.parse_ms", parse_ms);
    ("micropython.parse_mb_per_s", ratio (float_of_int bytes /. 1048576.) (parse_ms /. 1000.));
    ("core.extract_ms", self_of "core.extract");
    ("core.validate_ms", self_of "core.validate");
    ("core.usage_ms", self_of "core.usage");
    ("core.claims_ms", self_of "core.claims");
    ("core.other_ms", self_of "core.other");
    ("automata.expand_ms", self_of "automata.expand");
    ("automata.usage_nfa_states", c "usage.nfa_states");
    ("automata.shuffle_configs", c "shuffle.configs");
    ("automata.language_configs", c "language.configs");
    ("automata.determinize_states", c "determinize.states");
    ("ltl.progression_obligations", c "progression.obligations");
    ("ltl.tableau_states", c "tableau.states");
    ("ltl.entail_states", states);
    ("ltl.entail_memo_hits", hits);
    ("ltl.entail_memo_hit_ratio", ratio hits (hits +. states));
    ("ltl.entail_budget_exhausted", c "entail.budget_exhausted");
    ("lint.source_ms", self_of "lint.source");
    ("lint.claim_analysis_ms", self_of "lint.claim_analysis");
  ]
  @ List.map (fun code -> ("lint.rule_ms." ^ code, self_of ("lint.rule." ^ code))) rule_codes
  @ [
      ("trace.unaccounted_ms", replay_ms -. accounted);
      ("trace.overhead_pct", 100. *. ratio (replay_ms -. plain_ms) plain_ms);
    ]

(* --- Output ------------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print ~catalog (r : result) =
  List.iter print_endline r.rows;
  let error_rate = ratio (float_of_int r.failed) (float_of_int r.attempted) in
  let value name =
    if name = "harness.error_rate" then error_rate
    else Option.value (List.assoc_opt name r.metrics) ~default:0.0
  in
  List.iter
    (fun (name, unit) -> Printf.printf "  %-36s %14.4f %s\n" name (value name) unit)
    catalog;
  List.iter
    (fun (name, unit) ->
      Option.iter
        (fun v -> Printf.printf "  %-36s %14.4f %s (not tracked)\n" name v unit)
        (List.assoc_opt name r.metrics))
    untracked;
  Printf.printf "  %-36s %14.6f (%d failed of %d attempted)\n" "error_rate" error_rate r.failed
    r.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (value name))
              unit)
          catalog))
