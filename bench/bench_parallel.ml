(* Parallel-checking benchmark: wall-clock for [shelley check -j N] levels
   over a synthetic corpus, run through the supervised persistent prefork
   pool ({!Supervisor} via {!Checker.make_pool}) — workers forked once per
   level, jobs streamed over pipes in batches. This is what
   [shelley check -j N] and the serve daemon use.

   Emits machine-readable results to BENCH_parallel.json and a human
   summary to stdout, and asserts three contracts along the way:

   - determinism: the concatenated output of every level (with and without
     the observability recorder) must be byte-identical to the sequential
     run;
   - zero disabled overhead: a disabled [Obs.count] must cost on the
     order of a branch — the run aborts if it exceeds a generous
     per-call budget;
   - the speedup floor: in full mode on a multicore machine, pool -j 4
     must beat -j 1 by >= 1.5x. On a single-core machine the floor is
     SKIPPED loudly (parallelism cannot pay where there is nothing to
     run on) — CI provides the multicore enforcement.

   Besides wall times, each level gets one *instrumented* run whose
   counters (fork time, queue wait, task wall, batches) go into the JSON.

   Run: dune exec bench/bench_parallel.exe [--smoke] [CORPUS_SIZE] *)

let smoke = Array.exists (String.equal "--smoke") Sys.argv

let corpus_size =
  let positional =
    Array.to_list Sys.argv |> List.tl
    |> List.find_opt (fun a -> a <> "--smoke")
  in
  match positional with
  | Some n -> int_of_string n
  | None -> if smoke then 6 else 24

let repeats = if smoke then 1 else 3

(* One corpus file = the paper's two listings together: a composite class
   with a claim, so each unit exercises parsing, inference, the product
   check and the LTL checker — a realistic per-file workload. *)
let file_source = Sources.valve ^ "\n" ^ Sources.bad_sector

let write_corpus dir =
  List.init corpus_size (fun i ->
      let path = Filename.concat dir (Printf.sprintf "unit_%02d.py" i) in
      let oc = open_out_bin path in
      output_string oc file_source;
      close_out oc;
      path)

let nproc () =
  (* getconf is POSIX; fall back to 1 if unavailable. *)
  let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
  let n = try int_of_string (String.trim (input_line ic)) with _ -> 1 in
  ignore (Unix.close_process_in ic);
  max 1 n

let concat_output verdicts =
  String.concat "" (List.map (fun v -> v.Checker.output) verdicts)

let pool_run ~pool ~jobs files = Checker.check_files ~jobs ~pool files

let time engine files =
  let t0 = Unix.gettimeofday () in
  let verdicts = engine files in
  let dt = Unix.gettimeofday () -. t0 in
  (dt, concat_output verdicts, Checker.exit_code verdicts)

(* The no-op guard for the zero-overhead claim: with the recorder disabled,
   [Obs.count] is one branch on a ref. 200 ns/call is ~two orders of
   magnitude above what that costs on any machine this runs on, so a failure
   means someone made the disabled path allocate or take a lock. *)
let disabled_overhead_ns_per_call () =
  assert (not (Obs.enabled ()));
  let calls = 10_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    Obs.count "bench.noop" 1
  done;
  let dt = Unix.gettimeofday () -. t0 in
  dt *. 1e9 /. float_of_int calls

let obs_budget_ns = 200.0

(* One instrumented run per jobs level: same entry point, recorder on,
   pool counters harvested afterwards. *)
type instrumented = {
  i_fork_us : int;
  i_queue_wait_us : int;
  i_task_wall_us : int;
  i_spawns : int;
  i_batches : int;
  i_unit_total_us : int;  (* summed in-unit span time across verdicts *)
}

let instrumented_run engine files baseline_output =
  Obs.enable ~fake_clock:false ();
  let verdicts = engine files in
  if concat_output verdicts <> baseline_output then begin
    Printf.eprintf "DETERMINISM VIOLATION with observability enabled\n";
    exit 1
  end;
  let counter key = Option.value ~default:0 (List.assoc_opt key (Obs.counters ())) in
  let unit_total =
    List.fold_left
      (fun acc (v : Checker.verdict) ->
        acc
        + match v.Checker.profile with Some p -> Obs.profile_total_us p | None -> 0)
      0 verdicts
  in
  let r =
    {
      i_fork_us = counter "pool.fork_us";
      i_queue_wait_us = counter "pool.queue_wait_us";
      i_task_wall_us = counter "pool.task_wall_us";
      i_spawns = counter "pool.spawns";
      i_batches = counter "pool.batches";
      i_unit_total_us = unit_total;
    }
  in
  Obs.disable ();
  r

(* --- Measurement -------------------------------------------------------------- *)

type engine_result = {
  e_best : float;
  e_runs : float list;
  e_instr : instrumented;
}

(* [instrument] (default [engine]) is what the counter-harvesting pass runs:
   a pooled level substitutes a fresh pool created *after* [Obs.enable], so
   the workers inherit the live recorder and the cold spawn cost is on the
   books — the timed runs still measure the warm persistent pool. *)
let measure ?instrument engine files baseline_output =
  let runs =
    List.init repeats (fun _ ->
        let dt, out, code = time engine files in
        if out <> !baseline_output then begin
          if !baseline_output = "" then baseline_output := out
          else begin
            Printf.eprintf "DETERMINISM VIOLATION\n";
            exit 1
          end
        end;
        if code <> 1 then begin
          (* bad_sector's claim fails by design: every run must say so *)
          Printf.eprintf "unexpected exit code %d\n" code;
          exit 1
        end;
        dt)
  in
  let instr =
    instrumented_run (Option.value instrument ~default:engine) files !baseline_output
  in
  { e_best = List.fold_left Float.min infinity runs; e_runs = runs; e_instr = instr }

let () =
  let overhead_ns = disabled_overhead_ns_per_call () in
  if overhead_ns > obs_budget_ns then begin
    Printf.eprintf
      "FAIL: disabled Obs.count costs %.1f ns/call (budget %.0f ns) — the \
       disabled path must stay one branch\n"
      overhead_ns obs_budget_ns;
    exit 1
  end;
  Printf.printf "disabled-obs overhead: %.1f ns per Obs.count call (budget %.0f)\n"
    overhead_ns obs_budget_ns;
  let dir = Filename.temp_file "shelley_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let files = write_corpus dir in
  let cores = nproc () in
  let levels = List.sort_uniq compare [ 1; 2; 4; cores ] in
  Printf.printf
    "parallel checking: %d files x %d repeats, %d core(s) online%s\n\n"
    corpus_size repeats cores
    (if smoke then " [smoke]" else "");
  let baseline_output = ref "" in
  (* Sequential inline baseline first: it defines the bytes every other
     configuration must reproduce. *)
  let seq =
    measure (fun fs -> Checker.check_files ~jobs:1 fs) files baseline_output
  in
  Printf.printf "  sequential (inline)   best %7.1f ms\n\n" (seq.e_best *. 1000.);
  let results =
    List.map
      (fun jobs ->
        let pool = Checker.make_pool ~jobs () in
        let pooled_cold fs =
          let p = Checker.make_pool ~jobs () in
          Fun.protect
            ~finally:(fun () -> Checker.shutdown_pool p)
            (fun () -> Checker.check_files ~jobs ~pool:p fs)
        in
        let pooled =
          Fun.protect
            ~finally:(fun () -> Checker.shutdown_pool pool)
            (fun () ->
              measure ~instrument:pooled_cold (pool_run ~pool ~jobs) files
                baseline_output)
        in
        Printf.printf "  -j %-2d  pool           best %7.1f ms  (all: %s)\n" jobs
          (pooled.e_best *. 1000.)
          (String.concat ", "
             (List.map (fun t -> Printf.sprintf "%.1f ms" (t *. 1000.)) pooled.e_runs));
        Printf.printf
          "         · %d spawns, %d batches, fork %d us, queue-wait %d us, \
           task-wall %d us\n"
          pooled.e_instr.i_spawns pooled.e_instr.i_batches pooled.e_instr.i_fork_us
          pooled.e_instr.i_queue_wait_us pooled.e_instr.i_task_wall_us;
        (jobs, pooled))
      levels
  in
  Printf.printf "\n";
  List.iter
    (fun (jobs, pooled) ->
      Printf.printf "  pool speedup -j %d vs sequential: %.2fx\n" jobs
        (seq.e_best /. pooled.e_best))
    results;
  (* The -j 4 >= 1.5x floor: enforced in full mode where the hardware can
     express parallelism at all; skipped loudly on a single core. *)
  let floor_required = 1.5 in
  let floor_measured =
    List.find_map
      (fun (jobs, pooled) -> if jobs = 4 then Some (seq.e_best /. pooled.e_best) else None)
      results
  in
  let floor_enforced = (not smoke) && cores >= 2 in
  (match (floor_enforced, floor_measured) with
  | true, Some speedup when speedup < floor_required ->
    Printf.eprintf
      "FAIL: pool -j 4 speedup %.2fx is under the %.1fx floor on a %d-core \
       machine\n"
      speedup floor_required cores;
    exit 1
  | true, Some speedup ->
    Printf.printf "\nfloor: pool -j 4 speedup %.2fx >= %.1fx — OK\n" speedup floor_required
  | true, None ->
    Printf.eprintf "FAIL: no -j 4 level was measured, cannot enforce the floor\n";
    exit 1
  | false, _ ->
    Printf.printf
      "\nfloor: SKIPPED (%s) — the %.1fx -j 4 floor is only meaningful in full \
       mode on >= 2 cores; CI's multicore runners enforce it\n"
      (if smoke then "smoke mode" else Printf.sprintf "%d core online" cores)
      floor_required);
  let json =
    let engine_json (e : engine_result) =
      let per_file total = if corpus_size = 0 then 0 else total / corpus_size in
      Printf.sprintf
        "{\"best_seconds\": %.6f, \"all_seconds\": [%s], \
         \"speedup_vs_sequential\": %.3f, \"spawns\": %d, \"batches\": %d, \
         \"fork_us_total\": %d, \"fork_us_per_file\": %d, \"queue_wait_us_total\": %d, \
         \"queue_wait_us_per_file\": %d, \"task_wall_us_total\": %d, \
         \"unit_total_us\": %d}"
        e.e_best
        (String.concat ", " (List.map (Printf.sprintf "%.6f") e.e_runs))
        (seq.e_best /. e.e_best) e.e_instr.i_spawns e.e_instr.i_batches
        e.e_instr.i_fork_us
        (per_file e.e_instr.i_fork_us)
        e.e_instr.i_queue_wait_us
        (per_file e.e_instr.i_queue_wait_us)
        e.e_instr.i_task_wall_us e.e_instr.i_unit_total_us
    in
    let run_json (jobs, pooled) =
      Printf.sprintf "    {\"jobs\": %d,\n     \"pool\": %s}" jobs (engine_json pooled)
    in
    Printf.sprintf
      "{\n  \"benchmark\": \"parallel_checking\",\n  \"corpus_files\": %d,\n\
      \  \"repeats\": %d,\n  \"cores_online\": %d,\n\
      \  \"disabled_obs_ns_per_call\": %.1f,\n\
      \  \"output_byte_identical_across_levels\": true,\n\
      \  \"sequential_best_seconds\": %.6f,\n\
      \  \"speedup_floor\": {\"required\": %.1f, \"jobs\": 4, \"enforced\": %b, \
       \"measured\": %s},\n\
      \  \"results\": [\n%s\n  ]\n}\n"
      corpus_size repeats cores overhead_ns seq.e_best floor_required floor_enforced
      (match floor_measured with
      | Some s -> Printf.sprintf "%.3f" s
      | None -> "null")
      (String.concat ",\n" (List.map run_json results))
  in
  let oc = open_out_bin "BENCH_parallel.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote BENCH_parallel.json; output byte-identical across all levels\n";
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files;
  try Unix.rmdir dir with Unix.Unix_error _ -> ()
