(* The one-shot workloads: [check_corpus] ([shelley check -j N] over a few
   hundred small project files) and [lint_heavy] ([shelley lint -j N] over a
   few dozen heavy ones). Each timed run pays what a CLI user pays: pool
   start, every unit, rendering, pool shutdown. No result cache. *)

type mode =
  | Check
  | Lint

type corpus = {
  files : Gen.file list;
  paths : string list;
  reference : string list;  (** per-file output of the in-process -j 1 run *)
  wrong : int;  (** files whose -j 1 answer differs from the generator's *)
}

let name = function
  | Check -> "check_corpus"
  | Lint -> "lint_heavy"

let dir_of mode = Filename.concat Run.work_dir (name mode)

let generate mode ~seed =
  let dir = dir_of mode in
  Probe.fresh_dir dir;
  let files =
    match mode with
    | Check -> Gen.corpus ~seed ~salt:1 ~count:320 ~dir (Gen.project_file ~concurrency:true)
    | Lint -> Gen.corpus ~seed ~salt:2 ~count:24 ~dir Gen.heavy_file
  in
  List.iter Gen.write files;
  files

let lint_text (r : Lint.file_result) = Lint_render.text [ r ]

(* Per-file output and whether it is the generator's answer. *)
let answers mode files ~check_results ~lint_results =
  let judge (f : Gen.file) ok ~got =
    if not ok then Printf.eprintf "WRONG %s: expected %s, got %s\n%!" f.Gen.name
        (match mode with Check -> string_of_int f.Gen.code | Lint -> String.concat "," f.Gen.lint_codes)
        got;
    ok
  in
  match mode with
  | Check ->
    List.map2
      (fun (f : Gen.file) (v : Checker.verdict) ->
        (v.Checker.output, judge f (v.Checker.code = f.Gen.code) ~got:(string_of_int v.Checker.code)))
      files (check_results ())
  | Lint ->
    List.map2
      (fun (f : Gen.file) r ->
        let codes = Layers.codes r in
        (lint_text r, judge f (codes = f.Gen.lint_codes) ~got:(String.concat "," codes)))
      files (lint_results ())

let setup mode ~seed =
  let files = generate mode ~seed in
  let paths = List.map (fun (f : Gen.file) -> f.Gen.name) files in
  let per_file =
    answers mode files
      ~check_results:(fun () -> Checker.check_files ~jobs:1 paths)
      ~lint_results:(fun () -> Checker.lint_files ~jobs:1 paths)
  in
  {
    files;
    paths;
    reference = List.map fst per_file;
    wrong = List.length (List.filter (fun (_, ok) -> not ok) per_file);
  }

(* One timed one-shot run through a fresh pool; returns the wall time and
   the per-file answers, checked outside the timed region. *)
let one_shot mode c ~jobs ~on_workers =
  let t0 = Probe.now () in
  let pool = Checker.make_pool ~jobs () in
  let out = Buffer.create 65536 in
  let check_results = ref [] and lint_results = ref [] in
  (match mode with
  | Check ->
    let vs = Checker.check_files ~pool c.paths in
    List.iter (fun (v : Checker.verdict) -> Buffer.add_string out v.Checker.output) vs;
    check_results := vs
  | Lint ->
    let rs = Checker.lint_files ~pool c.paths in
    Buffer.add_string out (Lint_render.text rs);
    lint_results := rs);
  on_workers (Checker.pool_worker_pids pool);
  Checker.shutdown_pool pool;
  let wall_ms = Probe.ms_since t0 in
  let per_file =
    answers mode c.files ~check_results:(fun () -> !check_results)
      ~lint_results:(fun () -> !lint_results)
  in
  let failed =
    List.fold_left2
      (fun acc (out, ok) reference -> if ok && String.equal out reference then acc else acc + 1)
      0 per_file c.reference
  in
  (wall_ms, failed)

(* The same corpus cut down to its [i]th file. *)
let single c i =
  let nth l = [ List.nth l i ] in
  { files = nth c.files; paths = nth c.paths; reference = nth c.reference; wrong = 0 }

(* Half the time goes to one-shot runs over the whole project (throughput,
   CPU, runs per second); the other half to one-shot runs over one file at
   a time, cycling through the project: the wait of a developer checking
   the file they just edited, and the latency percentiles. The heaviest
   files recur in every cycle, so the tail is measured many times over. *)
let measure mode ~seed ~seconds ~jobs =
  let setups = List.init Run.setup_repeats (fun _ ->
      let t0 = Probe.now () in
      let c = setup mode ~seed in
      (c, Probe.ms_since t0 /. 1000.))
  in
  let c = fst (List.hd (List.rev setups)) in
  let n = List.length c.paths in
  let peak = ref (Probe.peak_rss_mb Probe.self_pid) in
  let on_workers pids = List.iter (fun p -> peak := Float.max !peak (Probe.peak_rss_mb p)) pids in
  let failed = ref 0 in
  let loop ~min_runs ~seconds run =
    let t0 = Probe.now () in
    let walls = ref [] and runs = ref 0 in
    while !runs < min_runs || Probe.now () -. t0 < seconds do
      let wall, f = run !runs in
      walls := wall :: !walls;
      failed := !failed + f;
      incr runs
    done;
    (!walls, Probe.now () -. t0)
  in
  let cpu0 = Probe.cpu_ms Probe.self_pid in
  let walls, elapsed =
    loop ~min_runs:3 ~seconds:(seconds /. 2.) (fun _ -> one_shot mode c ~jobs ~on_workers)
  in
  let cpu = Probe.cpu_ms Probe.self_pid -. cpu0 in
  let singles = Array.init n (single c) in
  let latencies, _ =
    loop ~min_runs:n ~seconds:(seconds /. 2.) (fun k ->
        one_shot mode singles.(k mod n) ~jobs ~on_workers)
  in
  peak := Float.max !peak (Probe.peak_rss_mb Probe.self_pid);
  let runs = List.length walls in
  let units = n * runs in
  let rate = List.map (fun w -> float_of_int n /. (w /. 1000.)) walls in
  Run.report
    ~attempted:(units + List.length latencies + n) ~failed:(!failed + c.wrong)
    ~rows:
      [
        Printf.sprintf "%d files x %d one-shot runs, then %d one-file runs, at -j %d" n runs
          (List.length latencies) jobs;
      ]
    [
      ("setup_s", Probe.median (List.map snd setups));
      ("units_per_s", Probe.median rate);
      ("cpu_ms_per_unit", cpu /. float_of_int units);
      ("peak_rss_mb", !peak);
      ("latency_p50_ms", Probe.quantile 0.5 latencies);
      ("latency_p90_ms", Probe.quantile 0.9 latencies);
      ("latency_p99_ms", Probe.quantile 0.99 latencies);
      ("sustained_rps", float_of_int runs /. elapsed);
    ]

(* --- The traced run -------------------------------------------------------------- *)

(* Every unit through the layers in pipeline order; returns how many
   answers differ from the generator's. *)
let replay mode c tr =
  List.fold_left
    (fun (i, wrong) (f : Gen.file) ->
      tr.Probe.unit_id <- i;
      let ok =
        Probe.span tr "unit" (fun () ->
            let source = Probe.read_file f.Gen.name in
            match mode with
            | Check -> Layers.check tr source = f.Gen.code
            | Lint -> Layers.lint tr ~file:f.Gen.name source = f.Gen.lint_codes)
      in
      (i + 1, if ok then wrong else wrong + 1))
    (0, 0) c.files
  |> snd

let trace mode ~seed ~seconds ~jobs =
  let c = setup mode ~seed in
  let n = List.length c.paths in
  let plain_ms =
    Run.untraced_ms (fun () -> ignore (replay mode c (Probe.tracer ~on:false) : int))
  in
  let tr = Probe.tracer ~on:true in
  Obs.enable ~fake_clock:false ();
  let t0 = Probe.now () in
  let replay_wrong = Probe.span tr "replay" (fun () -> replay mode c tr) in
  let traced_ms = Probe.ms_since t0 in
  let counters = Obs.counters () @ Obs.stable_counters () in
  Obs.disable ();
  (* The real path again, with the recorder on, for the pool's counters. *)
  Obs.enable ~fake_clock:false ();
  let t_start = Probe.now () in
  let pool_runs = ref [] in
  while !pool_runs = [] || Probe.now () -. t_start < seconds /. 2. do
    Obs.reset ();
    let wall, failed = one_shot mode c ~jobs ~on_workers:ignore in
    let unit_us = List.fold_left (fun acc (_, p) -> acc + Obs.profile_total_us p) 0 (Obs.units ()) in
    pool_runs := (wall, failed, Obs.counters (), unit_us) :: !pool_runs
  done;
  Obs.disable ();
  Probe.write_spans tr (Filename.concat Run.work_dir (name mode ^ "-spans.json"));
  let runs = List.rev !pool_runs in
  let pool =
    Run.median_metrics
      (List.map
         (fun (wall_ms, _, counters, unit_us) -> Run.pool_metrics ~jobs ~wall_ms ~counters ~unit_us)
         runs)
  in
  let failed = List.fold_left (fun acc (_, f, _, _) -> acc + f) (c.wrong + replay_wrong) runs in
  let bytes = List.fold_left (fun acc (f : Gen.file) -> acc + String.length f.Gen.source) 0 c.files in
  Run.report ~attempted:(n * (2 + List.length runs)) ~failed
    ~rows:(Printf.sprintf "traced: replay of %d files, then %d pooled runs at -j %d" n (List.length runs) jobs
           :: Run.queue_wait_flag pool)
    (Run.replay_metrics ~replay_ms:traced_ms ~plain_ms ~self:(Probe.self_ms tr) ~counters ~bytes
    @ pool)
