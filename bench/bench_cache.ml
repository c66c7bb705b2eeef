(* Result-cache benchmark: cold vs warm wall-clock for [shelley check
   --cache] over a synthetic corpus, via the same {!Checker.check_files}
   entry the CLI uses. Emits machine-readable results to BENCH_cache.json
   and a human summary to stdout, and asserts the cache's two contracts
   along the way:

   - correctness: the concatenated output and exit code of every warm run
     (all hits), every mixed run (half the corpus primed) and every
     parallel warm run must be byte-identical to the uncached sequential
     run;
   - profitability: the best warm run must be at least [speedup_floor]
     times faster than the best cold run (asserted in full mode only;
     [--smoke] records the ratio without judging it, since a 1-repeat run
     on a loaded CI box is noise).

   Run: dune exec bench/bench_cache.exe [--smoke] [CORPUS_SIZE] *)

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
let speedup_floor = 5.0

(* Same per-file workload as bench_parallel: the paper's two listings
   together, so a unit exercises parsing, inference, the product check and
   the LTL checker — the work a hit gets to skip. A [salt] comment makes
   every file's bytes unique, so each occupies its own cache entry. *)
let file_source i =
  Printf.sprintf "# unit %d\n%s\n%s" i Sources.valve Sources.bad_sector

let write_corpus dir =
  List.init corpus_size (fun i ->
      let path = Filename.concat dir (Printf.sprintf "unit_%02d.py" i) in
      let oc = open_out_bin path in
      output_string oc (file_source i);
      close_out oc;
      path)

let concat_output verdicts =
  String.concat "" (List.map (fun v -> v.Checker.output) verdicts)

let time_run ?cache ~jobs files =
  let t0 = Clock.now () in
  let verdicts = Checker.check_files ?cache ~jobs files in
  let dt = Clock.now () -. t0 in
  (dt, concat_output verdicts, Checker.exit_code verdicts)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let must_match ~label baseline (out, code) =
  if out <> baseline then die "DETERMINISM VIOLATION: %s output differs" label;
  if code <> 1 then die "unexpected exit code %d in %s run" code label

(* Harvest the cache counters of one observed warm run, to prove the
   speedup is the cache's doing and not a warm page cache. *)
let observed_warm ~cache files baseline =
  Obs.enable ~fake_clock:false ();
  let verdicts = Checker.check_files ~cache ~jobs:1 files in
  must_match ~label:"observed warm" baseline
    (concat_output verdicts, Checker.exit_code verdicts);
  let counter key =
    Option.value ~default:0 (List.assoc_opt key (Obs.stable_counters ()))
  in
  let r = (counter "cache.hits", counter "cache.misses", counter "cache.bytes_read") in
  Obs.disable ();
  r

let () =
  let dir = Filename.temp_file "shelley_bench_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cache_dir = Filename.concat dir "cache" in
  let files = write_corpus dir in
  Printf.printf "result cache: %d files x %d repeats%s\n\n" corpus_size repeats
    (if smoke then " [smoke]" else "");
  (* The uncached sequential run is the output oracle every cached run must
     reproduce byte for byte. *)
  let _, baseline, base_code = time_run ~jobs:1 files in
  if base_code <> 1 then die "unexpected baseline exit code %d" base_code;
  let fresh_cache () =
    let rec rm path =
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
    in
    if Sys.file_exists cache_dir then rm cache_dir;
    match Cache.open_dir cache_dir with
    | Ok c -> c
    | Error msg -> die "cannot open cache: %s" msg
  in
  (* Cold: every run starts from an empty cache, so it pays full
     verification plus the store. *)
  let cold_times =
    List.init repeats (fun _ ->
        let cache = fresh_cache () in
        let dt, out, code = time_run ~cache ~jobs:1 files in
        must_match ~label:"cold" baseline (out, code);
        dt)
  in
  (* Warm: one priming run, then timed all-hit runs against the same
     directory. *)
  let cache = fresh_cache () in
  let _, prime_out, prime_code = time_run ~cache ~jobs:1 files in
  must_match ~label:"priming" baseline (prime_out, prime_code);
  let warm_times =
    List.init repeats (fun _ ->
        let dt, out, code = time_run ~cache ~jobs:1 files in
        must_match ~label:"warm" baseline (out, code);
        dt)
  in
  let _, wj4_out, wj4_code = time_run ~cache ~jobs:4 files in
  must_match ~label:"warm -j 4" baseline (wj4_out, wj4_code);
  (* Mixed: prime only half the corpus, then run the whole of it — hits and
     misses interleave and the output must still match. *)
  let mixed_cache = fresh_cache () in
  let half = List.filteri (fun i _ -> i mod 2 = 0) files in
  let _ = Checker.check_files ~cache:mixed_cache ~jobs:1 half in
  let _, mixed_out, mixed_code = time_run ~cache:mixed_cache ~jobs:4 files in
  must_match ~label:"mixed" baseline (mixed_out, mixed_code);
  let hits, misses, bytes_read = observed_warm ~cache files baseline in
  if hits <> corpus_size || misses <> 0 then
    die "warm run expected %d hits / 0 misses, saw %d / %d" corpus_size hits misses;
  let best l = List.fold_left Float.min infinity l in
  let cold_best = best cold_times and warm_best = best warm_times in
  let speedup = cold_best /. warm_best in
  Printf.printf "  cold  best %7.1f ms  (all: %s)\n" (cold_best *. 1000.)
    (String.concat ", "
       (List.map (fun t -> Printf.sprintf "%.1f ms" (t *. 1000.)) cold_times));
  Printf.printf "  warm  best %7.1f ms  (all: %s)\n" (warm_best *. 1000.)
    (String.concat ", "
       (List.map (fun t -> Printf.sprintf "%.1f ms" (t *. 1000.)) warm_times));
  Printf.printf "  speedup warm vs cold: %.1fx (floor %.0fx%s)\n" speedup speedup_floor
    (if smoke then ", not enforced in smoke mode" else "");
  Printf.printf "  warm counters: %d hits, %d misses, %d bytes read\n" hits misses
    bytes_read;
  if (not smoke) && speedup < speedup_floor then
    die "FAIL: warm speedup %.2fx is below the %.0fx floor" speedup speedup_floor;
  let seconds = Bench_json.fixed 6 in
  Bench_json.write "BENCH_cache.json"
    Jsonl.(
      Obj
        [ ("benchmark", Str "result_cache"); ("corpus_files", int corpus_size);
          ("repeats", int repeats); ("cold_best_seconds", seconds cold_best);
          ("cold_all_seconds", Arr (List.map seconds cold_times));
          ("warm_best_seconds", seconds warm_best);
          ("warm_all_seconds", Arr (List.map seconds warm_times));
          ("warm_speedup", Bench_json.fixed 2 speedup); ("speedup_floor", Num speedup_floor);
          ("floor_enforced", Bool (not smoke)); ("warm_hits", int hits);
          ("warm_misses", int misses); ("warm_bytes_read", int bytes_read);
          ("output_byte_identical", Bool true) ]);
  Printf.printf "\nwrote BENCH_cache.json; output byte-identical across cached runs\n";
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  rm dir
