(* The result cache, proven correct differentially: for generated corpora of
   MicroPython files, a cold cached run, a warm (all-hit) run and a mixed
   hit/miss run must all reproduce the uncached run's bytes and exit codes
   exactly — at -j 1 and at -j 4, for both the check and the lint engines.
   Plus the blob store's own contracts (round-trip, miss classification) and
   the key-composition rules that decide what invalidates what. *)

open Testutil

(* --- Corpus generation -------------------------------------------------------

   A corpus file is either one of the paper's listings (valve verifies
   silently, bad_sector fails its claim — both cachable verdicts), a
   syntactically broken file (exercises the Syntax_error path through the
   cache), or a generated IR program rendered back to an annotated
   MicroPython composite driving a Valve — so random control-flow shapes
   flow through parsing, lowering, inference and the cache. *)

type spec =
  | Valve
  | Bad
  | Broken
  | Gen of Prog.t

(* The paper's listings, pulled from samples/ (declared as deps in
   test/dune, so they exist in the sandbox). `dune runtest` runs with the
   test directory as cwd; `dune exec test/test_cache.exe` from the root. *)
let read_sample name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../samples" name; Filename.concat "samples" name ]
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let valve_source = read_sample "valve.py"
let bad_source = read_sample "bad_sector.py"
let broken_source = "@sys\nclass Broken:\n    def oops(self:\n        return [\n"

let driver_alphabet = List.map sym [ "test"; "open"; "close"; "clean" ]

(* Render a [Prog.t] as the body of one composite operation. Every leaf
   emits at least one line, so blocks are never empty; conditions are erased
   by lowering, so any pin read works. *)
let render_prog p =
  let buf = Buffer.create 256 in
  let pad n = String.make n ' ' in
  let rec stmt indent p =
    match (p : Prog.t) with
    | Call f -> Buffer.add_string buf (pad indent ^ "self.a." ^ Symbol.name f ^ "()\n")
    | Skip -> Buffer.add_string buf (pad indent ^ "print(\"skip\")\n")
    | Return -> Buffer.add_string buf (pad indent ^ "return []\n")
    | Seq (a, b) ->
      stmt indent a;
      stmt indent b
    | If (a, b) ->
      Buffer.add_string buf (pad indent ^ "if self.flag.value():\n");
      stmt (indent + 4) a;
      Buffer.add_string buf (pad indent ^ "else:\n");
      stmt (indent + 4) b
    | Loop a ->
      Buffer.add_string buf (pad indent ^ "while self.flag.value():\n");
      stmt (indent + 4) a
    | Par (a, b) ->
      (* This corpus generator never emits [Par]; render any future use as
         its sequentialization. *)
      stmt indent a;
      stmt indent b
  in
  stmt 8 p;
  Buffer.contents buf

let gen_source p =
  valve_source
  ^ Printf.sprintf
      {|

@sys(["a"])
class Driver:
    def __init__(self):
        self.a = Valve()
        self.flag = Pin(25, IN)

    @op_initial_final
    def run(self):
%s        return []
|}
      (render_prog p)

let source_of = function
  | Valve -> valve_source
  | Bad -> bad_source
  | Broken -> broken_source
  | Gen p -> gen_source p

let spec_name = function
  | Valve -> "valve"
  | Bad -> "bad"
  | Broken -> "broken"
  | Gen p -> "gen " ^ Prog.to_string p

let spec_gen : spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [
      (1, return Valve);
      (1, return Bad);
      (1, return Broken);
      (3, map (fun p -> Gen p) (prog_gen_over driver_alphabet));
    ]

let corpus_gen = QCheck2.Gen.(list_size (int_range 1 4) spec_gen)

(* Shrink a corpus by dropping files, replacing templates with the silent
   one, and shrinking generated programs via the shared IR shrinker. *)
let spec_shrink = function
  | Valve -> Seq.empty
  | Bad | Broken -> Seq.return Valve
  | Gen p -> Seq.map (fun p' -> Gen p') (prog_shrink p)

let rec corpus_shrink = function
  | [] -> Seq.empty
  | x :: rest ->
    Seq.append
      (Seq.return rest)
      (Seq.append
         (Seq.map (fun x' -> x' :: rest) (spec_shrink x))
         (Seq.map (fun rest' -> x :: rest') (corpus_shrink rest)))

let corpus_arb =
  arbitrary
    ~print:(fun specs -> String.concat " | " (List.map spec_name specs))
    ~shrink:corpus_shrink corpus_gen

(* --- Temp plumbing ----------------------------------------------------------- *)

let counter = ref 0

let with_corpus specs f =
  incr counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "shelley_cachetest_%d_%d" (Unix.getpid ()) !counter)
  in
  Unix.mkdir dir 0o755;
  let files =
    List.mapi
      (fun i spec ->
        let path = Filename.concat dir (Printf.sprintf "unit_%d.py" i) in
        let oc = open_out_bin path in
        output_string oc (source_of spec);
        close_out oc;
        path)
      specs
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir files)

let fresh_cache dir name =
  let path = Filename.concat dir name in
  match Cache.open_dir path with
  | Ok c -> c
  | Error msg -> Alcotest.failf "cannot open cache at %s: %s" path msg

(* --- The differential property ----------------------------------------------- *)

let check_fingerprint ?cache ~jobs files =
  let verdicts = Checker.check_files ?cache ~jobs files in
  ( String.concat "" (List.map (fun v -> v.Checker.output) verdicts),
    List.map (fun v -> v.Checker.code) verdicts )

let lint_fingerprint ?cache ~jobs files =
  Lint_render.text (Checker.lint_files ?cache ~jobs files)

(* Every cached regime must reproduce [baseline]: cold (all misses + store),
   warm (all hits), warm parallel, and mixed (only a prefix primed, so hits
   and misses interleave inside one run). *)
let differential ~fingerprint ~label dir files baseline =
  let expect regime got =
    if got <> baseline then
      Alcotest.failf "%s: %s run diverged from the uncached run" label regime
  in
  let cache = fresh_cache dir (label ^ "_cache") in
  expect "cold -j 1" (fingerprint ~cache ~jobs:1 files);
  expect "warm -j 1" (fingerprint ~cache ~jobs:1 files);
  expect "warm -j 4" (fingerprint ~cache ~jobs:4 files);
  let mixed = fresh_cache dir (label ^ "_mixed") in
  let prefix = List.filteri (fun i _ -> i < List.length files / 2) files in
  if prefix <> [] then ignore (fingerprint ~cache:mixed ~jobs:1 prefix);
  expect "mixed -j 4" (fingerprint ~cache:mixed ~jobs:4 files)

let prop_differential =
  qtest_arb "cold = warm = mixed, check and lint, -j 1 and -j 4" ~count:20 corpus_arb
    (fun specs ->
      with_corpus specs (fun dir files ->
          let check_base = check_fingerprint ~jobs:1 files in
          differential
            ~fingerprint:(fun ~cache ~jobs files ->
              check_fingerprint ~cache ~jobs files)
            ~label:"check" dir files check_base;
          let lint_base = lint_fingerprint ~jobs:1 files in
          differential
            ~fingerprint:(fun ~cache ~jobs files -> lint_fingerprint ~cache ~jobs files)
            ~label:"lint" dir files lint_base);
      true)

(* The uncached parallel run was already proven byte-identical to sequential
   by test_exec; here the same must hold when a cache joins in, with workers
   racing to store. *)
let prop_parallel_cold =
  qtest_arb "racing cold stores keep -j 4 identical to -j 1" ~count:15 corpus_arb
    (fun specs ->
      with_corpus specs (fun dir files ->
          let base = check_fingerprint ~jobs:1 files in
          let cache = fresh_cache dir "race_cache" in
          let cold4 = check_fingerprint ~cache ~jobs:4 files in
          if cold4 <> base then Alcotest.fail "cold -j 4 diverged";
          let warm1 = check_fingerprint ~cache ~jobs:1 files in
          if warm1 <> base then Alcotest.fail "warm after racing stores diverged");
      true)

(* --- Blob-store contracts ------------------------------------------------------ *)

let with_cache f =
  with_corpus [] (fun dir _ -> f (fresh_cache dir "c"))

let test_roundtrip () =
  with_cache (fun c ->
      let key = Cache.key [ "a"; "b" ] in
      Alcotest.(check bool) "initially absent" true (Cache.find c key = None);
      Cache.store c key (42, "hello");
      Alcotest.(check (option (pair int string)))
        "round-trips" (Some (42, "hello"))
        (Cache.find c key);
      Alcotest.(check bool)
        "other keys unaffected" true
        (Cache.find c (Cache.key [ "ab" ]) = None))

let test_key_boundaries () =
  (* Length-prefixing means part boundaries cannot be forged. *)
  Alcotest.(check bool)
    "[ab] <> [a;b]" true
    (Cache.key [ "ab" ] <> Cache.key [ "a"; "b" ]);
  Alcotest.(check bool)
    "[a;bc] <> [ab;c]" true
    (Cache.key [ "a"; "bc" ] <> Cache.key [ "ab"; "c" ])

let test_stats_counts_live () =
  with_cache (fun c ->
      Cache.store c (Cache.key [ "1" ]) 1;
      Cache.store c (Cache.key [ "2" ]) 2;
      let s = Cache.stats c in
      Alcotest.(check int) "live" 2 s.Cache.live_entries;
      Alcotest.(check int) "stale" 0 s.Cache.stale_entries;
      Alcotest.(check int) "corrupt" 0 s.Cache.corrupt_entries;
      Alcotest.(check int) "clear removes them" 2 (Cache.clear c);
      Alcotest.(check int) "empty after clear" 0 (Cache.stats c).Cache.live_entries)

(* --- Key-composition rules: what invalidates, what does not ------------------- *)

let src = "class C:\n    pass\n"
let key = Checker.check_cache_key ~path:"unit.py" src

let test_key_sensitivity () =
  let base = key in
  let differs label k = Alcotest.(check bool) (label ^ " changes the key") true (k <> base) in
  differs "source" (Checker.check_cache_key ~path:"unit.py" (src ^ "\n"));
  differs "path" (Checker.check_cache_key ~path:"other.py" src);
  (* Neither check nor lint determinizes, so the subset-construction
     budget is key material for none of check, check --lint and lint. *)
  let states7 = Limits.make ~max_states:7 () in
  Alcotest.(check string)
    "max_states not key material for check" base
    (Checker.check_cache_key ~limits:states7 ~path:"unit.py" src);
  Alcotest.(check string)
    "max_states not key material for check --lint"
    (Checker.check_cache_key ~lint:true ~path:"unit.py" src)
    (Checker.check_cache_key ~lint:true ~limits:states7 ~path:"unit.py" src);
  Alcotest.(check string)
    "max_states not key material for lint"
    (Checker.lint_cache_key ~path:"unit.py" src)
    (Checker.lint_cache_key ~limits:states7 ~path:"unit.py" src);
  differs "fuel"
    (Checker.check_cache_key
       ~limits:(Limits.make ~max_configs:7 ())
       ~path:"unit.py" src);
  differs "warnings" (Checker.check_cache_key ~warnings:true ~path:"unit.py" src);
  differs "explain" (Checker.check_cache_key ~explain:true ~path:"unit.py" src);
  differs "lint" (Checker.check_cache_key ~lint:true ~path:"unit.py" src);
  differs "extra (--using digests)"
    (Checker.check_cache_key ~extra:[ "d41d8cd9" ] ~path:"unit.py" src)

let test_key_deadline_insensitive () =
  (* The wall-clock deadline may prevent a verdict but cannot change one, so
     results computed with and without --timeout share entries. *)
  Alcotest.(check string)
    "deadline not key material" key
    (Checker.check_cache_key ~limits:(Limits.make ~deadline:2.5 ()) ~path:"unit.py" src)

let test_lint_key_sensitivity () =
  let base = Checker.lint_cache_key ~path:"unit.py" src in
  let differs label k = Alcotest.(check bool) (label ^ " changes the key") true (k <> base) in
  differs "source" (Checker.lint_cache_key ~path:"unit.py" (src ^ "\n"));
  differs "path" (Checker.lint_cache_key ~path:"other.py" src);
  differs "max_behavior_size"
    (Checker.lint_cache_key
       ~thresholds:
         { Lint_semantic.default_thresholds with Lint_semantic.max_behavior_size = 1 }
       ~path:"unit.py" src);
  differs "max_star_height"
    (Checker.lint_cache_key
       ~thresholds:
         { Lint_semantic.default_thresholds with Lint_semantic.max_star_height = 1 }
       ~path:"unit.py" src);
  differs "entail_fuel"
    (Checker.lint_cache_key
       ~thresholds:{ Lint_semantic.default_thresholds with Lint_semantic.entail_fuel = 1 }
       ~path:"unit.py" src);
  differs "race_fuel"
    (Checker.lint_cache_key
       ~thresholds:{ Lint_semantic.default_thresholds with Lint_semantic.race_fuel = 1 }
       ~path:"unit.py" src);
  Alcotest.(check bool)
    "check and lint keys are disjoint" true
    (base <> Checker.check_cache_key ~path:"unit.py" src)

(* A verdict stored under a full budget must not be replayed after the
   budget shrinks (it could hide a Resource_limit verdict), and vice versa:
   end to end through check_files. *)
let check_fingerprint_limits ~cache ~limits files =
  let verdicts = Checker.check_files ~cache ~limits files in
  ( String.concat "" (List.map (fun v -> v.Checker.output) verdicts),
    List.map (fun v -> v.Checker.code) verdicts )

let test_budget_invalidation_end_to_end () =
  with_corpus [ Bad ] (fun dir files ->
      let cache = fresh_cache dir "budget" in
      let tight = Limits.make ~max_configs:2 () in
      let full = check_fingerprint_limits ~cache ~limits:Limits.default files in
      let small = check_fingerprint_limits ~cache ~limits:tight files in
      Alcotest.(check bool) "tight budget not served the full-budget verdict" true
        (full <> small);
      let full' = check_fingerprint_limits ~cache ~limits:Limits.default files in
      let small' = check_fingerprint_limits ~cache ~limits:tight files in
      Alcotest.(check bool) "warm full matches cold full" true (full = full');
      Alcotest.(check bool) "warm tight matches cold tight" true (small = small'))

(* --- Counters ------------------------------------------------------------------- *)

let stable key =
  Option.value ~default:0 (List.assoc_opt key (Obs.stable_counters ()))

let test_hit_miss_counters () =
  with_corpus [ Valve; Bad ] (fun dir files ->
      let cache = fresh_cache dir "ctr" in
      Obs.enable ();
      ignore (check_fingerprint ~cache ~jobs:1 files);
      Alcotest.(check int) "cold: all misses" 2 (stable "cache.misses");
      Alcotest.(check int) "cold: no hits" 0 (stable "cache.hits");
      Obs.disable ();
      Obs.enable ();
      ignore (check_fingerprint ~cache ~jobs:1 files);
      Alcotest.(check int) "warm: all hits" 2 (stable "cache.hits");
      Alcotest.(check int) "warm: no misses" 0 (stable "cache.misses");
      Alcotest.(check bool) "warm: bytes flow back" true (stable "cache.bytes_read" > 0);
      Obs.disable ())

let () =
  Alcotest.run "cache"
    [
      ( "differential",
        [ prop_differential; prop_parallel_cold ] );
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "key boundaries" `Quick test_key_boundaries;
          Alcotest.test_case "stats and clear" `Quick test_stats_counts_live;
        ] );
      ( "keys",
        [
          Alcotest.test_case "check-key sensitivity" `Quick test_key_sensitivity;
          Alcotest.test_case "deadline insensitivity" `Quick test_key_deadline_insensitive;
          Alcotest.test_case "lint-key sensitivity" `Quick test_lint_key_sensitivity;
          Alcotest.test_case "budget invalidation end to end" `Quick
            test_budget_invalidation_end_to_end;
        ] );
      ( "counters",
        [ Alcotest.test_case "hits and misses tally" `Quick test_hit_miss_counters ] );
    ]
