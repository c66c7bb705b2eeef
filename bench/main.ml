(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper (it is a
   formalization paper, so its artifacts are tables, figures and error
   transcripts rather than performance numbers):

     T1  Table 1   annotation glossary
     T2  Table 2   return-statement shapes and meanings
     F1  Figure 1  Valve diagram (DOT)
     F2  Figure 2  BadSector diagram (DOT)
     F3  Figure 3  Sector (Listing 3.1) model / dependency graph (DOT)
     F4  Figure 4  Examples 1-3: semantics judgments and behavior inference
     E1  §2.2      INVALID SUBSYSTEM USAGE transcript
     E2  §2.2      FAIL TO MEET REQUIREMENT transcript

   Part 2 measures the implementation (Bechamel): inference scaling, the
   semantics-oracle baseline vs regex matching, Thompson vs Glushkov,
   Hopcroft vs Moore, derivative matching vs compiled DFA, LTLf progression,
   and the end-to-end pipeline — the ablations listed in DESIGN.md §5.

   Run everything:          dune exec bench/main.exe
   Only the artifacts:      dune exec bench/main.exe -- artifacts
   Only the measurements:   dune exec bench/main.exe -- perf *)

let section title =
  Printf.printf "\n================ %s ================\n\n" title

(* ------------------------------------------------------------------ *)
(* Part 1: artifact regeneration                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1: Table 1 — Shelley annotations";
  Printf.printf "%-28s %-8s %s\n" "Annotation" "Applies" "Meaning";
  List.iter
    (fun (annotation, applies, meaning) ->
      Printf.printf "%-28s %-8s %s\n" annotation applies meaning)
    Annotations.table

let table2 () =
  section "T2: Table 2 — return statements and their meanings";
  let describe stmt =
    (* Parse the return value with the real parser and classify it exactly
       the way extraction does. *)
    let source =
      Printf.sprintf "class T:\n    @op_initial_final\n    def m(self):\n        return %s\n"
        stmt
    in
    let cls = Mpy_parser.parse_class source in
    let meth = Option.get (Mpy_ast.find_method cls "m") in
    match Mpy_ast.returns_of_method meth with
    | [ r ] ->
      let next =
        match r.Mpy_ast.ret_next with
        | Some [] -> "no method may follow"
        | Some ops ->
          Printf.sprintf "expecting %s to be invoked next"
            (String.concat " or " (List.map (Printf.sprintf "%S") ops))
        | None -> "not a next-operation list"
      in
      let value = if r.Mpy_ast.ret_has_value then " and return a user value" else "" in
      next ^ value
    | _ -> assert false
  in
  List.iter
    (fun stmt -> Printf.printf "return %-24s %s\n" stmt (describe stmt))
    [
      "[\"close\"]";
      "[\"open\", \"clean\"]";
      "[\"close\"], 2";
      "[\"close\"], True";
      "[\"open\", \"clean\"], 2";
    ]

let models_of source =
  Pipeline.verify_source_exn source

let figure1 () =
  section "F1: Figure 1 — Valve diagram";
  let models = (models_of Sources.valve).Pipeline.models in
  print_string (Dot.of_model (Option.get (Pipeline.find_model models "Valve")))

let figure2 () =
  section "F2: Figure 2 — BadSector diagram";
  let models = (models_of (Sources.valve ^ Sources.bad_sector)).Pipeline.models in
  print_string (Dot.of_model (Option.get (Pipeline.find_model models "BadSector")))

let figure3 () =
  section "F3: Figure 3 — Sector (Listing 3.1) dependency graph";
  let result = models_of (Sources.valve ^ Sources.listing31_sector) in
  let sector = Option.get (Pipeline.find_model result.Pipeline.models "Sector") in
  print_string (Dot.of_depgraph sector);
  print_newline ();
  print_string (Dot.of_model sector)

let figure4 () =
  section "F4: Figure 4 — semantics and behavior inference (Examples 1-3)";
  let p = Ir_examples.paper_loop in
  Format.printf "program p = %a@.@." Prog.pp p;
  Format.printf "Example 1:  0 |- [%a] in p   %b@." Trace.pp Ir_examples.example1_trace
    (Semantics.derivable Semantics.Ongoing Ir_examples.example1_trace p);
  Format.printf "Example 2:  R |- [%a] in p   %b@.@." Trace.pp Ir_examples.example2_trace
    (Semantics.derivable Semantics.Returned Ir_examples.example2_trace p);
  (match Derivation.search Semantics.Ongoing Ir_examples.example1_trace p with
  | Some d ->
    Format.printf "Example 1's derivation (%d rule applications, checker: %b):@.%a@."
      (Derivation.size d) (Derivation.check d) Derivation.pp d
  | None -> failwith "Example 1 derivation not found");
  (match Derivation.search Semantics.Returned Ir_examples.example2_trace p with
  | Some d ->
    Format.printf "Example 2's derivation (%d rule applications, checker: %b):@.%a@."
      (Derivation.size d) (Derivation.check d) Derivation.pp d
  | None -> failwith "Example 2 derivation not found");
  let d = Infer.denote p in
  Format.printf "Example 3:  [[p]] = %a@." Infer.pp_denotation d;
  Format.printf "            infer(p) = %a@.@." Regex.pp (Infer.infer p);
  Format.printf "paper's ongoing component (a·((b·0)+c))* is language-equal: %b@."
    (Equiv.equivalent d.Infer.ongoing Ir_examples.example3_expected_ongoing);
  let sem = Semantics.behavior_upto ~max_len:6 p in
  let inferred = Enumerate.words_upto ~max_len:6 (Infer.infer p) in
  Format.printf "Theorems 1+2 on p, bounded to length 6: L(p) = L(infer p): %b@."
    (Trace.Set.equal sem inferred)

let transcripts () =
  section "E1+E2: the two §2.2 error transcripts";
  let result = models_of (Sources.valve ^ Sources.bad_sector) in
  List.iter
    (fun r -> Format.printf "%a@.@." Report.pp r)
    (Report.errors result.Pipeline.reports)

let artifacts () =
  table1 ();
  table2 ();
  figure1 ();
  figure2 ();
  figure3 ();
  figure4 ();
  transcripts ()

(* ------------------------------------------------------------------ *)
(* Part 2: performance measurements                                    *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let run_group name tests =
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun test_name ols_result acc ->
        let nanos =
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) -> estimate
          | _ -> nan
        in
        (test_name, nanos) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "\n--- %s ---\n" name;
  List.iter
    (fun (test_name, nanos) ->
      let pretty =
        if nanos >= 1e9 then Printf.sprintf "%8.3f  s" (nanos /. 1e9)
        else if nanos >= 1e6 then Printf.sprintf "%8.3f ms" (nanos /. 1e6)
        else if nanos >= 1e3 then Printf.sprintf "%8.3f us" (nanos /. 1e3)
        else Printf.sprintf "%8.1f ns" nanos
      in
      Printf.printf "  %-55s %s/run\n" test_name pretty)
    rows

let staged = Staged.stage

let bench_inference () =
  (* Inference is one syntax-directed pass; this checks it scales linearly
     in program size. *)
  let family = Prog_gen.sized_family ~sizes:[ 10; 50; 200; 1000 ] ~seed:42 in
  run_group "behavior inference: infer(p) vs program size"
    (List.map
       (fun (size, p) ->
         Test.make
           ~name:(Printf.sprintf "infer size=%d" size)
           (staged (fun () -> Infer.infer p)))
       family)

let bench_oracle_vs_regex () =
  (* The semantics oracle (bounded lfp enumeration) against regex matching:
     the naive-baseline comparison on the same judgment. *)
  let p = Ir_examples.paper_loop in
  let trace = Trace.of_names [ "a"; "c"; "a"; "c"; "a"; "c"; "a"; "b" ] in
  let r = Infer.infer p in
  run_group "membership l in L(p): semantics oracle vs inferred regex"
    [
      Test.make ~name:"oracle (bounded-lfp enumeration)"
        (staged (fun () -> Semantics.in_behavior trace p));
      Test.make ~name:"inference (Brzozowski matching)"
        (staged (fun () -> Deriv.matches r trace));
    ]

let sized_program n = List.assoc n (Prog_gen.sized_family ~sizes:[ n ] ~seed:7)

let bench_constructions () =
  let regexes =
    [ ("paper", Infer.infer Ir_examples.paper_loop); ("size-200", Infer.infer (sized_program 200)) ]
  in
  run_group "regex to NFA: Thompson vs Glushkov"
    (List.concat_map
       (fun (tag, r) ->
         [
           Test.make
             ~name:(Printf.sprintf "thompson %s" tag)
             (staged (fun () -> Thompson.of_regex r));
           Test.make
             ~name:(Printf.sprintf "glushkov %s" tag)
             (staged (fun () -> Glushkov.of_regex r));
         ])
       regexes)

let bench_minimization () =
  let dfa = Determinize.determinize (Thompson.of_regex (Infer.infer (sized_program 200))) in
  run_group "DFA minimization: Hopcroft vs Moore"
    [
      Test.make ~name:"hopcroft" (staged (fun () -> Minimize.minimize_hopcroft dfa));
      Test.make ~name:"moore" (staged (fun () -> Minimize.minimize_moore dfa));
    ]

let bench_matching () =
  let r = Infer.infer Ir_examples.paper_loop in
  let dfa = Minimize.minimize (Determinize.determinize (Glushkov.of_regex r)) in
  let long_trace = List.concat (List.init 50 (fun _ -> Trace.of_names [ "a"; "c" ])) in
  run_group "matching a 100-event trace: derivatives vs compiled DFA"
    [
      Test.make ~name:"derivative matching" (staged (fun () -> Deriv.matches r long_trace));
      Test.make ~name:"DFA run" (staged (fun () -> Dfa_oracle.accepts dfa long_trace));
    ]

let bench_ltl () =
  let alphabet = List.map Symbol.intern [ "a.open"; "a.close"; "b.open"; "b.close" ] in
  let claims =
    [
      ("paper W-claim", Ltl_parser.parse "(!a.open) W b.open");
      ("response", Ltl_parser.parse "G (a.open -> F a.close)");
      ("nested", Ltl_parser.parse "G (a.open -> X ((!b.open) U a.close))");
    ]
  in
  run_group "LTLf automaton construction: progression DFA vs tableau NFA"
    (List.concat_map
       (fun (tag, f) ->
         [
           Test.make
             ~name:(Printf.sprintf "progression %s" tag)
             (staged (fun () -> Progression.to_dfa ~alphabet f));
           Test.make
             ~name:(Printf.sprintf "tableau %s" tag)
             (staged (fun () -> Tableau.to_nfa ~alphabet f));
         ])
       claims)

let bench_pipeline () =
  let paper_source = Sources.valve ^ Sources.bad_sector in
  let chain8 = Sources.valve ^ Synthetic.chain_composite 8 in
  let chain32 = Sources.valve ^ Synthetic.chain_composite 32 in
  run_group "end-to-end pipeline (parse, extract, verify)"
    [
      Test.make ~name:"paper example (Valve + BadSector)"
        (staged (fun () -> Pipeline.verify_source_exn paper_source));
      Test.make ~name:"chain composite, 8 ops"
        (staged (fun () -> Pipeline.verify_source_exn chain8));
      Test.make ~name:"chain composite, 32 ops"
        (staged (fun () -> Pipeline.verify_source_exn chain32));
    ]

let bench_usage_scaling () =
  let cases =
    List.map
      (fun n ->
        let result = Pipeline.verify_source_exn (Sources.valve ^ Synthetic.chain_composite n) in
        ( n,
          Option.get (Pipeline.find_model result.Pipeline.models "Chain"),
          Option.get (Pipeline.find_model result.Pipeline.models "Valve") ))
      [ 4; 16; 64 ]
  in
  run_group "subsystem-usage check vs composite size"
    (List.map
       (fun (n, chain, valve) ->
         let env name = if String.equal name "Valve" then Some valve else None in
         Test.make
           ~name:(Printf.sprintf "check chain n=%d" n)
           (staged (fun () ->
                Usage.check_subsystem ~env chain ~field:"v" ~subsystem_class:"Valve")))
       cases)

let bench_check_vs_baseline () =
  (* DESIGN.md decision 6: the exact product-BFS subsystem check against a
     naive baseline that enumerates complete composite traces up to a bound
     and validates each projection. On the tiny paper example the baseline
     is cheaper, but it is incomplete (misses counterexamples past the
     bound) and its cost is exponential in the bound, while the product
     check is exact and polynomial in the automaton sizes. *)
  let result = Pipeline.verify_source_exn (Sources.valve ^ Sources.bad_sector) in
  let bad = Option.get (Pipeline.find_model result.Pipeline.models "BadSector") in
  let valve = Option.get (Pipeline.find_model result.Pipeline.models "Valve") in
  let env name = if String.equal name "Valve" then Some valve else None in
  let expanded = Usage.expanded_nfa bad in
  let valve_usage = Depgraph.usage_nfa valve in
  let baseline () =
    Trace.Set.exists
      (fun w ->
        let projected = Usage.project_subsystem ~field:"a" w in
        not (Nfa.accepts valve_usage (Trace.of_names projected)))
      (Nfa.words_upto ~max_len:8 expanded)
  in
  run_group "subsystem check: exact product vs bounded enumeration baseline"
    [
      Test.make ~name:"exact (product BFS, complete)"
        (staged (fun () ->
             Usage.check_subsystem ~env bad ~field:"a" ~subsystem_class:"Valve"));
      Test.make ~name:"baseline (enumerate <= 8, incomplete)" (staged baseline);
    ]

let bench_nusmv_and_viz () =
  let result = Pipeline.verify_source_exn (Sources.valve ^ Sources.bad_sector) in
  let bad = Option.get (Pipeline.find_model result.Pipeline.models "BadSector") in
  run_group "back ends: DOT and NuSMV emission"
    [
      Test.make ~name:"DOT (Figure 2)" (staged (fun () -> Dot.of_model bad));
      Test.make ~name:"NuSMV translation" (staged (fun () -> Nusmv.model_of_class bad));
    ]

let bench_counterexample_depth () =
  (* The violation sits at the end of an n-op chain, so the shortest
     counterexample has length ~3n: how does BFS witness search scale? *)
  let cases =
    List.map
      (fun n ->
        let result = Pipeline.verify_source_exn (Sources.valve ^ Synthetic.chain_with_leak n) in
        ( n,
          Option.get (Pipeline.find_model result.Pipeline.models "LeakyChain"),
          Option.get (Pipeline.find_model result.Pipeline.models "Valve") ))
      [ 2; 8; 32 ]
  in
  List.iter
    (fun (n, chain, valve) ->
      let env name = if String.equal name "Valve" then Some valve else None in
      match Usage.check_subsystem ~env chain ~field:"v" ~subsystem_class:"Valve" with
      | Some _ -> ()
      | None -> failwith (Printf.sprintf "leaky chain n=%d unexpectedly verified" n))
    cases;
  run_group "counterexample search vs violation depth (leaky chain)"
    (List.map
       (fun (n, chain, valve) ->
         let env name = if String.equal name "Valve" then Some valve else None in
         Test.make
           ~name:(Printf.sprintf "find leak at depth %d" n)
           (staged (fun () ->
                Usage.check_subsystem ~env chain ~field:"v" ~subsystem_class:"Valve")))
       cases)

let obligations_table () =
  (* Not a timing: the size of the LTLf progression state space vs formula,
     the metric behind DESIGN.md decision 5. *)
  let alphabet = List.map Symbol.intern [ "a.open"; "a.close"; "b.open"; "b.close" ] in
  Printf.printf "\n--- LTLf state space: reachable obligations / minimized DFA states ---\n";
  List.iter
    (fun text ->
      let f = Ltl_parser.parse text in
      let obligations = Ltl_oracle.num_reachable_obligations ~alphabet f in
      let dfa = Progression.to_dfa ~alphabet f in
      let minimal = Minimize.minimize dfa in
      let tableau = Tableau.to_nfa ~alphabet f in
      Printf.printf "  %-45s %3d obligations, %3d minimal DFA states, %3d tableau states\n"
        text obligations (Dfa.num_states minimal) (Nfa.num_states tableau))
    [
      "(!a.open) W b.open";
      "G (a.open -> F a.close)";
      "G (a.open -> X ((!b.open) U a.close))";
      "F a.open && F b.open && F a.close";
      "G (a.open -> WX (G !a.open))";
    ]

let perf () =
  section "performance measurements (Bechamel, OLS ns/run)";
  bench_inference ();
  bench_oracle_vs_regex ();
  bench_constructions ();
  bench_minimization ();
  bench_matching ();
  bench_ltl ();
  bench_pipeline ();
  bench_usage_scaling ();
  bench_counterexample_depth ();
  bench_check_vs_baseline ();
  bench_nusmv_and_viz ();
  obligations_table ()

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "artifacts" -> artifacts ()
  | "perf" -> perf ()
  | "all" ->
    artifacts ();
    perf ()
  | other ->
    prerr_endline ("unknown mode " ^ other ^ " (expected: artifacts | perf | all)");
    exit 2
