(* The paper's running failure (§2.2): BadSector (Listing 2.2) misuses its
   two valves and violates its temporal claim. This example reproduces both
   error transcripts and the Figure 2 diagram.

   Run with:  dune exec examples/bad_sector.exe *)

let () =
  print_endline "=== BadSector (Listing 2.2): both paper errors ===\n";
  let result =
    Pipeline.verify_source_exn (Sources.valve ^ Sources.bad_sector)
  in

  (* The paper's two transcripts. *)
  List.iter
    (fun report -> Format.printf "%a@.@." Report.pp report)
    (Report.errors result.Pipeline.reports);

  (* Explain the subsystem failure against the Valve specification. *)
  let bad = Option.get (Pipeline.find_model result.Pipeline.models "BadSector") in
  let valve = Option.get (Pipeline.find_model result.Pipeline.models "Valve") in
  let expanded = Usage.expanded_nfa bad in
  print_endline "--- why: some complete BadSector traces and valve a's view ---";
  let explain names =
    let trace = Trace.of_names names in
    let accepted = Nfa.accepts expanded trace in
    let projected = Usage.project_subsystem ~field:"a" trace in
    let valve_view = Trace.of_names projected in
    let valve_ok = Nfa.accepts (Depgraph.usage_nfa valve) valve_view in
    Format.printf "  %-60s %-9s a sees: %-22s %s@." (Trace.to_string trace)
      (if accepted then "possible," else "(not a trace)")
      (String.concat ", " projected)
      (if accepted then (if valve_ok then "valid" else "INVALID") else "")
  in
  explain [ "open_a"; "a.test"; "a.open" ];
  explain [ "open_a"; "a.test"; "a.clean" ];
  explain
    [ "open_a"; "a.test"; "a.open"; "open_b"; "b.test"; "b.open"; "a.close"; "b.close" ];

  (* Check the paper's own (longer) claim counterexample against our claim
     semantics: it must violate the formula too. *)
  let formula = Ltl_parser.parse "(!a.open) W b.open" in
  let paper_counterexample =
    Trace.of_names [ "a.test"; "a.open"; "b.open"; "b.test"; "b.open"; "a.close"; "b.close" ]
  in
  Format.printf "@.paper's claim counterexample still violates the formula: %b@."
    (not (Ltlf.holds formula paper_counterexample));

  (* Figure 2: the BadSector diagram. *)
  print_endline "\n--- Figure 2 (DOT) ---";
  print_string (Dot.of_model bad);

  (* NuSMV translation (the paper's §5 back end). *)
  print_endline "\n--- NuSMV model (excerpt) ---";
  let smv = Nusmv.model_of_class bad in
  String.split_on_char '\n' smv
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter print_endline;
  Printf.printf "... (%d lines total)\n" (List.length (String.split_on_char '\n' smv))
