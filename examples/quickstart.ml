(* Quickstart: verify the paper's Valve class (Listing 2.1), inspect its
   extracted model, and regenerate the Figure 1 diagram.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  print_endline "=== shelley quickstart: the Valve class (Listing 2.1) ===\n";

  (* 1. Parse and verify the source. *)
  let result =
    Pipeline.verify_source_exn Sources.valve
  in
  Format.printf "verified: %b (%d reports)@.@." (Pipeline.verified result)
    (List.length result.Pipeline.reports);

  (* 2. Look at the extracted model: operations, exits, behaviors. *)
  let valve = Option.get (Pipeline.find_model result.Pipeline.models "Valve") in
  Format.printf "--- extracted model ---@.%a@." Model.pp valve;

  (* 3. The class usage language (the §3.1 graph read as an automaton). *)
  let usage = Depgraph.usage_nfa valve in
  let show trace_names =
    let trace = Trace.of_names trace_names in
    Format.printf "  %-40s %s@."
      (Trace.to_string trace)
      (if Nfa.accepts usage trace then "valid" else "INVALID")
  in
  print_endline "--- usage traces ---";
  show [ "test"; "open"; "close" ];
  show [ "test"; "clean" ];
  show [ "test"; "open"; "close"; "test"; "clean" ];
  show [ "test"; "open" ];
  show [ "open" ];

  (* 4. Per-method behavior inference (the paper's §3.2). *)
  print_endline "\n--- method behaviors (infer) ---";
  List.iter
    (fun (op : Model.operation) ->
      Format.printf "  %-8s %a@." op.Model.op_name Regex.pp (Model.behavior_of_op op))
    valve.Model.operations;

  (* 5. Figure 1: the Valve diagram. *)
  print_endline "\n--- Figure 1 (DOT) ---";
  print_string (Dot.of_model valve)
