(* A corrected sector that passes verification, plus the paper's Listing 3.1
   Sector whose dependency graph is Figure 3.

   Run with:  dune exec examples/good_sector.exe *)

let () =
  print_endline "=== GoodSector: a sector that verifies ===\n";
  let result =
    Pipeline.verify_source_exn (Sources.valve ^ Sources.good_sector)
  in
  (match Report.errors result.Pipeline.reports with
  | [] -> print_endline "verified: no errors — both valves always released, claim holds\n"
  | errors ->
    List.iter (fun r -> Format.printf "%a@.@." Report.pp r) errors;
    failwith "GoodSector unexpectedly failed verification");

  let good = Option.get (Pipeline.find_model result.Pipeline.models "GoodSector") in

  (* Show a few valid end-to-end usages and what each valve observes. *)
  let expanded = Usage.expanded_nfa good in
  print_endline "--- shortest complete usages of GoodSector ---";
  let words = Nfa.words_upto ~max_len:7 expanded in
  Trace.Set.iter
    (fun w -> if w <> [] then Format.printf "  %s@." (Trace.to_string w))
    words;

  (* The claim holds on every subsystem-call trace: the check the
     verifier runs, one entailment product over the call language. *)
  let claim = Ltl_parser.parse "(!a.open) W b.open" in
  let calls_only = Entail.session ~impl:(Claims.subsystem_call_nfa good) () in
  Format.printf "@.claim '(!a.open) W b.open' holds on all call traces: %b@."
    (Result.is_ok (Ltl_check.check calls_only claim));

  (* Listing 3.1 and its §3.1 dependency graph (Figure 3). *)
  print_endline "\n=== Listing 3.1 Sector: method dependency graph (Figure 3) ===\n";
  let listing =
    Pipeline.verify_source_exn (Sources.valve ^ Sources.listing31_sector)
  in
  let sector = Option.get (Pipeline.find_model listing.Pipeline.models "Sector") in
  let graph = Depgraph.of_model sector in
  Format.printf "%a@." Depgraph.pp graph;
  print_endline "--- Figure 3 (DOT) ---";
  print_string (Dot.of_depgraph sector)
