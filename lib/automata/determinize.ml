let determinize ?(limits = Limits.default) ?alphabet nfa =
  Obs.with_span "determinize" @@ fun () ->
  let alphabet =
    match alphabet with
    | Some syms -> List.sort_uniq Symbol.compare syms
    | None -> Symbol.Set.elements (Nfa.alphabet nfa)
  in
  let syms = Array.of_list alphabet in
  let idx = Array.map (Nfa.symbol_index nfa) syms in
  (* Every reachable ε-closed configuration, by its id in [nfa]'s table,
     renumbered densely in discovery order; the empty one is the sink. *)
  let fuel =
    Limits.fuel ~within:limits ~resource:"determinization states" limits.Limits.max_states
  in
  let graph =
    Explore.graph Explore.int ~fuel ~start:(Nfa.Config.initial nfa)
      ~step:(fun c emit ->
        Array.iteri (fun j sym -> emit sym (Nfa.Config.next nfa c idx.(j))) syms)
      ()
  in
  Obs.count "determinize.calls" 1;
  Obs.count "determinize.states" (Array.length graph.keys);
  Dfa.of_graph ~alphabet ~accepting:(Nfa.Config.accepting nfa) graph
