let determinize ?(limits = Limits.default) ?alphabet nfa =
  Obs.with_span "determinize" @@ fun () ->
  let alphabet =
    match alphabet with
    | Some syms -> List.sort_uniq Symbol.compare syms
    | None -> Symbol.Set.elements (Nfa.alphabet nfa)
  in
  (* Every reachable ε-closed configuration, numbered densely; the empty one
     is the sink. *)
  let fuel =
    Limits.fuel ~within:limits ~resource:"determinization states" limits.Limits.max_states
  in
  let graph =
    Explore.graph States.key ~fuel ~start:(Nfa.initial_config nfa)
      ~step:(fun config emit ->
        List.iter (fun sym -> emit sym (Nfa.step nfa config sym)) alphabet)
      ()
  in
  Obs.count "determinize.calls" 1;
  Obs.count "determinize.states" (Array.length graph.keys);
  Dfa.of_graph ~alphabet ~accepting:(Nfa.accepting_config nfa) graph
