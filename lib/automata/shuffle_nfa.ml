(* On-the-fly shuffle product: configurations are tuples of per-branch
   ε-closed state sets, interned as they are reached — the eager
   interleaving expansion (binomially many positions, see
   [Interleave.expand]) is never built. Like [Language.intersect], except
   that a symbol steps exactly ONE branch and leaves the others in place,
   and acceptance requires every branch to accept. Bounded by [Limits]
   under the "shuffle-product configurations" resource. *)

let config_key = Explore.list States.key

let product ?(limits = Limits.default) branches =
  Obs.with_span "shuffle.product" @@ fun () ->
  let fuel =
    Limits.fuel ~within:limits ~resource:"shuffle-product configurations"
      limits.Limits.max_configs
  in
  let graph =
    Explore.graph config_key ~fuel ~start:(List.map Nfa.initial_config branches)
      ~step:(fun config emit ->
        List.iteri
          (fun b (nfa, cell) ->
            Symbol.Set.iter
              (fun sym ->
                let next = Nfa.step nfa cell sym in
                if not (States.Set.is_empty next) then
                  emit sym (List.mapi (fun i c -> if i = b then next else c) config))
              (Nfa.alphabet nfa))
          (List.combine branches config))
      ()
  in
  Obs.count "shuffle.configs" (Array.length graph.keys);
  Nfa.of_graph ~accepting:(List.for_all2 Nfa.accepting_config branches) graph

let on_the_fly ?limits n1 n2 = product ?limits [ n1; n2 ]
