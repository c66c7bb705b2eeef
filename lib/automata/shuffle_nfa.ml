(* On-the-fly shuffle product: configurations are arrays of per-branch
   configuration ids, interned as they are reached — the eager
   interleaving expansion (binomially many positions; the tests keep it
   as their brute-force reference) is never built. Like
   [Language.intersect], except that a symbol steps exactly ONE branch and
   leaves the others in place, and acceptance requires every branch to
   accept. Bounded by [Limits] under the "shuffle-product configurations"
   resource. *)

let product ?(limits = Limits.default) branches =
  Obs.with_span "shuffle.product" @@ fun () ->
  let branches = Array.of_list branches in
  let symbols = Array.map Nfa.symbols branches in
  let fuel =
    Limits.fuel ~within:limits ~resource:"shuffle-product configurations"
      limits.Limits.max_configs
  in
  let graph =
    Explore.graph Explore.ints ~fuel ~start:(Array.map Nfa.Config.initial branches)
      ~step:(fun config emit ->
        Array.iteri
          (fun b nfa ->
            let row = Nfa.Config.row nfa config.(b) in
            Array.iter
              (fun i ->
                let config' = Array.copy config in
                config'.(b) <- row.(i);
                emit symbols.(b).(i) config')
              (Nfa.Config.live nfa config.(b)))
          branches)
      ()
  in
  Obs.count "shuffle.configs" (Array.length graph.keys);
  Nfa.of_graph
    ~accepting:(fun config ->
      let rec all b = b >= Array.length branches || (Nfa.Config.accepting branches.(b) config.(b) && all (b + 1)) in
      all 0)
    graph

let on_the_fly ?limits n1 n2 = product ?limits [ n1; n2 ]
