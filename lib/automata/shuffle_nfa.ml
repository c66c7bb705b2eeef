(* On-the-fly shuffle product: configurations are arrays of per-branch
   configuration ids, interned as they are reached — the eager
   interleaving expansion (binomially many positions; the tests keep it
   as their brute-force reference) is never built. Like
   [Language.intersect], except that a symbol steps exactly ONE branch and
   leaves the others in place, and acceptance requires every branch to
   accept. Bounded by [Limits] under the "shuffle-product configurations"
   resource. *)

(* The union of the branches' alphabets, and each branch's symbol indices
   renumbered into it: the product's edges carry union indices as their
   labels, so its alphabet is the branch symbols its edges used. *)
let alphabet branches =
  let symbols = Nfa.sort_symbols (Array.concat (Array.to_list (Array.map Nfa.symbols branches))) in
  (symbols, Array.map (fun nfa -> Array.map (Nfa.find_symbol symbols) (Nfa.symbols nfa)) branches)

let product ?(limits = Limits.default) branches =
  Obs.with_span "shuffle.product" @@ fun () ->
  let branches = Array.of_list branches in
  let symbols, index = alphabet branches in
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
                emit index.(b).(i) config')
              (Nfa.Config.live nfa config.(b)))
          branches)
      ()
  in
  Obs.count "shuffle.configs" (Array.length graph.keys);
  Nfa.of_graph ~symbols
    ~accepting:(fun config ->
      let rec all b = b >= Array.length branches || (Nfa.Config.accepting branches.(b) config.(b) && all (b + 1)) in
      all 0)
    graph

let on_the_fly ?limits n1 n2 = product ?limits [ n1; n2 ]
