module Config = Nfa.Config

(* Each product symbol's index in [nfa]'s own alphabet ([-1] outside it). *)
let indices nfa syms = Array.map (Nfa.symbol_index nfa) syms

(* Breadth-first over pairs of configuration ids of two NFAs run in
   lockstep, each pair packed into one int; [bad] spots a distinguishing
   pair when it is dequeued, and breadth-first order makes the witness
   shortest. With [prune], a successor whose first side is the empty
   configuration is not emitted: from there the first automaton accepts
   nothing, so no pair after it is bad for an inclusion. *)
let find_witness ?(limits = Limits.default) ?alphabet ~prune ~bad n1 n2 =
  Obs.with_span "language.product" @@ fun () ->
  (* [n1]'s symbols ascend as [syms] do, so walking only [n1]'s live
     symbols that the alphabet has emits the unpruned successors in the
     same order. Without an explicit alphabet it is the union of both
     automata's, which holds every one of [n1]'s symbols. *)
  let symbols1 = Nfa.symbols n1 in
  let syms, in_alphabet =
    match alphabet with
    | Some set ->
      (Array.of_list (Symbol.Set.elements set), Array.map (fun sym -> Symbol.Set.mem sym set) symbols1)
    | None ->
      ( Nfa.sort_symbols (Array.append symbols1 (Nfa.symbols n2)),
        Array.make (Array.length symbols1) true )
  in
  let i1 = indices n1 syms and i2 = indices n2 syms in
  let i2_of_1 = indices n2 symbols1 in
  let fuel =
    Limits.fuel ~within:limits ~resource:"language-product configurations"
      limits.Limits.max_configs
  in
  let counts = Explore.counts () in
  let step k emit =
    let c1 = Explore.high k and c2 = Explore.low k in
    let row1 = Config.row n1 c1 in
    if prune then begin
      let live = Config.live n1 c1 in
      for j = 0 to Array.length live - 1 do
        let i = live.(j) in
        if in_alphabet.(i) then
          emit symbols1.(i) (Explore.pack row1.(i) (Config.next n2 c2 i2_of_1.(i)))
      done
    end
    else
      for j = 0 to Array.length syms - 1 do
        emit syms.(j) (Explore.pack (Config.next n1 c1 i1.(j)) (Config.next n2 c2 i2.(j)))
      done
  in
  let witness =
    Explore.witness Explore.int ~fuel ~counts
      ~goal:(fun k ->
        bad (Config.accepting n1 (Explore.high k)) (Config.accepting n2 (Explore.low k)))
      ~start:(Explore.pack (Config.initial n1) (Config.initial n2))
      ~step ()
  in
  Obs.count "language.configs" counts.states;
  witness

let inclusion_counterexample ?limits ?alphabet ~impl ~spec () =
  find_witness ?limits ?alphabet ~prune:true ~bad:(fun a b -> a && not b) impl spec

let included ?limits ?alphabet ~impl ~spec () =
  Option.is_none (inclusion_counterexample ?limits ?alphabet ~impl ~spec ())

let equivalence_counterexample ?limits n1 n2 =
  find_witness ?limits ~prune:false ~bad:(fun a b -> a <> b) n1 n2

let equivalent ?limits n1 n2 = Option.is_none (equivalence_counterexample ?limits n1 n2)

(* Reachable pairs of non-empty configurations, each one product state; the
   result is ε-free by construction. *)
let intersect ?(limits = Limits.default) n1 n2 =
  Obs.with_span "language.intersect" @@ fun () ->
  let symbols1 = Nfa.symbols n1 in
  let i2_of_1 = indices n2 symbols1 in
  let fuel =
    Limits.fuel ~within:limits ~resource:"intersection-product configurations"
      limits.Limits.max_configs
  in
  Explore.graph Explore.int ~fuel ~start:(Explore.pack (Config.initial n1) (Config.initial n2))
    ~step:(fun k emit ->
      let c1 = Explore.high k and c2 = Explore.low k in
      let row1 = Config.row n1 c1 in
      Array.iter
        (fun i ->
          let d2 = Config.next n2 c2 i2_of_1.(i) in
          if d2 <> Config.empty then emit i (Explore.pack row1.(i) d2))
        (Config.live n1 c1))
    ()
  |> Nfa.of_graph ~symbols:symbols1 ~accepting:(fun k ->
         Config.accepting n1 (Explore.high k) && Config.accepting n2 (Explore.low k))
