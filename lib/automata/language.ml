let pair_key = Explore.pair States.key States.key

(* Breadth-first over pairs of ε-closed configurations of two NFAs run in
   lockstep; [bad] spots a distinguishing pair when it is dequeued, and
   breadth-first order makes the witness shortest. *)
let find_witness ?(limits = Limits.default) ?alphabet ~bad n1 n2 =
  Obs.with_span "language.product" @@ fun () ->
  let alphabet =
    match alphabet with
    | Some set -> set
    | None -> Symbol.Set.union (Nfa.alphabet n1) (Nfa.alphabet n2)
  in
  let syms = Symbol.Set.elements alphabet in
  let fuel =
    Limits.fuel ~within:limits ~resource:"language-product configurations"
      limits.Limits.max_configs
  in
  let counts = Explore.counts () in
  let witness =
    Explore.witness pair_key ~fuel ~counts
      ~goal:(fun (c1, c2) -> bad (Nfa.accepting_config n1 c1) (Nfa.accepting_config n2 c2))
      ~start:(Nfa.initial_config n1, Nfa.initial_config n2)
      ~step:(fun (c1, c2) emit ->
        List.iter (fun sym -> emit sym (Nfa.step n1 c1 sym, Nfa.step n2 c2 sym)) syms)
      ()
  in
  Obs.count "language.configs" counts.states;
  witness

let inclusion_counterexample ?limits ?alphabet ~impl ~spec () =
  find_witness ?limits ?alphabet ~bad:(fun a b -> a && not b) impl spec

let included ?limits ?alphabet ~impl ~spec () =
  Option.is_none (inclusion_counterexample ?limits ?alphabet ~impl ~spec ())

let equivalence_counterexample ?limits n1 n2 =
  find_witness ?limits ~bad:(fun a b -> a <> b) n1 n2

let equivalent ?limits n1 n2 = Option.is_none (equivalence_counterexample ?limits n1 n2)

(* Reachable pairs of non-empty configurations, each one product state; the
   result is ε-free by construction. *)
let intersect ?(limits = Limits.default) n1 n2 =
  Obs.with_span "language.intersect" @@ fun () ->
  let syms = Symbol.Set.elements (Symbol.Set.inter (Nfa.alphabet n1) (Nfa.alphabet n2)) in
  let fuel =
    Limits.fuel ~within:limits ~resource:"intersection-product configurations"
      limits.Limits.max_configs
  in
  Explore.graph pair_key ~fuel ~start:(Nfa.initial_config n1, Nfa.initial_config n2)
    ~step:(fun (c1, c2) emit ->
      List.iter
        (fun sym ->
          let d1 = Nfa.step n1 c1 sym in
          let d2 = Nfa.step n2 c2 sym in
          if not (States.Set.is_empty d1 || States.Set.is_empty d2) then emit sym (d1, d2))
        syms)
    ()
  |> Nfa.of_graph ~accepting:(fun (c1, c2) ->
         Nfa.accepting_config n1 c1 && Nfa.accepting_config n2 c2)
