(* Reference versions of the LTLf claim engine: the strict construction
   and the bounded word check that Entail's on-the-fly product and
   Ltl_check are compared against, and the size of a formula's whole
   progression closure. *)

(* The strict construction: whole tableau NFAs for the hypotheses
   intersected into [impl], a full subset-construction DFA for the goal's
   tableau, then language inclusion. Same verdicts and the same budget
   degradation to [Unknown] as [Entail.implies], but it pays for entire
   obligation closures up front, which is exactly what the on-the-fly
   product avoids: on adversarial claim sets it runs out of fuel where
   [Entail.implies] answers. *)
let oracle_implies ?(limits = Limits.default) ?(alphabet = Symbol.Set.empty) ~impl ~hyps
    goal =
  let alphabet =
    List.fold_left
      (fun acc f -> Symbol.Set.union acc (Ltlf.atoms f))
      (Symbol.Set.union alphabet (Nfa.alphabet impl))
      (goal :: hyps)
  in
  let alpha_list = Symbol.Set.elements alphabet in
  try
    let constrained =
      List.fold_left
        (fun acc f ->
          Language.intersect ~limits acc (Tableau.to_nfa ~limits ~alphabet:alpha_list f))
        impl hyps
    in
    let spec =
      Dfa_oracle.to_nfa
        (Determinize.determinize ~limits ~alphabet:alpha_list
           (Tableau.to_nfa ~limits ~alphabet:alpha_list goal))
    in
    match
      Language.inclusion_counterexample ~limits ~alphabet ~impl:constrained ~spec ()
    with
    | None -> Entail.Entailed
    | Some tr -> Entail.Not_entailed tr
  with Limits.Budget_exceeded { resource; limit } -> Entail.Unknown { resource; limit }

(* [Ltl_check.check] without the product: evaluate [Ltlf.holds] directly
   on every accepted word of [impl] up to [max_len]. *)
let holds_on_all_words ~max_len formula impl =
  Trace.Set.for_all (fun w -> Ltlf.holds formula w) (Nfa.words_upto ~max_len impl)

(* Size of the progression state space (before DFA minimization),
   benchmarked against the formula size. *)
let num_reachable_obligations ~alphabet f = Dfa.num_states (Progression.to_dfa ~alphabet f)
