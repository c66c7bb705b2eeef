type budget = {
  resource : string;
  limit : int;
}

type verdict =
  | Entailed
  | Not_entailed of Trace.t
  | Unknown of budget

let pp_verdict fmt = function
  | Entailed -> Format.pp_print_string fmt "entailed"
  | Not_entailed tr -> Format.fprintf fmt "not entailed (counterexample: %a)" Trace.pp tr
  | Unknown b -> Format.fprintf fmt "unknown (%s budget of %d exhausted)" b.resource b.limit

let entail_resource = "entailment configurations"

(* A product state: one ε-closed configuration of the implementation NFA
   plus one obligation node per tracked formula. Memoization keys on the
   whole vector, so each reachable pair is expanded exactly once. *)
let product_key = Explore.pair States.key (Explore.list (module Int))

let full_alphabet alphabet impl formulas =
  List.fold_left
    (fun acc f -> Symbol.Set.union acc (Ltlf.atoms f))
    (Symbol.Set.union alphabet (Nfa.alphabet impl))
    formulas

(* Shortest trace in L(impl) ∩ L(f₁) ∩ … ∩ L(fₖ), by BFS over the memoized
   on-the-fly product. Only states reachable under model-feasible traces are
   materialized: an empty implementation configuration is never emitted, and
   a state whose obligation vector contains false (node 0) is dead and not
   expanded. *)
let joint_witness ?(limits = Limits.default) ?fuel ?(alphabet = Symbol.Set.empty) ~impl
    formulas =
  Obs.with_span "entail.product" @@ fun () ->
  let events = Symbol.Set.elements (full_alphabet alphabet impl formulas) in
  let limit = Option.value fuel ~default:limits.Limits.max_configs in
  let budget = Limits.fuel ~within:limits ~resource:entail_resource limit in
  let sp = Progression.space ~limits () in
  let accepting (config, obligations) =
    Nfa.accepting_config impl config && List.for_all (Progression.accepts_empty sp) obligations
  in
  let counts = Explore.counts () in
  let result =
    match
      Explore.witness product_key ~fuel:budget ~counts ~test:On_discovery
        ~goal:accepting
        ~start:(Nfa.initial_config impl, List.map (Progression.obligation sp) formulas)
        ~step:(fun (config, obligations) emit ->
          if not (List.mem 0 obligations) then
            List.iter
              (fun e ->
                let config' = Nfa.step impl config e in
                if not (States.Set.is_empty config') then
                  emit e (config', List.map (fun o -> Progression.step sp o e) obligations))
              events)
        ()
    with
    | witness -> Ok witness
    | exception Limits.Budget_exceeded { resource; limit } -> Error { resource; limit }
  in
  Obs.count "entail.states" counts.states;
  Obs.count "entail.memo_hits" counts.memo_hits;
  result

let implies ?limits ?fuel ?alphabet ~impl ~hyps goal =
  Obs.with_span "entail.implies" @@ fun () ->
  (* L(impl) ⊨ (∧ hyps) ⇒ goal  ⟺  L(impl) ∩ L(∧ hyps) ∩ L(¬goal) = ∅.
     The goal's own atoms must stay in the product alphabet even though only
     its negation is tracked, so pass them explicitly. *)
  let alphabet =
    Symbol.Set.union (Option.value ~default:Symbol.Set.empty alphabet) (Ltlf.atoms goal)
  in
  match joint_witness ?limits ?fuel ~alphabet ~impl (hyps @ [ Ltlf.neg goal ]) with
  | Ok None -> Entailed
  | Ok (Some tr) -> Not_entailed tr
  | Error b -> Unknown b

(* The strict construction: whole tableau NFAs, a full subset-construction
   DFA for the goal, then language inclusion. Differential oracle for tests
   and the bench baseline; it pays for entire obligation closures up front,
   which is exactly what the on-the-fly product avoids. *)
let oracle_implies ?(limits = Limits.default) ?(alphabet = Symbol.Set.empty) ~impl ~hyps
    goal =
  Obs.with_span "entail.oracle" @@ fun () ->
  let alphabet = full_alphabet (Ltlf.atoms goal) impl (goal :: hyps) |> Symbol.Set.union alphabet in
  let alpha_list = Symbol.Set.elements alphabet in
  try
    let constrained =
      List.fold_left
        (fun acc f ->
          Language.intersect ~limits acc (Tableau.to_nfa ~limits ~alphabet:alpha_list f))
        impl hyps
    in
    let spec =
      Dfa.to_nfa
        (Determinize.determinize ~limits ~alphabet:alpha_list
           (Tableau.to_nfa ~limits ~alphabet:alpha_list goal))
    in
    match
      Language.inclusion_counterexample ~limits ~alphabet ~impl:constrained ~spec ()
    with
    | None -> Entailed
    | Some tr -> Not_entailed tr
  with Limits.Budget_exceeded { resource; limit } ->
    Obs.count "entail.oracle_budget_exhausted" 1;
    Unknown { resource; limit }
