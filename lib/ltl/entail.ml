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
   plus one progression obligation per tracked formula. Memoization keys
   on the whole vector, so each reachable triple is expanded exactly once. *)
let product_key = Explore.pair States.key (Explore.list Ltlf.key)

(* One progression step, keyed on (obligation, event), hashed by the whole
   obligation as every other obligation table is. *)
module Step = Hashtbl.Make
  ((val Explore.pair Ltlf.key (module Symbol) : Explore.KEY
     with type t = Ltlf.t * Symbol.t))

let full_alphabet alphabet impl formulas =
  List.fold_left
    (fun acc f -> Symbol.Set.union acc (Ltlf.atoms f))
    (Symbol.Set.union alphabet (Nfa.alphabet impl))
    formulas

(* Shortest trace in L(impl) ∩ L(f₁) ∩ … ∩ L(fₖ), by BFS over the memoized
   on-the-fly product. Only states reachable under model-feasible traces are
   materialized; states whose implementation configuration is empty or whose
   obligation vector contains False are dead and pruned without expansion. *)
let joint_witness ?(limits = Limits.default) ?fuel ?(alphabet = Symbol.Set.empty) ~impl
    formulas =
  Obs.with_span "entail.product" @@ fun () ->
  let events = Symbol.Set.elements (full_alphabet alphabet impl formulas) in
  let limit =
    match fuel with
    | Some n -> n
    | None -> limits.Limits.max_configs
  in
  let budget = Limits.fuel ~within:limits ~resource:entail_resource limit in
  (* Progression can re-embed the whole formula at every step (U, W, G all
     keep themselves as a conjunct), so obligation vectors can grow linearly
     with BFS depth even though each product state costs only one unit of
     fuel — enough to exhaust memory long before the state budget trips.
     Cap the vector size relative to its initial size: well-behaved formulas
     progress into subformula combinations and never approach the cap, while
     runaway growth degrades to [Unknown] in a few steps. Not recorded in
     the ledger: the cap is a guard, not a construction's fuel. *)
  let vector_size = List.fold_left (fun acc o -> acc + Ltlf.size o) 0 in
  let size_cap =
    let initial =
      vector_size (List.map Progression.normalize formulas) + List.length formulas + 1
    in
    min limits.Limits.max_regex_size (64 * initial)
  in
  let check_size obligations =
    Limits.check ~resource:"entailment obligation size" ~limit:size_cap
      (vector_size obligations)
  in
  let accepting (config, obligations) =
    Nfa.accepting_config impl config && List.for_all Progression.accepts_empty obligations
  in
  let dead (config, obligations) =
    States.Set.is_empty config || List.exists (fun o -> o = Ltlf.ff) obligations
  in
  (* Many product states share an obligation, so each (obligation, event)
     progression is normalized once per query. *)
  let steps = Step.create 64 in
  let progress o e =
    match Step.find_opt steps (o, e) with
    | Some o' -> o'
    | None ->
      let o' = Progression.normalize (Progression.progress o e) in
      Step.add steps (o, e) o';
      o'
  in
  let counts = Explore.counts () in
  let result =
    match
      Explore.witness product_key ~fuel:budget ~counts ~test:On_discovery
        ~goal:(fun key ->
          check_size (snd key);
          accepting key)
        ~start:(Nfa.initial_config impl, List.map Progression.normalize formulas)
        ~step:(fun ((config, obligations) as key) emit ->
          if not (dead key) then
            List.iter
              (fun e ->
                let config' = Nfa.step impl config e in
                if not (States.Set.is_empty config') then
                  emit e (config', List.map (fun o -> progress o e) obligations))
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
