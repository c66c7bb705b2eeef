(** Claim implication relative to a model's language.

    [implies ~impl ~hyps goal] decides [L(impl) ⊨ (∧ hyps) ⇒ goal]: does
    every trace the implementation can produce that satisfies all hypothesis
    claims also satisfy the goal claim? This is the entailment the lint
    rules SY104/SY109–SY111 and [shelley claims] are built on.

    The decision procedure never builds a full automaton for any formula.
    It explores — breadth-first, so counterexamples come out shortest-first —
    the product of the implementation NFA's configurations with one
    obligation node per formula, all in one {!Progression.space}, where
    {!Progression.step} is a deterministic, on-the-fly tableau step.
    Product states are memoized on the (configuration, obligation vector)
    pair, so only states reachable under model-feasible traces are ever
    materialized: where the strict construction (full tableau → subset
    construction → language inclusion) pays for the whole obligation
    closure, this pays only for the slice the model can reach.

    Exploration is budgeted: at most [fuel] product states (default
    [limits.max_configs]) are materialized, after which the verdict degrades
    to {!Unknown} instead of raising — callers downgrade gracefully rather
    than reporting findings they could not prove. Obs counters
    [entail.states] and [entail.memo_hits] feed [--stats]/[--metrics-out];
    the callers that drop an {!Unknown} silently (the claim-set lint rules,
    [shelley claims], [check --explain]) count it as
    [entail.budget_exhausted]. *)

type budget = {
  resource : string;
      (** which budget ran out: ["entailment configurations"] (product
          states) or ["obligation nodes"] (the obligation space) *)
  limit : int;  (** its limit at the time *)
}

type verdict =
  | Entailed  (** every model trace satisfying the hypotheses satisfies the goal *)
  | Not_entailed of Trace.t
      (** shortest model trace satisfying every hypothesis but violating the
          goal — a concrete refutation, replayable through {!Ltlf.holds} *)
  | Unknown of budget  (** exploration budget exhausted before a verdict *)

val pp_verdict : Format.formatter -> verdict -> unit

val implies :
  ?limits:Limits.t ->
  ?fuel:int ->
  ?alphabet:Symbol.Set.t ->
  impl:Nfa.t ->
  hyps:Ltlf.t list ->
  Ltlf.t ->
  verdict
(** [implies ~impl ~hyps goal] — [L(impl) ⊨ (∧ hyps) ⇒ goal]. The product
    alphabet is the union of [impl]'s alphabet, every formula's atoms and
    [alphabet]. With [hyps = []] this asks whether the model's language
    alone already guarantees [goal]. Never raises for budget reasons: all
    {!Limits.Budget_exceeded} during exploration degrade to {!Unknown}. *)

val joint_witness :
  ?limits:Limits.t ->
  ?fuel:int ->
  ?alphabet:Symbol.Set.t ->
  impl:Nfa.t ->
  Ltlf.t list ->
  (Trace.t option, budget) result
(** [joint_witness ~impl fs] — is [L(impl) ∩ L(f₁) ∩ … ∩ L(fₖ)] nonempty?
    [Ok (Some tr)] is the shortest model trace satisfying every formula;
    [Ok None] means no model trace satisfies them all (for a claim pair:
    they are contradictory over the model); [Error b] means the budget ran
    out first. *)

val oracle_implies :
  ?limits:Limits.t ->
  ?alphabet:Symbol.Set.t ->
  impl:Nfa.t ->
  hyps:Ltlf.t list ->
  Ltlf.t ->
  verdict
(** The strict construction the on-the-fly engine is differentially tested
    (and benchmarked) against: full tableau NFAs for the hypotheses
    intersected into [impl], a full tableau → subset-construction DFA for
    the goal, then language inclusion. Same verdicts, same budget
    degradation to {!Unknown} — but it materializes whole obligation
    closures, so on adversarial claim sets it exhausts fuel where
    {!implies} answers. *)
