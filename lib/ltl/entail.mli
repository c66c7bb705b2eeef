(** Claim implication relative to a model's language.

    [implies s ~hyps goal] decides [L(impl) ⊨ (∧ hyps) ⇒ goal] for the
    implementation automaton [impl] of session [s]: does every trace the
    implementation can produce that satisfies all hypothesis claims also
    satisfy the goal claim? This is the entailment every claim question on
    the check and lint paths is built on.

    The decision procedure never builds a full automaton for any formula.
    It explores — breadth-first, so counterexamples come out shortest-first —
    the product of the implementation NFA's configurations with one
    obligation node per formula, where {!Progression.step} is a
    deterministic, on-the-fly tableau step. Product states are memoized on
    the (configuration, obligation vector) pair, so only states reachable
    under model-feasible traces are ever materialized: where the strict
    construction (full tableau → subset construction → language inclusion)
    pays for the whole obligation closure, this pays only for the slice the
    model can reach.

    A {!session} lives as long as one class's checks and holds what its
    queries share: one {!Progression.space} for every obligation, and the
    obligation vectors interned to ids. Configurations of [impl] are ids in
    [impl]'s own table ({!Nfa.Config}), which every other product over
    [impl] shares too. Each query still runs its own search, keyed on the
    (configuration id, vector id) pair packed into one int. In
    one space equal nodes are equal Boolean functions, so a query's
    verdict, trace and [entail.states] are those of a fresh session,
    whatever the session was asked before — as long as the space stays
    under its node cap. There is no process-wide cache: a session dies with
    its class.

    Exploration is budgeted per query: at most [fuel] product states
    (default [limits.max_configs] of the session) are materialized, after
    which the verdict degrades to {!Unknown} instead of raising — callers
    downgrade gracefully rather than reporting findings they could not
    prove. The obligation-node cap, [limits.max_regex_size], bounds the
    whole session's space, so a query can find it already crossed by
    earlier ones; no CLI flag or serve parameter sets it. Obs counters
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

type session
(** One implementation automaton's queries: one obligation space and its
    interned obligation vectors. *)

val session : ?limits:Limits.t -> impl:Nfa.t -> unit -> session
(** A session over [impl]. [limits] gives each query's default fuel, the
    ledger the fuel is drawn from, and the session's obligation-node cap.
    Opening one is cheap: its tables fill as queries run. *)

val impl : session -> Nfa.t
(** The session's implementation automaton. *)

val implies : session -> ?fuel:int -> hyps:Ltlf.t list -> Ltlf.t -> verdict
(** [implies s ~hyps goal] — [L(impl) ⊨ (∧ hyps) ⇒ goal]. The product steps
    only on [impl]'s alphabet: an atom outside it never holds on a model
    trace. With [hyps = []] this asks whether the model's language alone
    already guarantees [goal]. Never raises for budget reasons: all
    {!Limits.Budget_exceeded} during exploration degrade to {!Unknown}. *)

val joint_witness : session -> ?fuel:int -> Ltlf.t list -> (Trace.t option, budget) result
(** [joint_witness s fs] — is [L(impl) ∩ L(f₁) ∩ … ∩ L(fₖ)] nonempty?
    [Ok (Some tr)] is the shortest model trace satisfying every formula;
    [Ok None] means no model trace satisfies them all (for a claim pair:
    they are contradictory over the model); [Error b] means the budget ran
    out first. *)
