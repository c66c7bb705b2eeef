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
    [impl] shares too. Each query runs its own search, keyed on the
    (configuration id, vector id) pair packed into one int; a {!table}
    answers many questions over one formula list with one search. In
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

(** {1 Claim tables}

    A class asks many questions of one model about the same few claims:
    is a claim entailed, by the model alone or with other claims as
    hypotheses, and which claims can hold together. Each is a predicate on
    the claims' truth values at the end of a model trace, so one search
    answers them all: the product of the model with the obligations of
    every claim, each state carrying the claims' truth vector there. *)

type table
(** The answers to every implication and witness question over one
    formula list, or — when building them ran out of budget — the means to
    ask each question per query. *)

val table : session -> ?fuel:int -> Ltlf.t list -> table
(** [table s fs] explores, breadth-first and in full, the product of [s]'s
    implementation with the obligations of every formula of [fs], under
    the [fuel] one query gets (default [limits.max_configs]). No state is
    pruned: a state where one formula is already false still decides the
    others. The table keeps each distinct truth vector of an accepting
    state, in the order the search first reached it, with the path there.
    It searches in an obligation space of its own and counts its states in
    [entail.states] under an [entail.table] span.

    If the fuel or the obligation-node cap runs out, every question is
    asked per query instead, with {!implies} and {!joint_witness} in [s]
    under the same [fuel], exactly as if there were no table. Each of those
    queries explores a projection of the table's states, so none runs out
    of fuel where the table did not: no verdict or trace depends on which
    way a question is answered. *)

val tabled : table -> bool
(** Did the table's search stay in budget? [false] means its questions are
    answered per query. *)

val table_implies : table -> hyps:int list -> int -> verdict
(** [table_implies t ~hyps goal] = [implies s ~hyps:(fᵢ for i in hyps) f_goal],
    indices into the table's formula list. In budget, the answer is the
    first truth vector with every hypothesis true and the goal false: its
    trace is the shortlex-least counterexample, the one {!implies}
    returns; none means {!Entailed}. *)

val table_witness : table -> int list -> (Trace.t option, budget) result
(** [table_witness t is] = [joint_witness s (fᵢ for i in is)]: the first
    truth vector with every listed formula true. *)
