(** Tableau-style LTLf → NFA construction.

    A strict construction kept as a test oracle: {!Ltl_oracle.oracle_implies},
    the tests and the benches build it, while every claim on the [check] and
    [lint] paths is decided by the on-the-fly {!Entail} product. Where
    {!Progression} rewrites one obligation *formula* per step (yielding a
    deterministic automaton whose states are formulas), the tableau works on
    obligation *sets*: a formula in negation normal form is decomposed by
    the classical α/β rules

    {v
    φ∧ψ ⇒ {φ, ψ}            φ∨ψ ⇒ {φ} | {ψ}
    Gφ  ⇒ {φ, WX Gφ}        Fφ   ⇒ {φ} | {X Fφ}
    φUψ ⇒ {ψ} | {φ, X(φUψ)}  φWψ ⇒ {ψ} | {φ, WX(φWψ)}
    v}

    down to *elementary* sets containing only literals and [X]/[WX]
    obligations. Elementary sets are the NFA states: a transition on event
    [e] exists when the literals are consistent with [e], and leads to the
    expansions of the carried next-obligations; a state is accepting when
    the trace may end there (no positive literal, no strong [X]).

    The construction is nondeterministic (β-rules branch), so the result is
    a genuine NFA; the test-suite proves it language-equal to the
    progression DFA, and the benchmark harness compares sizes and
    construction cost (DESIGN.md decision 5). *)

val to_nfa : ?limits:Limits.t -> alphabet:Symbol.t list -> Ltlf.t -> Nfa.t
(** The input is normalized with {!Nnf.nnf} first. The [alphabet] bounds the
    transition labels exactly as in {!Progression.to_dfa}.
    @raise Limits.Budget_exceeded beyond [limits.max_states] (default
    {!Limits.default}) states. *)

val elementary_sets : Ltlf.t -> Ltlf.t list list
(** The initial elementary sets of (the NNF of) a formula, sorted — exposed
    for tests. *)
