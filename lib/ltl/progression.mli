(** Formula progression and the LTLf → DFA construction.

    [progress φ e] rewrites φ into the obligation that the *rest* of the
    trace must satisfy after observing event [e] — the classic
    Bacchus–Kabanza progression adapted to finite traces: strong next [X φ]
    progresses to [nonempty ∧ φ] (encoded as [F true ∧ φ]) and weak next to
    [¬nonempty ∨ φ], so end-of-trace acceptance is decided uniformly by
    evaluating the state formula on the empty trace.

    Because obligations are built from subformulas of φ closed under ∧/∨,
    ACI-normalization ({!normalize}) makes the state space finite, giving a
    *deterministic* automaton directly: states are normal forms, the
    transition function is progression, and a state accepts iff its formula
    holds of the empty trace. This realizes the paper's §5 remark about
    checking claims directly on regular languages (no NuSMV detour). *)

val progress : Ltlf.t -> Symbol.t -> Ltlf.t
(** One-event progression (result not yet normalized). *)

val normalize : Ltlf.t -> Ltlf.t
(** Negation normal form followed by ACI normalization (And/Or chains
    flattened, sorted, deduplicated, unit/absorption laws applied).
    Language-preserving; guarantees the obligation closure is finite. *)

val accepts_empty : Ltlf.t -> bool
(** Does the empty remainder satisfy the obligation? *)

val to_dfa : ?limits:Limits.t -> alphabet:Symbol.t list -> Ltlf.t -> Dfa.t
(** The progression DFA over the given alphabet. The alphabet must cover
    every event the checked system can emit (atoms outside it can never
    hold, which is almost never what a claim means).

    The obligation closure can be doubly exponential in the formula size,
    and single obligations can keep growing from step to step; the
    construction discovers at most [limits.max_states] obligations (default
    {!Limits.default}), each at most 64 times the size of the normalized
    input (and at most [limits.max_regex_size]), turning a pathological
    claim into a clean typed error instead of an apparent hang.
    @raise Limits.Budget_exceeded beyond [limits.max_states] states or when
    an obligation outgrows that size cap. *)

val num_reachable_obligations : alphabet:Symbol.t list -> Ltlf.t -> int
(** Size of the progression state space (before DFA minimization) —
    benchmarked against the formula size. *)
