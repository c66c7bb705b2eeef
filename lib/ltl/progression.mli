(** Formula progression over a finite obligation space, and the LTLf → DFA
    construction.

    [progress φ e] rewrites φ into the obligation that the *rest* of the
    trace must satisfy after observing event [e] — the classic
    Bacchus–Kabanza progression adapted to finite traces: strong next [X φ]
    progresses to [nonempty ∧ φ] (encoded as [F true ∧ φ]) and weak next to
    [¬nonempty ∨ φ], so end-of-trace acceptance is decided uniformly by
    evaluating the obligation on the empty trace.

    An obligation is a reduced ordered BDD node, hash-consed in a {!space},
    over literals: subformulas whose top is temporal or an atom. Node [0]
    is false and node [1] true. Progressing a literal gives a Boolean
    combination of literals from the input's finite subformula closure, so
    a space holds finitely many obligations, each exploration terminates,
    and its states form a *deterministic* automaton directly. This realizes
    the paper's §5 remark about checking claims directly on regular
    languages (no NuSMV detour). *)

val progress : Ltlf.t -> Symbol.t -> Ltlf.t

type space
(** A set of obligations, every operation on them memoized: those of one
    {!Entail.session}, which outlives each query, or of one {!to_dfa}.
    Within one space equal nodes are equal Boolean functions, whatever was
    built in it before. Past [limits.max_regex_size] nodes in the whole
    space the operations below raise {!Limits.Budget_exceeded}
    (["obligation nodes"]), never run out of memory; no CLI flag or serve
    parameter sets that cap. *)

val space : ?limits:Limits.t -> unit -> space

val obligation : space -> Ltlf.t -> int
(** [And]/[Or]/[Not] become BDD operations, so no negation normal form is
    needed. *)

val step : space -> int -> Symbol.t -> int
(** Node [(v, lo, hi)] steps by [e] to [ite (progress v e, step hi e,
    step lo e)], memoized per node and event. *)

type event
(** An event resolved to its memo slot in one space. *)

val event : space -> Symbol.t -> event

val step_all : space -> int array -> event -> int array
(** [Array.map (fun n -> step sp n e)], with no lookup of [e]'s slot. *)

val accepts_empty : space -> int -> bool
(** The node evaluated with each literal's value on the empty trace. *)

val to_dfa : ?limits:Limits.t -> alphabet:Symbol.t list -> Ltlf.t -> Dfa.t
(** The progression DFA over the given alphabet. The alphabet must cover
    every event the checked system can emit (atoms outside it can never
    hold, which is almost never what a claim means). The closure is finite
    but can be doubly exponential in the formula size, so at most
    [limits.max_states] obligations are discovered.
    @raise Limits.Budget_exceeded beyond [limits.max_states] states or
    [limits.max_regex_size] nodes. *)
