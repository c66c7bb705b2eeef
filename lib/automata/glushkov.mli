(** Glushkov's (position automaton) construction: regex → ε-free NFA.

    Each occurrence of a symbol in the expression becomes one state, plus a
    single initial state; there are no ε-transitions, so the automaton is
    ready for simulation or subset construction without closure computation.
    Computed from the classic [first]/[last]/[follow] position sets.

    Shuffle nodes cannot be expressed as position automata; {!of_regex}
    dispatches them to {!Shuffle_nfa.on_the_fly} (bounded by [limits]) and
    glues mixed operators with the ε-transition combinators, so the result
    for expressions containing [∥] may carry ε-transitions. *)

val of_regex : ?limits:Limits.t -> Regex.t -> Nfa.t
(** For shuffle-free expressions: states [0] initial, state [i ≥ 1] the
    i-th symbol position in left-to-right order, labeled with that symbol's
    name — the classic construction, unchanged. Expressions with [∥] go
    through the shuffle product; [limits] bounds that exploration
    ({!Limits.Budget_exceeded} under ["shuffle-product configurations"]). *)

val of_regex_classic : Regex.t -> Nfa.t
(** The raw position construction. Raises [Invalid_argument] on [Shuffle]. *)

val embed :
  ?limits:Limits.t -> Nfa.Builder.t -> edge:(int -> Symbol.t -> int -> unit) -> Regex.t -> int list
(** [embed b ~edge r] copies [of_regex r] into [b], for a caller that
    assembles a larger automaton (the class expansion, {!Usage}): its
    states become one fresh block of [b], each of its edges [(src, sym,
    dst)] is handed to [edge] in [b]'s numbering (in no order, possibly
    repeated), and its ε-edges go into [b] as they are. Returns its start
    states. Its labels are not copied. A shuffle-free [r] is copied from
    its positions, without building its automaton. *)
