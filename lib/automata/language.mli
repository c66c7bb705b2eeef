(** Language-level comparisons between NFAs.

    These are the checks the Shelley verifier actually issues: is every trace
    an implementation can produce allowed by a specification, and if not,
    what is the shortest offending trace. Implemented by an on-the-fly
    product of subset constructions — no full determinization when a
    counterexample is close to the start state. Each side steps through
    its automaton's configuration table ({!Nfa.Config}), and a product
    state is the pair of ids packed into one int.

    Every comparison explores at most [limits.max_configs] product
    configurations (default {!Limits.default}) and raises
    {!Limits.Budget_exceeded} beyond that, so an exponential product
    terminates with a typed error instead of exhausting memory. *)

val inclusion_counterexample :
  ?limits:Limits.t ->
  ?alphabet:Symbol.Set.t ->
  impl:Nfa.t ->
  spec:Nfa.t ->
  unit ->
  Trace.t option
(** Shortest trace accepted by [impl] but not by [spec]. The alphabet
    defaults to the union of both automata's alphabets; pass a larger one if
    the implementation may emit symbols neither mentions. A pair whose
    [impl] side is the empty configuration is never explored (no trace
    through it is accepted by [impl]), so it is neither counted nor
    charged.
    @raise Limits.Budget_exceeded when the configuration budget runs out. *)

val included :
  ?limits:Limits.t -> ?alphabet:Symbol.Set.t -> impl:Nfa.t -> spec:Nfa.t -> unit -> bool

val equivalence_counterexample : ?limits:Limits.t -> Nfa.t -> Nfa.t -> Trace.t option
(** Shortest trace in exactly one of the two languages. *)

val equivalent : ?limits:Limits.t -> Nfa.t -> Nfa.t -> bool

val intersect : ?limits:Limits.t -> Nfa.t -> Nfa.t -> Nfa.t
(** Product NFA accepting the intersection (ε-transitions are handled by
    closing configurations on the fly; the result is ε-free).
    @raise Limits.Budget_exceeded when the configuration budget runs out. *)
