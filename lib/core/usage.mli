(** Subsystem-usage verification (§2.2, "Verifying object usage").

    For a composite class, every valid sequence of its operations (per its
    own model) induces a sequence of subsystem calls (per the operations'
    inferred behaviors). Each declared subsystem's induced call sequence must
    be a valid usage of that subsystem's own model. A violation yields the
    paper's INVALID SUBSYSTEM USAGE report with a shortest mixed
    counterexample such as [open_a, a.test, a.open].

    The verdict for a field is decided by projection. With h the
    homomorphism that erases every symbol but the field's calls, the check
    [L(expansion) ⊆ h⁻¹(L(spec))] is the same question as
    [h(L(expansion)) ⊆ L(spec)]. Calls on other fields are erased from each
    operation's behavior regex before any automaton is built
    ({!Regex.project}), and operation entries once the expansion is
    assembled. Only a field that fails pays for the unprojected search over
    the full expansion, and its shortest witness is the one reported. *)

type env = string -> Model.t option
(** Resolve a class name to its extracted model. *)

val expanded_nfa : ?limits:Limits.t -> Model.t -> Nfa.t
(** The composite's *expanded* automaton: words interleave operation-entry
    events (the bare operation name, e.g. [open_a]) with the subsystem calls
    the operation's body performs (e.g. [a.test]). Acceptance at the
    completion of a final operation, or immediately (unused object).
    Subsystems whose class is unknown to [env] still contribute their call
    events (they are checked by {!Invocation} instead). *)

val projected_nfa : ?limits:Limits.t -> Model.t -> field:string -> Nfa.t
(** The field's projection of {!expanded_nfa}, the automaton {!holds}
    searches: the same assembly from each operation's behavior with every
    symbol but the field's calls erased (first from the behaviors, before
    any automaton is built, then from the operation entries as they are
    copied in). Its boundary states carry no labels. *)

val project_subsystem : field:string -> Trace.t -> string list
(** Keep only the calls of one subsystem field, unqualified:
    [open_a, a.test, a.open] projected on [a] is [test; open]. *)

val subsystem_spec_nfa : env:env -> field:string -> subsystem_class:string -> Nfa.t option
(** The subsystem's usage automaton, relabeled to the composite's view
    ([test] → [a.test]). [None] when the class is not in the environment. *)

val holds :
  ?limits:Limits.t -> env:env -> Model.t -> field:string -> subsystem_class:string -> bool
(** The projected verdict alone: does every call sequence the composite
    induces on [field] follow the subsystem's protocol? [true] when the
    class is not in [env]. Exact, and builds no automaton for work that
    never touches [field].
    @raise Limits.Budget_exceeded when the projected search runs out. *)

val interleaves : Model.t -> field:string -> bool
(** Does some operation's behavior, projected onto [field] as {!holds}
    projects it, still contain a shuffle? Projection distributes over
    shuffle and erases a branch that never touches [field] to ε, so when
    it does not, every fork of the model runs at most one branch the field
    can see: the model and its sequentialized variant (each fork's
    branches run one after the other) induce the same call sequences on
    [field], and {!holds} gives them the same verdict. Builds no
    automaton. *)

val violation :
  ?limits:Limits.t ->
  impl:Nfa.t Lazy.t ->
  env:env ->
  Model.t ->
  field:string ->
  subsystem_class:string ->
  Report.t option
(** The report of a field whose {!holds} verdict is already known to be
    [false]: the shortest counterexample of the unprojected search over
    [impl] (the model's {!expanded_nfa}), diagnosed against the
    subsystem's protocol, without deciding the projection again. [None]
    when the class is not in [env] or the search finds no witness. *)

val check_subsystem :
  ?limits:Limits.t ->
  ?impl:Nfa.t Lazy.t ->
  env:env ->
  Model.t ->
  field:string ->
  subsystem_class:string ->
  Report.t option
(** [None] when the subsystem is used correctly, decided by {!holds}. On a
    violation, the report's counterexample is the shortest trace of the
    unprojected search over [impl], the model's {!expanded_nfa} (built here
    under [limits] when not given; forced only for a failing field). When
    the projected search runs out of fuel, the unprojected search decides
    instead. *)

val check :
  ?limits:Limits.t -> ?impl:Nfa.t Lazy.t -> env:env -> Model.t -> Report.t list
(** All declared subsystems of a composite, in declaration order. Also
    reports declared subsystems that are missing from [__init__] or whose
    class is unknown. For base classes, returns []. [impl] is the model's
    {!expanded_nfa}, shared by every failing field (and by the caller's
    other checks); it is forced only when some field fails. *)
