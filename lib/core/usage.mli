(** Subsystem-usage verification (§2.2, "Verifying object usage").

    For a composite class, every valid sequence of its operations (per its
    own model) induces a sequence of subsystem calls (per the operations'
    inferred behaviors). Each declared subsystem's induced call sequence must
    be a valid usage of that subsystem's own model. A violation yields the
    paper's INVALID SUBSYSTEM USAGE report with a shortest mixed
    counterexample such as [open_a, a.test, a.open]. *)

type env = string -> Model.t option
(** Resolve a class name to its extracted model. *)

val expanded_nfa : ?limits:Limits.t -> Model.t -> Nfa.t
(** The composite's *expanded* automaton: words interleave operation-entry
    events (the bare operation name, e.g. [open_a]) with the subsystem calls
    the operation's body performs (e.g. [a.test]). Acceptance at the
    completion of a final operation, or immediately (unused object).
    Subsystems whose class is unknown to [env] still contribute their call
    events (they are checked by {!Invocation} instead). *)

val project_subsystem : field:string -> Trace.t -> string list
(** Keep only the calls of one subsystem field, unqualified:
    [open_a, a.test, a.open] projected on [a] is [test; open]. *)

val subsystem_spec_nfa : env:env -> field:string -> subsystem_class:string -> Nfa.t option
(** The subsystem's usage automaton, relabeled to the composite's view
    ([test] → [a.test]). [None] when the class is not in the environment. *)

val check_subsystem :
  ?limits:Limits.t ->
  ?impl:Nfa.t ->
  env:env ->
  Model.t ->
  field:string ->
  subsystem_class:string ->
  Report.t option
(** [None] when the subsystem is used correctly. [impl] is the model's
    {!expanded_nfa}, when the caller already built it (once for all the
    fields it checks); otherwise it is built here under [limits]. *)

val check : ?limits:Limits.t -> env:env -> Model.t -> Report.t list
(** All declared subsystems of a composite, in declaration order. Also
    reports declared subsystems that are missing from [__init__] or whose
    class is unknown. For base classes, returns []. *)
