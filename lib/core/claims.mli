(** Temporal-claim checking (§2.2, "Checking temporal requirements").

    A [@claim] formula speaks about subsystem-call events ([a.open],
    [b.open]); it must hold on every trace of subsystem calls the composite
    can produce — the expanded automaton's language with operation-entry
    events erased. *)

val subsystem_call_nfa : ?limits:Limits.t -> ?impl:Nfa.t Lazy.t -> Model.t -> Nfa.t
(** {!Usage.expanded_nfa} projected onto subsystem-call events. [impl] is
    that expansion when the caller already has it; otherwise it is built
    here under [limits]. *)

val check : ?limits:Limits.t -> ?impl:Nfa.t Lazy.t -> Model.t -> Report.t list
(** All claims of the class, in declaration order, decided in one
    {!Entail.session} over {!subsystem_call_nfa} (from [impl] when given):
    a lone claim by {!Entail.implies}, several by one {!Entail.table} of
    them. A class without claims builds nothing.
    @raise Limits.Budget_exceeded as {!Ltl_check.check} does, for the
    first claim whose query runs out of budget. *)
