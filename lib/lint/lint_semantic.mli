(** The semantic lint rules (SY101–SY112).

    Where {!Validate} checks the *shape* of a model, these rules reuse the
    verification machinery itself — usage automata, language inclusion and
    the on-the-fly entailment engine ({!Entail}, which decides every claim
    question) — to catch specification bugs that only show up at the
    language level: operations no accepted usage exercises, claims that
    constrain nothing (or can never hold, or are entailed by the rest of
    the specification, or contradict each other over the model), subsystems
    that are declared but never driven, calls that silently escape
    verification, code the lowered bodies can never reach, and behavior
    regexes big enough to make the downstream automata expensive.

    Every claim question of a class goes to one of two {!Entail.session}s,
    opened with a class that has claims and dropped with it: one over the
    class's subsystem-call automaton (SY104 and SY110), one over the
    universal automaton of the claim alphabet (SY102, SY103 and SY109).
    SY101 decides every operation's liveness from one forward and one
    backward pass over the usage NFA ({!Nfa.live_symbols}, the alphabet of
    its trim), with no subset construction and no budget. The class's
    full expansion is built at most once, for the claim sessions and
    SY112's race witnesses alike ({!expansion}).

    Questions whose answer follows from one already held are settled
    without a search: a claim the usage language alone entails is
    redundant whatever else is kept (SY104), two claims no trace satisfies
    together imply every other claim (SY109), and a field whose projected
    behaviors keep no shuffle cannot race (SY112). [--stats] counts them as
    [lint.claims.redundant_alone], [lint.claims.unsat_hypotheses] and
    [lint.race.shuffle_free_fields].

    Every rule runs under the caller's {!Limits.t} fuel budget; a blown
    budget surfaces as {!Limits.Budget_exceeded}, which the engine
    ({!Lint}) converts into an SY090 diagnostic for that class while the
    other rules still run; SY102/SY103 spend [limits.max_configs] this way.
    The claim-set queries (SY104/SY109–SY111) are instead budgeted by
    [thresholds.entail_fuel] and degrade *silently* on exhaustion: an
    undecided implication produces no finding (it is only counted, as
    [entail.budget_exhausted]). *)

type thresholds = {
  max_behavior_size : int;
      (** SY108 fires when an operation's inferred behavior regex has more
          AST nodes than this. *)
  max_star_height : int;
      (** SY108 fires when the regex nests stars deeper than this. *)
  entail_fuel : int;
      (** Product-state budget of each claim entailment query
          (SY104/SY109/SY110/SY111, [--entail-fuel]); on exhaustion the
          query degrades to undecided and reports nothing. *)
  race_fuel : int;
      (** Configuration budget of the SY112 race re-check ([--race-fuel]):
          caps the shuffle-product and inclusion exploration of both the
          interleaved and the sequentialized subsystem checks (further
          clamped by the caller's [limits.max_configs]). *)
}

val default_thresholds : thresholds
(** [{ max_behavior_size = 200; max_star_height = 3; entail_fuel = 20_000;
    race_fuel = 50_000 }] — generous for hand-written classes, low enough
    to flag (or cut short) machine-generated blowup before the
    expanded-automaton checks pay for it. *)

(** {1 Claim-set analysis}

    The shared substrate of the claim rules, exposed for [shelley claims]. *)

type sessions = {
  calls : unit -> Entail.session;
      (** over the class's {!Claims.subsystem_call_nfa} *)
  universal : unit -> Entail.session;
      (** over [Nfa.universal] of the claim alphabet: the subsystem-call
          events plus every atom any claim mentions *)
}
(** Where a class's claim questions go. Each query asks its function for
    the session it runs in. *)

val expansion : Model.t -> Limits.t -> Nfa.t
(** [expansion model] is the class's {!Usage.expanded_nfa}, shared by rules
    with different budgets: [expansion model within] builds it on its first
    call, under [within] with a fresh ledger, and answers every later call
    from that build. A later budget is charged what the build drew (the
    costliest shuffle product, {!Limits.peak}): one below it raises
    {!Limits.Budget_exceeded} naming its own limit, as its own build would
    have; one above a build that ran out of configurations builds again.
    Budgets may differ only in [max_configs]. *)

val sessions : ?expansion:(Limits.t -> Nfa.t) -> limits:Limits.t -> Model.t -> sessions
(** The class's two sessions under [limits], each opened on its first
    call and returned again after; the call automaton is built from
    [expansion] (default [expansion model]) on the first call of either. An
    exception from that build is raised again on every later call, so each
    rule that needs it reports its own SY090. *)

type claim_verdict =
  | Kept  (** in the greedy minimal core *)
  | Redundant of string list
      (** entailed by the usage language and the named kept claims
          ([[]] = the usage language alone) — SY104 *)
  | Subsumed of string list
      (** implied on every trace by the named claims — SY109 *)
  | Undecided  (** entailment budget exhausted; no finding *)

type contradiction = {
  claim_a : string;  (** satisfied by {!field:witness} *)
  claim_b : string;  (** violated by {!field:witness} *)
  witness : Trace.t;
      (** a shortest model trace showing the pair cannot both hold — SY110 *)
}

type claim_analysis = {
  verdicts : (string * claim_verdict) list;  (** one per claim, declaration order *)
  contradictions : contradiction list;
  core : string list;  (** the greedy minimal core, declaration order *)
  undecided : int;  (** entailment queries that ran out of budget *)
}

val analyze_claims :
  ?fuel:int -> ?sessions:sessions -> limits:Limits.t -> Model.t -> claim_analysis
(** One greedy reverse-declaration-order sweep over the model's claims: a
    claim is checked against the still-kept others, so the first-declared
    claim of a mutually equivalent group survives (lowest line wins) and
    later duplicates are flagged exactly once. Entailment is monotone in
    its hypotheses, so a claim the usage language alone entails is
    [Redundant []] after one query with no hypotheses (counted as
    [lint.claims.redundant_alone]); only the others run the query with the
    kept claims and its minimization. Hypotheses that hold two claims no
    trace satisfies together imply every claim on every trace, so such a
    subsumption question is answered without its search (counted as
    [lint.claims.unsat_hypotheses]). Each pair is decided once: satisfiable
    if the class's model table has a trace for both, otherwise by one
    two-claim search over every trace. The rule is off when the table ran
    out of budget, and a pair search that runs out decides nothing. Where
    the question's own search would run out of [fuel] but the pair's does
    not, the claim is [Subsumed]; searching that question instead would
    give it up and find the claim [Redundant] from the model. [fuel] bounds each
    entailment query's product exploration (default
    the session's [limits.max_configs]). [sessions] are the class's
    sessions when the caller already opened them; otherwise
    [sessions ~limits model] are opened here.
    @raise Limits.Budget_exceeded only from the usage-automaton
    construction, never from entailment queries (those degrade to
    {!Undecided}). *)

(** {1 The rule table} *)

type ctx = {
  limits : Limits.t;
  thresholds : thresholds;
  env : string -> Model.t option;
      (** resolve a class name to its extracted model (program-local) *)
  cls : Mpy_ast.class_def;  (** the class's surface syntax (for call sites) *)
  model : Model.t;
  mutable claim_memo : claim_analysis option;
      (** the claim rules share one {!analyze_claims} pass per class *)
  expansion : Limits.t -> Nfa.t;
      (** [expansion model]: the claim sessions' call automaton and SY112's
          race witnesses read the one expansion *)
  sessions : sessions;
      (** [sessions ~expansion ~limits model], shared by SY102, SY103 and
          the claim analysis *)
}

val make_ctx :
  limits:Limits.t ->
  thresholds:thresholds ->
  env:(string -> Model.t option) ->
  cls:Mpy_ast.class_def ->
  model:Model.t ->
  ctx
(** A class with claims has its two sessions opened here, under a span of
    their own (["lint.claim-sessions"]), so each claim rule's span holds
    only its own queries. A failed build is raised again by each rule. *)

val sequentialize_model : Model.t -> Model.t
(** The model SY112 compares against: every [Par] of every operation runs
    its left branch to completion, then its right one. *)

val rules : (Rules.t * (ctx -> (int option * string) list)) list
(** Every semantic rule with its registry entry, in code order. A rule
    returns its findings as [(line, message)] pairs, in source order. *)
