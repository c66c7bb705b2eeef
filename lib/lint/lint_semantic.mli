(** The semantic lint rules (SY101–SY112).

    Where {!Validate} checks the *shape* of a model, these rules reuse the
    verification machinery itself — usage automata, language inclusion,
    LTLf tableau/progression and the on-the-fly entailment engine
    ({!Entail}) — to catch specification bugs that only show up at the
    language level: operations no accepted usage exercises, claims that
    constrain nothing (or can never hold, or are entailed by the rest of
    the specification, or contradict each other over the model), subsystems
    that are declared but never driven, calls that silently escape
    verification, code the lowered bodies can never reach, and behavior
    regexes big enough to make the downstream automata expensive.

    Every rule runs under the caller's {!Limits.t} fuel budget; a blown
    budget surfaces as {!Limits.Budget_exceeded}, which the engine
    ({!Lint}) converts into an SY090 diagnostic for that class while the
    other rules still run. Entailment queries are additionally budgeted by
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
  ?fuel:int -> ?impl:Nfa.t -> limits:Limits.t -> Model.t -> claim_analysis
(** One greedy reverse-declaration-order sweep over the model's claims: a
    claim is checked against the still-kept others, so the first-declared
    claim of a mutually equivalent group survives (lowest line wins) and
    later duplicates are flagged exactly once. [fuel] bounds each
    entailment query's product exploration (default
    [limits.max_configs]). [impl] is the model's
    {!Claims.subsystem_call_nfa} when the caller already built it;
    otherwise it is built here under [limits].
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
  call_nfa : unit -> Nfa.t;
      (** the class's {!Claims.subsystem_call_nfa} under [limits], built on
          the first call and shared by SY102, SY103 and the claim analysis;
          a {!Limits.Budget_exceeded} from the build is raised again on
          every call, so each of those rules reports its own SY090 *)
}

val make_ctx :
  limits:Limits.t ->
  thresholds:thresholds ->
  env:(string -> Model.t option) ->
  cls:Mpy_ast.class_def ->
  model:Model.t ->
  ctx

val rules : (Rules.t * (ctx -> (int option * string) list)) list
(** Every semantic rule with its registry entry, in code order. A rule
    returns its findings as [(line, message)] pairs, in source order. *)
