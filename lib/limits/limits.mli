(** Deterministic resource budgets for the analysis constructions.

    Every automaton construction in the pipeline — subset construction,
    on-the-fly language products, LTLf progression — can blow up
    exponentially on adversarial input. A budget turns that blowup into a
    typed, catchable {!Budget_exceeded} instead of an apparent hang or an
    out-of-memory kill. Budgets are *fuel counters* (counts of discovered
    states / explored configurations / regex nodes), not wall-clock
    timeouts, so exhaustion is deterministic and reproducible.

    The one exception is {!field-deadline}: a wall-clock bound per
    verification *unit* (a whole file or class), enforced not by the checks
    themselves but by the worker pool ([Supervisor]), which kills
    the unit's worker process when the deadline passes. Fuel bounds a
    construction from the inside; the deadline bounds a unit from the
    outside, catching whatever fuel cannot see (pathological GC churn,
    runaway native code, an unbounded loop outside any budgeted
    construction).

    The pipeline ({!Pipeline.verify}) runs every check behind an
    exception barrier that converts [Budget_exceeded] into a structured
    [Resource_limit] report, so one pathological check degrades gracefully
    while the others still run. *)

type ledger
(** Cumulative per-resource fuel accounting for one budget value — pure
    observability (it feeds {!snapshot}); enforcement always happens in the
    individual {!fuel} counters. *)

type t = {
  max_states : int;
      (** Cap on discovered automaton states: subset-construction
          configurations in {!Determinize.determinize} and progression
          obligations in {!Progression.to_dfa}. Only the inspection
          commands ([model --stats], [sample], [nusmv], [monitor]) build
          either, under {!default}; [check], [lint] and [serve] read no
          [max_states] and take no flag or param for it. *)
  max_configs : int;
      (** Cap on explored product configurations in language comparisons
          ({!Language.inclusion_counterexample}, {!Language.intersect}) and
          in claim checks ({!Entail.implies}). *)
  max_regex_size : int;
      (** Cap on the AST size of behavior regexes fed to automaton
          constructions (guards Glushkov blowup in {!Usage.expanded_nfa}),
          and on the nodes of one {!Progression.space}. *)
  deadline : float option;
      (** Wall-clock seconds granted to one verification unit before its
          worker process is killed ([Supervisor]); [None] = no deadline.
          Unlike the fuel fields this is inherently nondeterministic — it
          exists to isolate hangs the fuel counters cannot reach. *)
  ledger : ledger;
      (** Tallies fuel drawn by every counter created [~within] this budget,
          keyed by resource name. Mutable and shared by design: {!snapshot}
          diffs taken around a pipeline phase yield fuel-consumed-per-phase
          deltas for the observability layer. *)
}

exception Budget_exceeded of { resource : string; limit : int }
(** [resource] names what ran out (e.g. ["determinization states"]);
    [limit] is the configured cap. *)

val default : t
(** [max_states = 50_000], [max_configs = 1_000_000],
    [max_regex_size = 500_000], [deadline = None] — far above anything a
    realistic model needs, low enough to bound runaway constructions within
    seconds. *)

val make :
  ?max_states:int ->
  ?max_configs:int ->
  ?max_regex_size:int ->
  ?deadline:float ->
  unit ->
  t
(** Missing fields default to {!default}'s values. *)

val reduced : t -> t
(** The degraded budget used for the retry after a unit times out or
    crashes: every fuel field divided by 10 (floor 1), same deadline, fresh
    ledger. The intent is that a unit whose first attempt blew the wall
    clock exhausts its (deterministic) fuel well before the deadline on the
    second attempt, so the user sees a reproducible [Resource_limit] report
    naming the hungry construction instead of a bare timeout. *)

val exceeded : resource:string -> limit:int -> 'a
(** @raise Budget_exceeded always. *)

val check : ?within:t -> resource:string -> limit:int -> int -> unit
(** [check ~resource ~limit n] raises iff [n > limit]. With [?within], a
    passing check records [n] in the budget's ledger as a high-water mark
    (sizes are not countdowns). *)

(** {1 Fuel counters}

    A [fuel] is a mutable countdown created from one budget field; call
    {!spend} once per unit of work (state interned, configuration pushed). *)

type fuel

val fuel : ?within:t -> resource:string -> int -> fuel
(** With [?within], every {!spend} also tallies one unit against the
    budget's ledger under [resource], feeding {!snapshot}. *)

val spend : fuel -> unit
(** @raise Budget_exceeded on the call after the fuel reaches zero. *)

(** {1 Fuel observability} *)

val snapshot : t -> (string * int) list
(** Remaining fuel per resource name, sorted — [limit - total spent] over
    every counter created [~within] this budget. Monotonically
    non-increasing per key over time. A resource appears once the first
    counter for it is created; the value may go negative when several
    constructions each draw from the same budget field (each construction
    is individually capped; the ledger records the cumulative draw). *)

val consumed : t -> before:(string * int) list -> (string * int) list
(** [consumed t ~before] diffs the current {!snapshot} against an earlier
    one: positive per-resource fuel consumption since [before] (resources
    first touched after [before] count from their full limit). Entries with
    zero consumption are omitted. *)

val peak : t -> resource:string -> int
(** The most fuel any single counter created [~within] [t] has drawn under
    [resource] (0 when none has). Constructions whose counters all
    finished would, replayed under a limit [l], run out iff [peak > l]; a
    counter that ran out at limit [m] drew [m], so its construction runs
    out under any [l < m] too. A budget can therefore be charged for a
    construction built under another one (the lint rules share one class
    expansion this way). *)

val describe : exn -> string option
(** Human-readable rendering of {!Budget_exceeded}; [None] for other
    exceptions. *)
