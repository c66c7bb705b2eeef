(** Nondeterministic finite automata with ε-transitions.

    The workhorse model type of the Shelley pipeline: inferred method
    behaviors, class usage automata, expanded composite systems and LTLf
    claim automata all pass through this representation. States are dense
    integers [0 .. num_states-1]; every state may carry an optional
    human-readable label used by diagrams and reports. *)

type t

(** {1 Construction} *)

val create :
  ?labels:(int * string) list ->
  num_states:int ->
  start:int list ->
  accept:int list ->
  transitions:(int * Symbol.t * int) list ->
  ?epsilons:(int * int) list ->
  unit ->
  t
(** Build an NFA. Raises [Invalid_argument] on out-of-range states. *)

val of_graph : accepting:('k -> bool) -> ('k, Symbol.t) Explore.graph -> t
(** The ε-free NFA of an explored graph: state [i] is [g.keys.(i)], the
    start is state [0], and [i] accepts iff [accepting g.keys.(i)]. *)

val empty_language : t
(** Accepts nothing. *)

val eps_language : t
(** Accepts exactly the empty trace. *)

val universal : Symbol.Set.t -> t
(** [universal σ] accepts every trace over [σ], the empty trace included:
    one accepting state with a self-loop per symbol. *)

val symbol : Symbol.t -> t
(** Accepts exactly the one-event trace. *)

(** {1 Accessors} *)

val num_states : t -> int
val start : t -> States.Set.t
val accept : t -> States.Set.t
val is_accept : t -> States.t -> bool
val label : t -> States.t -> string option

val transitions : t -> (int * Symbol.t * int) list
(** All non-ε transitions, in no particular order. *)

val epsilons : t -> (int * int) list

val alphabet : t -> Symbol.Set.t
(** Symbols occurring on transitions; computed once by {!create}. *)

val successors : t -> States.t -> Symbol.t -> States.Set.t
(** Direct (non-ε-closed) successors. *)

(** {1 Running} *)

val eps_closure : t -> States.Set.t -> States.Set.t

val step : t -> States.Set.t -> Symbol.t -> States.Set.t
(** ε-closed step: [eps_closure (⋃ successors q sym)] over the states [q]
    of the configuration, which need not itself be ε-closed. A table
    lookup: each state's ε-closed successor row is built on first use and
    kept in the automaton, so a configuration steps as the union of its
    states' rows. *)

val initial_config : t -> States.Set.t
(** ε-closure of the start states. *)

val accepts : t -> Trace.t -> bool

val accepting_config : t -> States.Set.t -> bool
(** Does the configuration contain an accepting state? *)

(** {1 Language combinators (Thompson-style)} *)

val union : t -> t -> t
val concat : t -> t -> t
val star : t -> t

(** {1 Transformations} *)

val map_symbols : (Symbol.t -> Symbol.t option) -> t -> t
(** Relabel transitions; [None] turns the transition into an ε-transition
    (erasure / projection onto a sub-alphabet). *)

val add_self_loops : Symbol.Set.t -> t -> t
(** Add, on every state, a self-loop for each given symbol — lifts a
    specification automaton to a larger alphabet whose extra symbols it
    ignores. *)

val relabel_states : (int -> string option) -> t -> t
(** Replace state labels. *)

val trim : t -> t
(** Remove states that are unreachable from the start or cannot reach an
    accepting state; renumbers states (labels follow). The empty-language
    automaton comes out as {!empty_language}. *)

val reverse : t -> t
(** Language reversal (start/accept swapped, arrows flipped). *)

(** {1 Queries} *)

val is_empty : t -> bool
(** No trace accepted at all. *)

val shortest_accepted : t -> Trace.t option
(** Length-lexicographically minimal accepted trace (BFS). *)

val shortest_accepted_with_states : t -> (Trace.t * States.t list) option
(** Same, also returning one witnessing state path (one state per trace
    position, plus the initial state) — used to attribute counterexamples to
    model locations in error reports. *)

val words_upto : max_len:int -> t -> Trace.Set.t
(** Bounded language, for cross-checks against {!Regex} enumeration. *)

val count_states_and_transitions : t -> int * int

val pp : Format.formatter -> t -> unit
(** Debug rendering: one line per transition. *)
