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

val symbols : t -> Symbol.t array
(** The alphabet in ascending order: symbol index [i] is [(symbols t).(i)]. *)

val symbol_index : t -> Symbol.t -> int
(** The symbol's index in {!symbols}, or [-1] outside the alphabet. *)

val successors : t -> States.t -> Symbol.t -> States.Set.t
(** Direct (non-ε-closed) successors. *)

(** {1 Running} *)

val eps_closure : t -> States.Set.t -> States.Set.t

val step : t -> States.Set.t -> Symbol.t -> States.Set.t
(** ε-closed step: [eps_closure (⋃ successors q sym)] over the states [q]
    of the configuration, which need not itself be ε-closed. Each state's
    ε-closed successor row is built on first use and kept in the automaton,
    so a configuration steps as one merge of its states' rows. For one-off
    walks; a search steps through {!Config}. *)

val initial_config : t -> States.Set.t
(** ε-closure of the start states. *)

val accepts : t -> Trace.t -> bool

val accepting_config : t -> States.Set.t -> bool
(** Does the configuration contain an accepting state? *)

(** {1 The configuration table}

    Each automaton numbers the ε-closed configurations it is stepped from:
    a lazily built DFA that lives in the value, as the per-state rows do,
    so every search over one automaton shares it. An id's successor row,
    one entry per symbol index, is filled the first time the id is
    stepped; after that a step is an array read. Ids are dense but their
    order depends on what the automaton was asked before, so a search
    must not let it decide anything. *)
module Config : sig
  val empty : int
  (** The empty configuration, id [0] in every table. *)

  val initial : t -> int
  (** The id of {!initial_config}. *)

  val accepting : t -> int -> bool
  (** Does the configuration contain an accepting state? *)

  val next : t -> int -> int -> int
  (** [next t c i] is the id of [step t s (symbols t).(i)] for the
      configuration [s] of id [c]; a negative [i] (a symbol outside the
      alphabet) gives {!empty}. *)

  val row : t -> int -> int array
  (** [(row t c).(i) = next t c i] for every symbol index. The table's own
      array: read it, never write it. *)

  val live : t -> int -> int array
  (** The symbol indices [i], ascending, whose [next t c i] is not
      {!empty}. The table's own array: read it, never write it. *)
end

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
