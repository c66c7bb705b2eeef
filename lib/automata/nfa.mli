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
(** Build an NFA from lists, through {!Builder}: duplicate transitions
    are dropped, and the alphabet is the set of symbols on the
    transitions. Raises [Invalid_argument] on out-of-range states. *)

(** The array entry point: states are added in blocks, edges and ε-edges
    in any order (duplicates allowed), and {!finish} groups them by source
    once. The result equals what {!create} builds from the same states,
    edges, ε-edges and labels. *)
module Builder : sig
  type nfa := t
  type t

  val create : unit -> t

  val add_states : t -> int -> int
  (** [add_states b n] adds [n] states and returns the first one's number. *)

  val num_states : t -> int
  val edge : t -> int -> Symbol.t -> int -> unit
  val epsilon : t -> int -> int -> unit
  val label : t -> int -> string -> unit

  val finish : t -> start:int list -> accept:int list -> nfa
  (** Raises [Invalid_argument] on out-of-range states. *)
end

val of_graph :
  symbols:Symbol.t array -> accepting:('k -> bool) -> ('k, int) Explore.graph -> t
(** The ε-free NFA of an explored graph whose labels are indices into
    [symbols], an alphabet {!sort_symbols} made: state [i] is
    [g.keys.(i)], the start is state [0], [i] accepts iff
    [accepting g.keys.(i)], and the alphabet is the symbols the edges
    use. No symbol is looked up. *)

val sort_symbols : Symbol.t array -> Symbol.t array
(** The array sorted in place, duplicates dropped: an alphabet in the one
    order every automaton keeps its alphabet in ({!symbols}). *)

val find_symbol : Symbol.t array -> Symbol.t -> int
(** The symbol's index in an alphabet {!sort_symbols} made, or [-1]. *)

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
(** Symbols occurring on transitions; made once, on first use. *)

val symbols : t -> Symbol.t array
(** The alphabet in ascending order: symbol index [i] is [(symbols t).(i)]. *)

val symbol_index : t -> Symbol.t -> int
(** The symbol's index in {!symbols}, or [-1] outside the alphabet. *)

val iter_edges : t -> (int -> Symbol.t -> int -> unit) -> unit
(** Every non-ε transition, by source, then symbol, then target. *)

val iter_epsilons : t -> (int -> int -> unit) -> unit
(** Every ε-transition, by source, then target. *)

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

(** {1 Language combinators (Thompson-style)}

    Each combinator copies its operands' edge arrays over the union of
    their alphabets, and its result equals, field by field (states, start,
    accept, transitions, ε-transitions, alphabet and labels), what
    {!create} builds from the operands' transition lists with the second
    operand's states numbered after the first's. The list constructions
    are kept as the reference in the test oracles. *)

val union : t -> t -> t

val concat : t -> t -> t
(** [union]'s states, with an ε-edge from each of [a]'s accepting states to
    each of [b]'s start states. *)

val star : t -> t
(** A fresh, unlabeled hub state [num_states a]: start and accept, with an
    ε-edge to each old start and one back from each old accept. *)

(** {1 Transformations}

    The same promise: each result equals the list construction of the same
    automaton, labels included. *)

val map_symbols : (Symbol.t -> Symbol.t option) -> t -> t
(** Relabel transitions; [None] turns the transition into an ε-transition
    (erasure / projection onto a sub-alphabet). [f] is called once per
    alphabet symbol. *)

val add_self_loops : Symbol.Set.t -> t -> t
(** Add, on every state, a self-loop for each given symbol — lifts a
    specification automaton to a larger alphabet whose extra symbols it
    ignores. *)

val trim : t -> t
(** Remove states that are unreachable from the start or cannot reach an
    accepting state; renumbers states in order (labels follow). The
    empty-language automaton comes out as {!empty_language}. *)

val live_symbols : t -> Symbol.Set.t
(** [alphabet (trim t)], without building the trimmed automaton: the
    symbols of the edges from a reachable state to a state that can reach
    acceptance, found in one forward and one backward marking pass. *)

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
