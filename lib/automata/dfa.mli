(** Complete deterministic finite automata.

    A DFA here is always *complete* over its declared alphabet (a sink state
    is materialized if needed), which keeps complementation a plain flip of
    the accepting set and makes the product constructions total. States are
    dense integers; state [start] need not be 0. *)

type t

(** {1 Construction} *)

val create :
  alphabet:Symbol.t list ->
  num_states:int ->
  start:int ->
  accept:int list ->
  next:(int -> Symbol.t -> int) ->
  t
(** Tabulates [next] over all states and alphabet symbols.
    Raises [Invalid_argument] if [next] leaves the state range. *)

val of_graph :
  alphabet:Symbol.t list -> accepting:('k -> bool) -> ('k, Symbol.t) Explore.graph -> t
(** The DFA of an explored graph: state [i] is [g.keys.(i)], the start is
    state [0], and [i] accepts iff [accepting g.keys.(i)]. [alphabet] must
    be sorted without duplicates, and every state must have exactly one
    edge per symbol, in alphabet order — what a step that emits one
    successor per symbol in order produces.
    @raise Invalid_argument when a state's edges do not follow the
    alphabet. *)

(** {1 Accessors} *)

val alphabet : t -> Symbol.t list
val num_states : t -> int
val start : t -> int
val is_accept : t -> int -> bool
val accept_states : t -> States.Set.t
val next : t -> int -> Symbol.t -> int
(** Raises [Invalid_argument] if the symbol is outside the alphabet. *)

val mem_alphabet : t -> Symbol.t -> bool

(** {1 Running} *)

val run : t -> Trace.t -> int
(** Final state after consuming the trace (symbols outside the alphabet raise
    [Invalid_argument]). *)

val accepts : t -> Trace.t -> bool

(** {1 Boolean operations}

    The two operands must have the same alphabet (checked;
    [Invalid_argument] otherwise): Shelley compares languages only after
    lifting both sides to a common event alphabet. *)

val complement : t -> t
val intersect : t -> t -> t
val union : t -> t -> t
val difference : t -> t -> t

(** {1 Queries} *)

val is_empty : t -> bool
val shortest_accepted : t -> Trace.t option

val equivalent : t -> t -> bool
(** Same language (same-alphabet requirement as above). *)

val included : t -> t -> bool

val counterexample_inclusion : t -> t -> Trace.t option
(** Shortest trace accepted by the first but not the second. *)

val reachable_states : t -> States.Set.t

val live_symbols : t -> Symbol.Set.t
(** The symbols that occur in some accepted word: each labels an edge from
    a state reachable from the start to a state that can reach acceptance.
    Empty when the language is. *)

val words_upto : max_len:int -> t -> Trace.Set.t

(** {1 Conversions} *)

val to_nfa : t -> Nfa.t
(** Forgets determinism (and drops the sink's outgoing structure only by
    keeping it — [Nfa.trim] will remove a non-productive sink). *)

val restrict_alphabet : alphabet:Symbol.t list -> t -> t
(** Reinterprets the DFA over a *superset or subset* alphabet: symbols added
    are sent to a sink (i.e. rejected), symbols removed must not be needed to
    accept (their transitions are dropped). *)

val pp : Format.formatter -> t -> unit
