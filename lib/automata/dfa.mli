(** Complete deterministic finite automata.

    A DFA here is always *complete* over its declared alphabet (a sink state
    is materialized if needed), so {!next} is total on it. States are dense
    integers; state [start] need not be 0. The Boolean operations and
    language queries the tests use are written over these accessors in the
    test oracles. *)

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

(** {1 Queries} *)

val reachable_states : t -> States.Set.t
