(** Automaton states and state sets.

    States are dense integers local to one automaton; this module fixes the
    set/map instantiations shared by the whole automata library. *)

type t = int

module Set : Set.S with type elt = int
module Map : Map.S with type key = int

val pp_set : Format.formatter -> Set.t -> unit
(** Prints [{0, 3, 5}]. *)

val of_list : int list -> Set.t

val key : Set.t Explore.key
(** State sets as {!Explore} keys: [Set.equal], hashed by elements. *)
