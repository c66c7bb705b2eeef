(** Automaton states and state sets.

    States are dense integers local to one automaton; this module fixes the
    state-set type shared by the whole automata library. *)

type t = int

(** Sorted, duplicate-free arrays of states. The binary operations walk
    their inputs in one linear merge, and two equal sets are equal arrays,
    so hashing and comparing are plain loops. A set reads as its int array
    ([(s :> int array)]), which is how configurations are interned. *)
module Set : sig
  type elt = int
  type t = private int array

  val empty : t
  val is_empty : t -> bool
  val singleton : elt -> t
  val of_list : elt list -> t

  val of_array : elt array -> t
  (** Takes ownership of the array, sorting it in place if need be. *)

  val mem : elt -> t -> bool
  val union : t -> t -> t

  val union_all : t list -> t
  (** The union of every set in the list, merged in one at a time: a single
      set comes back as is. *)

  val inter : t -> t -> t
  val diff : t -> t -> t
  val disjoint : t -> t -> bool
  val filter : (elt -> bool) -> t -> t
  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** Lexicographic over the elements in ascending order. *)

  val hash : t -> int
  (** {!Explore.Ints.hash} of the elements in ascending order. *)

  val cardinal : t -> int
  val min_elt : t -> elt
  val elements : t -> elt list
  val iter : (elt -> unit) -> t -> unit
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
end

val pp_set : Format.formatter -> Set.t -> unit
(** Prints [{0, 3, 5}]. *)

val of_list : int list -> Set.t
