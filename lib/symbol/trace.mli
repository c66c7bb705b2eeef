(** Traces: finite sequences of event symbols.

    The paper's semantics judges [s ⊢ l ∈ p] where [l] is a sequence of labels;
    this module is that sequence type together with the handful of operations
    the semantics, the regex engine and the reporters share. *)

type t = Symbol.t list

val empty : t

val append : t -> t -> t
(** Sequence concatenation, written [l1 · l2] in the paper. *)

val compare : t -> t -> int
(** Total order: first by length, then lexicographically by symbol. Ordering
    by length first makes "shortest counterexample" selection a plain
    minimum. *)

val equal : t -> t -> bool
val length : t -> int

val of_names : string list -> t
(** Interns each name in order. *)

val to_names : t -> string list

val pp : Format.formatter -> t -> unit
(** Prints [a.test, a.open, b.open] — the paper's counterexample style. *)

val to_string : t -> string

module Set : Set.S with type elt = t
(** Sets of traces, used by the bounded-semantics oracle. *)

val pp_set : Format.formatter -> Set.t -> unit
