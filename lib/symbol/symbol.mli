(** Interned event symbols.

    Every label that appears in a trace — a method name such as ["test"] or a
    qualified subsystem call such as ["a.open"] — is interned into a compact
    integer symbol. Interning makes alphabet operations, automata transition
    tables and trace comparisons cheap, while [name] recovers the original
    spelling for reports and diagrams. *)

type t
(** An interned symbol. Symbols are totally ordered and hashable; two symbols
    are equal iff their source strings are equal. *)

val intern : string -> t
(** [intern s] returns the unique symbol for string [s], creating it on first
    use. *)

val name : t -> string
(** [name sym] is the string that was interned to produce [sym]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_int : t -> int
(** Stable dense integer id, suitable for array indexing. *)

val pp : Format.formatter -> t -> unit
(** Prints the symbol's name. *)

val count : unit -> int
(** Number of distinct symbols interned so far (useful for sizing arrays). *)

val scoped : scope:string -> string -> t
(** [scoped ~scope op] interns ["scope.op"], the spelling Shelley uses for a
    call [self.scope.op()] on a constrained field. *)

val split_scope : t -> (string * string) option
(** [split_scope sym] is [Some (scope, op)] when [name sym] has the shape
    ["scope.op"] (splitting at the first dot), and [None] otherwise.
    Decoded once, when the symbol is interned. *)

val method_exit : method_name:string -> int -> t
(** The marker event for the k-th exit of a method: it interns
    ["%exit:METHOD:K"]. Marker names contain [%], which cannot occur in
    MicroPython identifiers, so they never collide with field-call events. *)

val exit_marker : t -> (string * int) option
(** [Some (method_name, k)] when the symbol is a {!method_exit} marker, and
    [None] otherwise. Decoded once, when the symbol is interned. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val pp_set : Format.formatter -> Set.t -> unit
(** Prints a symbol set as [{a, b, c}] in name order. *)
