(** Linear temporal logic on finite traces (LTLf).

    Shelley claims (the [@claim] annotation) are LTLf formulas over event
    atoms: at each position of a trace exactly one event happens, and the
    atom [a.open] holds at a position iff that position's event is [a.open].
    The paper uses the weak-until operator: [φ₁ W φ₂ = (φ₁ U φ₂) ∨ G φ₁].

    Semantics follows De Giacomo & Vardi (IJCAI'13): [X] is the *strong*
    next (requires a successor position), [W]/[G] use the weak next. The
    empty trace satisfies [G φ] and [¬F φ] vacuously. *)

type t =
  | True
  | False
  | Atom of Symbol.t  (** the current event is this symbol *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Next of t  (** strong next: there is a next position and φ holds there *)
  | Wnext of t  (** weak next: if there is a next position, φ holds there *)
  | Until of t * t
  | Wuntil of t * t  (** the paper's [W] *)
  | Globally of t
  | Finally of t

(** {1 Constructors} *)

val tt : t
val ff : t
val atom : Symbol.t -> t
val atom_name : string -> t
val neg : t -> t
val conj : t -> t -> t
val disj : t -> t -> t
val implies : t -> t -> t
val next : t -> t
val wnext : t -> t
val until : t -> t -> t
val wuntil : t -> t -> t
val globally : t -> t
val finally : t -> t

(** {1 Semantics} *)

val holds : t -> Trace.t -> bool
(** Direct recursive evaluation of the LTLf satisfaction relation
    [trace, 0 ⊨ φ] — the reference semantics the automaton construction is
    tested against. *)

(** {1 Observations} *)

val atoms : t -> Symbol.Set.t
val size : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

val key : t Explore.key
(** Formulas as {!Explore} keys: {!equal}, and a structural hash over the
    whole term. *)

val pp : Format.formatter -> t -> unit
(** Paper-style: [(!a.open) W b.open]. *)

val to_string : t -> string
