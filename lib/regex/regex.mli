(** Regular expressions over event symbols.

    This is the target language of the paper's behavior inference (Figure 4):

    {v r ::= ε | ∅ | f | r · r | r + r | r* | r ∥ r v}

    The shuffle operator [r ∥ s] (concurrency extension; "Forkable Regular
    Expressions", Sulzmann & Thiemann) denotes all interleavings of a trace
    of [r] with a trace of [s].

    Values are kept in a light normal form by the smart constructors below
    ([seq], [alt], [star]): identities of [∅] and [ε] are applied, [+] is
    flattened, deduplicated and sorted (associativity/commutativity/
    idempotence), and nested stars collapse. The normal form keeps inferred
    expressions readable and makes derivative-based equivalence checking
    terminate quickly; it never changes the denoted language. *)

type t = private
  | Empty  (** [∅] — the empty language. *)
  | Eps  (** [ε] — the language containing only the empty trace. *)
  | Sym of Symbol.t  (** [f] — a single event. *)
  | Seq of t * t  (** [r1 · r2] — concatenation. *)
  | Alt of t * t  (** [r1 + r2] — union. *)
  | Star of t  (** [r*] — Kleene star. *)
  | Shuffle of t * t  (** [r1 ∥ r2] — all interleavings of the two languages. *)

(** {1 Constructors} *)

val empty : t
val eps : t
val sym : Symbol.t -> t

val sym_of_name : string -> t
(** [sym_of_name "a.open"] interns the name and wraps it. *)

val seq : t -> t -> t
(** Concatenation. [seq Empty r = Empty], [seq Eps r = r], and symmetrically;
    reassociates to the right. *)

val alt : t -> t -> t
(** Union in ACI-normal form: flattened, sorted, duplicates removed,
    [Empty] dropped. *)

val star : t -> t
(** Kleene star. [star Empty = Eps], [star Eps = Eps], [star (Star r) = star r]. *)

val shuffle : t -> t -> t
(** Shuffle (interleaving) in AC-normal form: flattened and sorted, [ε]
    dropped (unit), [∅] annihilating. Duplicates are kept — shuffle is not
    idempotent ([a ∥ a] accepts [aa] while [a] does not). *)

val shuffle_list : t list -> t
(** [shuffle_list [r1; …; rn]] is [r1 ∥ … ∥ rn] ([eps] when empty). *)

val seq_list : t list -> t
(** [seq_list [r1; …; rn]] is [r1 · … · rn] ([eps] when empty). *)

val alt_list : t list -> t
(** [alt_list [r1; …; rn]] is [r1 + … + rn] ([empty] when empty). *)

val word : Symbol.t list -> t
(** The regex denoting exactly one given trace. *)

val opt : t -> t
(** [opt r] is [ε + r]. *)

(** {1 Predicates and measures} *)

val nullable : t -> bool
(** Does the language contain the empty trace? *)

val is_empty_syntactic : t -> bool
(** [true] iff the value is literally [Empty] — and this is also semantic
    emptiness: [L(r) = ∅] iff [r = Empty]. Every value is built by the smart
    constructors, and they propagate [∅]: [seq] and [shuffle] annihilate,
    [alt] drops it, and [star] of anything is nullable. So a non-[Empty]
    value always denotes at least one trace. {!Deriv.is_empty_language}
    decides the same question by exploring derivatives; the test-suite
    checks the two agree. *)

val alphabet : t -> Symbol.Set.t
(** All symbols occurring in the expression. *)

val size : t -> int
(** Number of AST nodes. *)

val star_height : t -> int

val shuffle_free : t -> bool
(** [true] iff no [Shuffle] node occurs — i.e. the expression is in the
    paper's original sequential fragment. *)

val sequentialize : t -> t
(** Replace every [Shuffle] with [Seq]: the one schedule that runs each left
    branch to completion before its right. [L(sequentialize r) ⊆ L(r)],
    with equality iff [shuffle_free r]. *)

val project : keep:(Symbol.t -> bool) -> t -> t
(** The erasing homomorphism h onto the symbols [keep] accepts: every other
    [Sym] becomes [ε], and the smart constructors collapse the rest (a
    shuffle branch with no kept symbol drops out). h distributes over [·],
    [+], [*] and [∥], so [L(project ~keep r) = h(L(r))]. *)

val compare : t -> t -> int
(** Structural order (used by the normal form and by sets of regexes). *)

val equal : t -> t -> bool
(** Structural equality on normal forms. Language equivalence is
    {!Equiv.equivalent}. *)

val key : t Explore.key
(** Expressions as {!Explore} keys: {!equal}, and a structural hash that
    looks deep into the term. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Paper-style notation: [(a · (b · ∅ + c))* · (a · b)], with [ε] and [∅]. *)

val to_string : t -> string

val pp_ascii : Format.formatter -> t -> unit
(** Pure-ASCII variant ([0] for ∅, [1] for ε, [.] for ·) for logs and NuSMV
    comments. *)
