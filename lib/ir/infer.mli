(** The paper's behavior inference (Figure 4, Behavior inference).

    [⟦p⟧ = (r, s)] computes a regular expression [r] for the *ongoing*
    behavior of [p] and a finite set [s] of regular expressions for its
    *returned* behaviors; [infer p = r + r'₁ + … + r'ₙ] merges them. The
    paper's Theorems 1/2 state [L(infer p) = L(p)]; the test-suite checks
    this against an independent bounded semantics (the [Semantics] test
    oracle), and Corollary 1 ([L(p)] is regular) is inherited from the
    result type. *)

type denotation = {
  ongoing : Regex.t;  (** behavior of runs that have not returned *)
  returned : Regex.t list;
      (** behaviors of runs ended by [return] — kept as a canonically sorted
          duplicate-free list, the paper's finite set [s] *)
}

val denote : Prog.t -> denotation
(** The paper's [⟦p⟧]. *)

val infer : Prog.t -> Regex.t
(** The paper's [infer(p)]: the union of the ongoing behavior and every
    returned behavior. *)

val exit_behaviors : Prog.t -> Regex.t list
(** Just the returned component of [⟦p⟧] — one regex per way the method can
    return, used by exit-point analysis in the Shelley model builder. *)

val pp_denotation : Format.formatter -> denotation -> unit
(** Prints [(r, {r'₁, …, r'ₙ})] in the paper's pair notation. *)
