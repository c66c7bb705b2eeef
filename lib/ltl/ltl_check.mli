(** Claim checking: does every trace of an implementation automaton satisfy
    an LTLf formula?

    This is the check behind Shelley's
    ["Error in specification: FAIL TO MEET REQUIREMENT"] report. It is
    {!Entail.implies} with no hypotheses: the on-the-fly product of the
    implementation with the claim's progression obligations, which builds no
    automaton for the claim. A violation comes with the shortlex-least of
    the shortest counterexample traces. *)

type violation = {
  formula : Ltlf.t;
  counterexample : Trace.t;  (** a shortest implementation trace violating the formula *)
}

val pp_violation : Format.formatter -> violation -> unit
(** The paper's transcript shape:
    {v
    Formula: (!a.open) W b.open
    Counter example: a.test, a.open, ...
    v} *)

val check : Entail.session -> Ltlf.t -> (unit, violation) result
(** [check s φ] verifies [L(impl) ⊆ L(φ)] for the session's [impl], with
    the session's limits.
    @raise Limits.Budget_exceeded when {!Entail.implies} answers
    [Unknown]: the product outgrew [limits.max_configs] (resource
    ["entailment configurations"]) or the session's obligation space outgrew
    [limits.max_regex_size] nodes (resource ["obligation nodes"]). *)

val check_claim : Entail.session -> string -> (unit, violation) result
(** Parse then {!check}.
    @raise Ltl_parser.Parse_error on a malformed claim string. *)
