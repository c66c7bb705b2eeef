(** The static-analysis rule registry: one stable code per defect class.

    Every diagnostic Shelley can raise about a *specification* (as opposed
    to a verification verdict about its behavior) is an instance of a
    registered rule. Codes are stable across releases — they are what
    suppression comments ([# shelley: disable=SY001]) and CI SARIF uploads
    key on — so rules are only ever added, never renumbered.

    Numbering convention:
    - [SY0xx] — structural rules (shared with [Validate]) and file-level
      conditions (syntax errors, unreadable input, suppression hygiene);
    - [SY09x] — lint-engine conditions (a rule ran out of budget/crashed);
    - [SY1xx] — semantic rules, computed from the inferred languages and
      claims rather than from the model's shape. *)

type t = {
  code : string;  (** stable identifier, e.g. ["SY101"] *)
  name : string;  (** stable kebab-case slug, e.g. ["dead-operation"] *)
  severity : Report.severity;  (** default severity of a finding *)
  summary : string;  (** one-line description for [--help] / SARIF rules *)
}

(** {1 Structural rules} (the {!Validate} checks) *)

val duplicate_operation : t  (** SY001, error *)

val missing_initial : t  (** SY002, error *)

val missing_final : t  (** SY003, error *)

val unknown_next_operation : t  (** SY004, error *)

val terminal_not_final : t  (** SY005, error *)

val unreachable_operation : t  (** SY006, warning *)

val no_final_reachable : t  (** SY007, warning *)

(** {1 File-level rules} *)

val syntax_error : t  (** SY010, error *)

val unreadable_file : t  (** SY011, error *)

val unknown_suppression : t  (** SY012, warning *)

val annotation_error : t  (** SY020, error (extraction diagnostics) *)

(** {1 Lint-engine conditions} *)

val rule_resource_limit : t  (** SY090, error *)

val rule_internal_error : t  (** SY091, error *)

(** {1 Semantic rules} *)

val dead_operation : t  (** SY101, warning *)

val vacuous_claim : t  (** SY102, warning *)

val unsatisfiable_claim : t  (** SY103, error *)

val redundant_claim : t  (** SY104, info *)

val unused_subsystem : t  (** SY105, warning *)

val undeclared_subsystem_call : t  (** SY106, warning *)

val unreachable_after_return : t  (** SY107, warning *)

val behavior_blowup : t  (** SY108, info *)

val subsumed_claim : t  (** SY109, warning *)

val contradictory_claims : t  (** SY110, error *)

val claim_set_minimizable : t  (** SY111, info *)

val interleaved_protocol_race : t  (** SY112, warning *)

(** {1 Registry} *)

val all : t list
(** Every registered rule, in code order. *)

val find_code : string -> t option
(** Look a rule up by its exact code (["SY104"]). *)

val fingerprint : string
(** Hex digest over every registered rule's (code, slug, default severity):
    a content address for the rule set. The lint result cache includes it in
    its keys, so growing or retuning the registry invalidates cached lint
    results without any explicit versioning step. *)
