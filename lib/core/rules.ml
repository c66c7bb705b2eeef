type t = {
  code : string;
  name : string;
  severity : Report.severity;
  summary : string;
}

let rule code name severity summary = { code; name; severity; summary }

(* Structural rules: the Validate checks, one code per defect class. *)

let duplicate_operation =
  rule "SY001" "duplicate-operation" Report.Error
    "two operations of the class share a name, so returns naming it are ambiguous"

let missing_initial =
  rule "SY002" "missing-initial" Report.Error
    "no operation is @op_initial, so the class can never be used"

let missing_final =
  rule "SY003" "missing-final" Report.Error
    "no operation is @op_final, so no usage of the class can terminate"

let unknown_next_operation =
  rule "SY004" "unknown-next-operation" Report.Error
    "a return list names an operation the class does not declare"

let terminal_not_final =
  rule "SY005" "terminal-not-final" Report.Error
    "a non-final operation has a terminal exit (returns []), stranding callers"

let unreachable_operation =
  rule "SY006" "unreachable-operation" Report.Warning
    "the operation is unreachable from every initial operation"

let no_final_reachable =
  rule "SY007" "no-final-reachable" Report.Warning
    "no final operation is reachable after this one: objects get stuck there"

(* File-level rules. *)

let syntax_error =
  rule "SY010" "syntax-error" Report.Error
    "the file has a lexical or syntax error (the rest was still analyzed)"

let unreadable_file =
  rule "SY011" "unreadable-file" Report.Error "the file could not be read"

let unknown_suppression =
  rule "SY012" "unknown-suppression" Report.Warning
    "a '# shelley: disable=' comment names a rule code that does not exist"

let annotation_error =
  rule "SY020" "annotation-error" Report.Error
    "a decorator, claim or return shape could not be understood by extraction"

(* Lint-engine conditions. *)

let rule_resource_limit =
  rule "SY090" "rule-resource-limit" Report.Error
    "a lint rule exceeded its fuel budget and was skipped for this class"

let rule_internal_error =
  rule "SY091" "rule-internal-error" Report.Error
    "a lint rule raised an unexpected exception and was skipped for this class"

(* Semantic rules: computed from the inferred languages and claims. *)

let dead_operation =
  rule "SY101" "dead-operation" Report.Warning
    "the operation occurs in no accepted usage word of the class"

let vacuous_claim =
  rule "SY102" "vacuous-claim" Report.Warning
    "the claim constrains nothing: it holds over the empty language or over every trace"

let unsatisfiable_claim =
  rule "SY103" "unsatisfiable-claim" Report.Error
    "the claim is contradictory: no trace at all can satisfy it"

let redundant_claim =
  rule "SY104" "redundant-claim" Report.Info
    "the claim is entailed by the usage language (and the kept claims): verification \
     cannot fail on it"

let unused_subsystem =
  rule "SY105" "unused-subsystem" Report.Warning
    "a declared subsystem is never called by any operation"

let undeclared_subsystem_call =
  rule "SY106" "undeclared-subsystem-call" Report.Warning
    "a call on a field of a modeled class escapes verification (not in @sys([...]))"

let unreachable_after_return =
  rule "SY107" "unreachable-after-return" Report.Warning
    "the lowered body performs calls (or returns) after a point where every path returned"

let behavior_blowup =
  rule "SY108" "behavior-blowup" Report.Info
    "an inferred behavior regex exceeds the size or star-nesting threshold"

let subsumed_claim =
  rule "SY109" "subsumed-claim" Report.Warning
    "the claim is implied on every trace by the conjunction of other claims"

let contradictory_claims =
  rule "SY110" "contradictory-claims" Report.Error
    "two claims cannot hold together on any trace of the model: verification must fail"

let claim_set_minimizable =
  rule "SY111" "claim-set-minimizable" Report.Info
    "a strict subset of the claims already enforces the whole claim set"

let interleaved_protocol_race =
  rule "SY112" "interleaved-protocol-race" Report.Warning
    "an interleaving of concurrent (async) behavior violates a subsystem protocol that \
     every sequential schedule satisfies"

let all =
  [
    duplicate_operation;
    missing_initial;
    missing_final;
    unknown_next_operation;
    terminal_not_final;
    unreachable_operation;
    no_final_reachable;
    syntax_error;
    unreadable_file;
    unknown_suppression;
    annotation_error;
    rule_resource_limit;
    rule_internal_error;
    dead_operation;
    vacuous_claim;
    unsatisfiable_claim;
    redundant_claim;
    unused_subsystem;
    undeclared_subsystem_call;
    unreachable_after_return;
    behavior_blowup;
    subsumed_claim;
    contradictory_claims;
    claim_set_minimizable;
    interleaved_protocol_race;
  ]

let find_code code = List.find_opt (fun r -> String.equal r.code code) all

(* The registry fingerprint content-addresses the rule set itself: adding a
   rule, renaming a slug or changing a default severity changes the digest,
   which the lint result cache folds into its keys — so lint entries written
   under an older registry miss instead of replaying incomplete findings. *)
let fingerprint =
  let sev = function
    | Report.Error -> "error"
    | Report.Warning -> "warning"
    | Report.Info -> "info"
  in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun r -> String.concat ":" [ r.code; r.name; sev r.severity ]) all)))
