open Testutil

(* --- Shared sources -------------------------------------------------------------- *)

let valve_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean = Pin(28, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
|}

let bad_sector_source =
  {|
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                print("a failed")
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                print("b failed")
                self.a.close()
                return []
|}

(* A corrected sector: valves are always released before any final exit, and
   b is opened before a, satisfying the claim (!a.open) W b.open. *)
let good_sector_source =
  {|
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class GoodSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial
    def start(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                return ["open_a", "drain"]
            case ["clean"]:
                self.b.clean()
                return ["abort"]

    @op
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["shutdown"]
            case ["clean"]:
                self.a.clean()
                return ["drain"]

    @op_final
    def shutdown(self):
        self.a.close()
        self.b.close()
        return ["start"]

    @op_final
    def drain(self):
        self.b.close()
        return ["start"]

    @op_final
    def abort(self):
        return ["start"]
|}

(* The paper's Listing 3.1 (Sector, returns only). *)
let listing31_source =
  {|
@sys(["a"])
class Sector:
    def __init__(self):
        self.a = Valve()

    @op_initial
    def open_a(self):
        if cond:
            return ["close_a", "open_b"]
        else:
            return ["clean_a"]

    @op
    def clean_a(self):
        return ["open_a"]

    @op
    def close_a(self):
        return ["open_a"]

    @op_final
    def open_b(self):
        if c2:
            return []
        else:
            return []
|}

let parse_one source = Mpy_parser.parse_class source
let extract source = (Extract.extract_class (parse_one source)).Extract.model
let valve = extract valve_source

(* --- Annotations ------------------------------------------------------------------ *)

let test_annotation_table_rows () =
  Alcotest.(check int) "seven rows (Table 1)" 7 (List.length Annotations.table)

let test_classify_method () =
  let dec name = { Mpy_ast.dec_name = name; dec_args = []; dec_line = 1 } in
  Alcotest.(check bool) "op" true
    (Annotations.classify_method_decorators [ dec "op" ] = Ok (Some Annotations.Middle));
  Alcotest.(check bool) "initial_final" true
    (Annotations.classify_method_decorators [ dec "op_initial_final" ]
    = Ok (Some Annotations.Initial_final));
  Alcotest.(check bool) "none" true (Annotations.classify_method_decorators [] = Ok None);
  Alcotest.(check bool) "conflict" true
    (match Annotations.classify_method_decorators [ dec "op"; dec "op_final" ] with
    | Error _ -> true
    | Ok _ -> false)

let test_kind_predicates () =
  Alcotest.(check bool) "initial_final is initial" true
    (Annotations.is_initial Annotations.Initial_final);
  Alcotest.(check bool) "initial_final is final" true
    (Annotations.is_final Annotations.Initial_final);
  Alcotest.(check bool) "middle is neither" false
    (Annotations.is_initial Annotations.Middle || Annotations.is_final Annotations.Middle)

(* --- Extraction -------------------------------------------------------------------- *)

let test_extract_valve_shape () =
  Alcotest.(check string) "name" "Valve" valve.Model.name;
  Alcotest.(check bool) "base class" true (valve.Model.kind = `Base);
  Alcotest.(check (list string)) "operations" [ "test"; "open"; "close"; "clean" ]
    (Model.op_names valve);
  Alcotest.(check int) "no claims" 0 (List.length valve.Model.claims)

let test_extract_valve_exits () =
  let test_op = Option.get (Model.find_op valve "test") in
  Alcotest.(check int) "test has two exits" 2 (List.length test_op.Model.exits);
  let nexts = List.map (fun (e : Model.exit_point) -> e.Model.next_ops) test_op.Model.exits in
  Alcotest.(check (list (list string))) "next ops" [ [ "open" ]; [ "clean" ] ] nexts

let test_extract_valve_behaviors () =
  let open_op = Option.get (Model.find_op valve "open") in
  match open_op.Model.exits with
  | [ e ] ->
    Alcotest.(check bool) "behavior is control.on" true
      (Equiv.equivalent e.Model.behavior (Regex.sym_of_name "control.on"))
  | _ -> Alcotest.fail "expected one exit"

let test_extract_subsystem_fields () =
  let bad = extract bad_sector_source in
  Alcotest.(check bool) "composite" true (bad.Model.kind = `Composite);
  Alcotest.(check (list string)) "declared" [ "a"; "b" ] bad.Model.declared_subsystems;
  Alcotest.(check (option string)) "a is a Valve" (Some "Valve") (Model.subsystem_class bad "a")

let test_extract_claims_parsed () =
  let bad = extract bad_sector_source in
  match bad.Model.claims with
  | [ (text, formula) ] ->
    Alcotest.(check string) "raw text" "(!a.open) W b.open" text;
    Alcotest.(check string) "parsed" "!a.open W b.open" (Ltlf.to_string formula)
  | _ -> Alcotest.fail "expected one claim"

let test_extract_bad_claim_reported () =
  let source =
    "@claim(\"(((\")\n@sys\nclass C:\n    @op_initial_final\n    def go(self):\n        return []\n"
  in
  let result = Extract.extract_class (parse_one source) in
  Alcotest.(check bool) "claim error reported" true
    (List.exists (fun r -> Report.severity r = Report.Error) result.Extract.diagnostics)

let test_extract_implicit_exit () =
  let source =
    "@sys\nclass C:\n    @op_initial_final\n    def go(self):\n        self.p.fire()\n"
  in
  let model = extract source in
  let op = Option.get (Model.find_op model "go") in
  match op.Model.exits with
  | [ e ] ->
    Alcotest.(check bool) "implicit" true e.Model.implicit;
    Alcotest.(check (list string)) "terminal" [] e.Model.next_ops
  | _ -> Alcotest.fail "expected exactly the implicit exit"

let test_exit_behaviors_of_marked () =
  let marked =
    Prog.if_
      (Prog.seq_list
         [
           Prog.call_name "a.x";
           Prog.call (Symbol.method_exit ~method_name:"m" 0);
           Prog.return;
         ])
      (Prog.seq_list
         [
           Prog.call_name "a.y";
           Prog.call (Symbol.method_exit ~method_name:"m" 1);
           Prog.return;
         ])
  in
  let exits, ongoing = Extract.exit_behaviors_of_marked ~method_name:"m" marked in
  Alcotest.(check int) "two exits" 2 (List.length exits);
  Alcotest.(check bool) "exit 0 behavior" true
    (Equiv.equivalent (List.assoc 0 exits) (Regex.sym_of_name "a.x"));
  Alcotest.(check bool) "exit 1 behavior" true
    (Equiv.equivalent (List.assoc 1 exits) (Regex.sym_of_name "a.y"));
  Alcotest.(check bool) "no fall-through" true (Deriv.is_empty_language ongoing)

(* --- Dependency graph (§3.1) --------------------------------------------------------- *)

let listing31 = extract listing31_source

let test_depgraph_listing31 () =
  let g = Depgraph.of_model listing31 in
  (* 4 entries + (2 + 1 + 1 + 2) exits = 10 nodes. *)
  Alcotest.(check int) "nodes" 10 (List.length g.Depgraph.nodes);
  (* entry→exit: 6; exit→entry: open_a/0 → {close_a, open_b}, open_a/1 →
     clean_a, clean_a/0 → open_a, close_a/0 → open_a, open_b exits → none. *)
  Alcotest.(check int) "arcs" 11 (List.length g.Depgraph.arcs)

let test_usage_nfa_valve () =
  let nfa = Depgraph.usage_nfa valve in
  let ok names = Nfa.accepts nfa (tr names) in
  Alcotest.(check bool) "empty usage" true (ok []);
  Alcotest.(check bool) "test clean" true (ok [ "test"; "clean" ]);
  Alcotest.(check bool) "test open close" true (ok [ "test"; "open"; "close" ]);
  Alcotest.(check bool) "cycle" true (ok [ "test"; "open"; "close"; "test"; "clean" ]);
  Alcotest.(check bool) "cannot stop after open" false (ok [ "test"; "open" ]);
  Alcotest.(check bool) "cannot start with open" false (ok [ "open"; "close" ]);
  Alcotest.(check bool) "close alone invalid" false (ok [ "close" ])

let test_usage_nfa_shortest_traces () =
  let nfa = Depgraph.usage_nfa valve in
  Alcotest.(check (option trace)) "shortest valid usage is empty" (Some [])
    (Nfa.shortest_accepted nfa)

let test_reachability_helpers () =
  Alcotest.(check (list string)) "all reachable"
    [ "open_a"; "close_a"; "open_b"; "clean_a" ]
    (Depgraph.reachable_ops listing31);
  let reaching = Depgraph.ops_reaching_final listing31 in
  Alcotest.(check bool) "open_a reaches final" true (List.mem "open_a" reaching);
  Alcotest.(check bool) "clean_a reaches final" true (List.mem "clean_a" reaching)

(* --- Validation ------------------------------------------------------------------------ *)

let has_error_containing reports fragment =
  List.exists
    (fun r ->
      match r with
      | Report.Structural { message; severity = Report.Error; _ } -> contains message fragment
      | _ -> false)
    reports

let has_warning_containing reports fragment =
  List.exists
    (fun r ->
      match r with
      | Report.Structural { message; severity = Report.Warning; _ } -> contains message fragment
      | _ -> false)
    reports

let test_validate_valve_clean () =
  Alcotest.(check int) "no findings" 0 (List.length (Validate.check valve))

let test_validate_missing_initial () =
  let source = "@sys\nclass C:\n    @op_final\n    def stop(self):\n        return []\n" in
  let reports = Validate.check (extract source) in
  Alcotest.(check bool) "missing initial" true
    (has_error_containing reports "@op_initial")

let test_validate_unknown_next () =
  let source =
    "@sys\nclass C:\n    @op_initial_final\n    def go(self):\n        return [\"nope\"]\n"
  in
  let reports = Validate.check (extract source) in
  Alcotest.(check bool) "unknown op reported" true
    (has_error_containing reports "unknown operation 'nope'")

let test_validate_dead_end () =
  let source =
    "@sys\nclass C:\n\
    \    @op_initial\n\
    \    def start(self):\n\
    \        return [\"stuck\"]\n\
    \    @op\n\
    \    def stuck(self):\n\
    \        return []\n\
    \    @op_final\n\
    \    def stop(self):\n\
    \        return []\n"
  in
  let reports = Validate.check (extract source) in
  Alcotest.(check bool) "dead end reported" true
    (has_error_containing reports "terminal exit");
  Alcotest.(check bool) "stop unreachable warned" true
    (has_warning_containing reports "unreachable")

let test_validate_unreachable () =
  let source =
    "@sys\nclass C:\n\
    \    @op_initial_final\n\
    \    def go(self):\n\
    \        return [\"go\"]\n\
    \    @op_final\n\
    \    def orphan(self):\n\
    \        return []\n"
  in
  let reports = Validate.check (extract source) in
  Alcotest.(check bool) "unreachable warning" true
    (has_warning_containing reports "unreachable")

(* --- Usage verification (the paper's §2.2) ---------------------------------------------- *)

let bad_result () = Pipeline.verify_source_exn (valve_source ^ bad_sector_source)

let test_paper_invalid_subsystem_usage () =
  let result = bad_result () in
  let usage_errors =
    List.filter_map
      (function
        | Report.Invalid_subsystem_usage
            { field; subsystem_class; counterexample; projected; failure; _ } ->
          Some (field, subsystem_class, counterexample, projected, failure)
        | _ -> None)
      result.Pipeline.reports
  in
  match usage_errors with
  | [ (field, subsystem_class, counterexample, projected, failure) ] ->
    Alcotest.(check string) "field" "a" field;
    Alcotest.(check string) "class" "Valve" subsystem_class;
    Alcotest.check trace "the paper's counterexample"
      (tr [ "open_a"; "a.test"; "a.open" ])
      counterexample;
    Alcotest.(check (list string)) "projection" [ "test"; "open" ] projected;
    (match failure with
    | Report.Not_final "open" -> ()
    | _ -> Alcotest.fail "expected open flagged as not final")
  | rs -> Alcotest.failf "expected exactly one usage error, got %d" (List.length rs)

let test_paper_transcript_verbatim () =
  let result = bad_result () in
  let transcripts = List.map Report.to_string result.Pipeline.reports in
  Alcotest.(check bool) "INVALID SUBSYSTEM USAGE transcript" true
    (List.mem
       "Error in specification: INVALID SUBSYSTEM USAGE\n\
        Counter example: open_a, a.test, a.open\n\
        Subsystems errors:\n\
       \  * Valve 'a': test, >open< (not final)"
       transcripts)

let test_paper_claim_failure () =
  let result = bad_result () in
  let claim_errors =
    List.filter_map
      (function
        | Report.Requirement_failure { formula; counterexample; _ } ->
          Some (formula, counterexample)
        | _ -> None)
      result.Pipeline.reports
  in
  match claim_errors with
  | [ (formula_text, counterexample) ] ->
    Alcotest.(check string) "formula text" "(!a.open) W b.open" formula_text;
    (* Our counterexample is length-minimal (the paper's NuSMV back end
       reported a longer one); verify it really violates the claim. *)
    let formula = Ltl_parser.parse formula_text in
    Alcotest.(check bool) "counterexample violates claim" false
      (Ltlf.holds formula counterexample);
    Alcotest.check trace "shortest violation" (tr [ "a.test"; "a.open" ]) counterexample
  | rs -> Alcotest.failf "expected exactly one claim failure, got %d" (List.length rs)

let test_good_sector_verifies () =
  let result = Pipeline.verify_source_exn (valve_source ^ good_sector_source) in
  let errors = Report.errors result.Pipeline.reports in
  if errors <> [] then
    Alcotest.failf "unexpected errors:\n%s"
      (String.concat "\n---\n" (List.map Report.to_string errors));
  Alcotest.(check bool) "verified" true (Pipeline.verified result)

let test_expanded_nfa_language () =
  let bad = extract bad_sector_source in
  let nfa = Usage.expanded_nfa bad in
  let ok names = Nfa.accepts nfa (tr names) in
  Alcotest.(check bool) "unused object" true (ok []);
  Alcotest.(check bool) "open_a clean path" true (ok [ "open_a"; "a.test"; "a.clean" ]);
  Alcotest.(check bool) "open_a then open_b full" true
    (ok [ "open_a"; "a.test"; "a.open"; "open_b"; "b.test"; "b.open"; "a.close"; "b.close" ]);
  Alcotest.(check bool) "cannot start with open_b" false (ok [ "open_b"; "b.test"; "b.clean" ]);
  Alcotest.(check bool) "body calls must match the op" false (ok [ "open_a"; "b.test" ])

let test_projection () =
  Alcotest.(check (list string)) "project a" [ "test"; "open" ]
    (Usage.project_subsystem ~field:"a" (tr [ "open_a"; "a.test"; "b.test"; "a.open" ]));
  Alcotest.(check (list string)) "project b" [ "test" ]
    (Usage.project_subsystem ~field:"b" (tr [ "open_a"; "a.test"; "b.test"; "a.open" ]))

let test_usage_missing_field () =
  let source =
    "@sys([\"ghost\"])\nclass C:\n    @op_initial_final\n    def go(self):\n        return []\n"
  in
  let result = Pipeline.verify_source_exn (valve_source ^ source) in
  Alcotest.(check bool) "missing field reported" true
    (has_error_containing result.Pipeline.reports "never assigned")

let test_usage_unknown_class () =
  let source =
    "@sys([\"x\"])\nclass C:\n\
    \    def __init__(self):\n\
    \        self.x = Mystery()\n\
    \    @op_initial_final\n\
    \    def go(self):\n\
    \        return []\n"
  in
  let result = Pipeline.verify_source_exn source in
  Alcotest.(check bool) "unknown class reported" true
    (has_error_containing result.Pipeline.reports "unknown class")

let test_usage_not_allowed_failure () =
  (* Calling open twice in a row: the second open is not allowed. *)
  let source =
    "@sys([\"a\"])\nclass Doubler:\n\
    \    def __init__(self):\n\
    \        self.a = Valve()\n\
    \    @op_initial_final\n\
    \    def slam(self):\n\
    \        self.a.test()\n\
    \        self.a.open()\n\
    \        self.a.open()\n\
    \        self.a.close()\n\
    \        return []\n"
  in
  let result = Pipeline.verify_source_exn (valve_source ^ source) in
  let failures =
    List.filter_map
      (function
        | Report.Invalid_subsystem_usage { failure; _ } -> Some failure
        | _ -> None)
      result.Pipeline.reports
  in
  Alcotest.(check bool) "not-allowed failure" true
    (List.exists
       (function
         | Report.Not_allowed "open" -> true
         | _ -> false)
       failures)

(* --- Claims ------------------------------------------------------------------------------ *)

let test_claim_on_good_sector_language () =
  let good = extract good_sector_source in
  let impl = Claims.subsystem_call_nfa good in
  let claim = Ltl_parser.parse "(!a.open) W b.open" in
  Alcotest.(check bool) "all bounded words satisfy" true
    (Ltl_oracle.holds_on_all_words ~max_len:6 claim impl)

let test_claim_vacuous_when_no_calls () =
  let source =
    "@claim(\"G false\")\n@sys([\"a\"])\nclass Silent:\n\
    \    def __init__(self):\n\
    \        self.a = Valve()\n\
    \    @op_initial_final\n\
    \    def nop(self):\n\
    \        return []\n"
  in
  let result = Pipeline.verify_source_exn (valve_source ^ source) in
  (* The only subsystem-call trace is empty, which satisfies G false
     vacuously — claims constrain calls, not operation entries. *)
  let claim_failures =
    List.filter
      (function
        | Report.Requirement_failure _ -> true
        | _ -> false)
      result.Pipeline.reports
  in
  Alcotest.(check int) "no claim failure" 0 (List.length claim_failures)

(* --- Invocation analysis ------------------------------------------------------------------ *)

let test_invocation_undefined_op () =
  let source =
    "@sys([\"a\"])\nclass C:\n\
    \    def __init__(self):\n\
    \        self.a = Valve()\n\
    \    @op_initial_final\n\
    \    def go(self):\n\
    \        self.a.explode()\n\
    \        return []\n"
  in
  let result = Pipeline.verify_source_exn (valve_source ^ source) in
  Alcotest.(check bool) "undefined op reported" true
    (has_error_containing result.Pipeline.reports "undefined operation 'a.explode'")

let test_invocation_nonexhaustive_match () =
  (* Only the ["open"] case of test() is handled; ["clean"] is missing. *)
  let source =
    "@sys([\"a\"])\nclass C:\n\
    \    def __init__(self):\n\
    \        self.a = Valve()\n\
    \    @op_initial_final\n\
    \    def go(self):\n\
    \        match self.a.test():\n\
    \            case [\"open\"]:\n\
    \                self.a.open()\n\
    \                self.a.close()\n\
    \                return []\n"
  in
  let result = Pipeline.verify_source_exn (valve_source ^ source) in
  Alcotest.(check bool) "non-exhaustive match reported" true
    (has_error_containing result.Pipeline.reports "non-exhaustive match")

let test_invocation_impossible_case () =
  let source =
    "@sys([\"a\"])\nclass C:\n\
    \    def __init__(self):\n\
    \        self.a = Valve()\n\
    \    @op_initial_final\n\
    \    def go(self):\n\
    \        match self.a.test():\n\
    \            case [\"open\"]:\n\
    \                self.a.open()\n\
    \                self.a.close()\n\
    \                return []\n\
    \            case [\"clean\"]:\n\
    \                self.a.clean()\n\
    \                return []\n\
    \            case [\"frobnicate\"]:\n\
    \                return []\n"
  in
  let result = Pipeline.verify_source_exn (valve_source ^ source) in
  Alcotest.(check bool) "impossible case warned" true
    (List.exists
       (fun r ->
         match r with
         | Report.Structural { message; severity = Report.Warning; _ } ->
           contains message "never returns"
         | _ -> false)
       result.Pipeline.reports)

let test_invocation_wildcard_covers () =
  let source =
    "@sys([\"a\"])\nclass C:\n\
    \    def __init__(self):\n\
    \        self.a = Valve()\n\
    \    @op_initial_final\n\
    \    def go(self):\n\
    \        match self.a.test():\n\
    \            case [\"open\"]:\n\
    \                self.a.open()\n\
    \                self.a.close()\n\
    \                return []\n\
    \            case _:\n\
    \                self.a.clean()\n\
    \                return []\n"
  in
  let result = Pipeline.verify_source_exn (valve_source ^ source) in
  Alcotest.(check bool) "no non-exhaustive error" false
    (has_error_containing result.Pipeline.reports "non-exhaustive")

(* --- Pipeline --------------------------------------------------------------------------- *)

let test_pipeline_parse_error () =
  let result = Pipeline.verify_source "class C:\n  def broken(self)\n    return []\n" in
  Alcotest.(check bool) "has a syntax-error report" true
    (List.exists Report.is_syntax_error result.Pipeline.reports);
  Alcotest.(check bool) "not verified" false (Pipeline.verified result);
  match List.find Report.is_syntax_error result.Pipeline.reports with
  | Report.Syntax_error { line; _ } -> Alcotest.(check int) "error line" 2 line
  | _ -> assert false

let test_pipeline_models_in_order () =
  let result = bad_result () in
  Alcotest.(check (list string)) "source order" [ "Valve"; "BadSector" ]
    (List.map (fun (m : Model.t) -> m.Model.name) result.Pipeline.models)

let test_pipeline_env_lookup () =
  let result = bad_result () in
  let find = Pipeline.find_model result.Pipeline.models in
  Alcotest.(check bool) "finds Valve" true (find "Valve" <> None);
  Alcotest.(check bool) "misses unknown" true (find "Nope" = None)

let test_valve_alone_verifies () =
  let result = Pipeline.verify_source_exn valve_source in
  Alcotest.(check bool) "clean" true (Pipeline.verified result)

let () =
  Alcotest.run "core"
    [
      ( "annotations",
        [
          Alcotest.test_case "table rows" `Quick test_annotation_table_rows;
          Alcotest.test_case "classify method" `Quick test_classify_method;
          Alcotest.test_case "kind predicates" `Quick test_kind_predicates;
        ] );
      ( "extract",
        [
          Alcotest.test_case "valve shape" `Quick test_extract_valve_shape;
          Alcotest.test_case "valve exits" `Quick test_extract_valve_exits;
          Alcotest.test_case "valve behaviors" `Quick test_extract_valve_behaviors;
          Alcotest.test_case "subsystem fields" `Quick test_extract_subsystem_fields;
          Alcotest.test_case "claims parsed" `Quick test_extract_claims_parsed;
          Alcotest.test_case "bad claim reported" `Quick test_extract_bad_claim_reported;
          Alcotest.test_case "implicit exit" `Quick test_extract_implicit_exit;
          Alcotest.test_case "exit behaviors of marked" `Quick test_exit_behaviors_of_marked;
        ] );
      ( "depgraph",
        [
          Alcotest.test_case "listing 3.1 graph" `Quick test_depgraph_listing31;
          Alcotest.test_case "valve usage NFA" `Quick test_usage_nfa_valve;
          Alcotest.test_case "shortest usage" `Quick test_usage_nfa_shortest_traces;
          Alcotest.test_case "reachability" `Quick test_reachability_helpers;
        ] );
      ( "validate",
        [
          Alcotest.test_case "valve clean" `Quick test_validate_valve_clean;
          Alcotest.test_case "missing initial" `Quick test_validate_missing_initial;
          Alcotest.test_case "unknown next" `Quick test_validate_unknown_next;
          Alcotest.test_case "dead end" `Quick test_validate_dead_end;
          Alcotest.test_case "unreachable" `Quick test_validate_unreachable;
        ] );
      ( "usage",
        [
          Alcotest.test_case "paper: invalid subsystem usage" `Quick
            test_paper_invalid_subsystem_usage;
          Alcotest.test_case "paper: transcript verbatim" `Quick test_paper_transcript_verbatim;
          Alcotest.test_case "paper: claim failure" `Quick test_paper_claim_failure;
          Alcotest.test_case "good sector verifies" `Quick test_good_sector_verifies;
          Alcotest.test_case "expanded NFA language" `Quick test_expanded_nfa_language;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "missing field" `Quick test_usage_missing_field;
          Alcotest.test_case "unknown class" `Quick test_usage_unknown_class;
          Alcotest.test_case "not-allowed failure" `Quick test_usage_not_allowed_failure;
        ] );
      ( "claims",
        [
          Alcotest.test_case "good sector language" `Quick test_claim_on_good_sector_language;
          Alcotest.test_case "vacuous claim" `Quick test_claim_vacuous_when_no_calls;
        ] );
      ( "invocation",
        [
          Alcotest.test_case "undefined op" `Quick test_invocation_undefined_op;
          Alcotest.test_case "non-exhaustive match" `Quick test_invocation_nonexhaustive_match;
          Alcotest.test_case "impossible case" `Quick test_invocation_impossible_case;
          Alcotest.test_case "wildcard covers" `Quick test_invocation_wildcard_covers;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "parse error" `Quick test_pipeline_parse_error;
          Alcotest.test_case "models in order" `Quick test_pipeline_models_in_order;
          Alcotest.test_case "env lookup" `Quick test_pipeline_env_lookup;
          Alcotest.test_case "valve alone verifies" `Quick test_valve_alone_verifies;
        ] );
    ]
