(* Tests for the reporting layer: Stats metrics, Explain narration, Report
   formatting corners, and the per-operation DOT rendering. *)

open Testutil

let valve_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

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
                self.a.close()
                return []
|}

let extract source =
  (Extract.extract_class (Mpy_parser.parse_class source)).Extract.model

let valve = extract valve_source
let bad_sector = extract bad_sector_source

(* --- Stats ----------------------------------------------------------------------- *)

let test_stats_valve () =
  let s = Stats.of_model valve in
  Alcotest.(check string) "name" "Valve" s.Stats.class_name;
  Alcotest.(check int) "ops" 4 s.Stats.operations;
  Alcotest.(check int) "exits" 5 s.Stats.exit_points;
  Alcotest.(check int) "subsystems" 0 s.Stats.subsystems;
  Alcotest.(check int) "usage states: start + exits" 6 s.Stats.usage_states;
  Alcotest.(check bool) "min DFA no bigger" true
    (s.Stats.usage_min_dfa_states <= s.Stats.usage_states + 1);
  Alcotest.(check bool) "some usages" true (s.Stats.usages_upto_6 > 0)

let test_stats_composite () =
  let s = Stats.of_model bad_sector in
  Alcotest.(check int) "subsystems" 2 s.Stats.subsystems;
  Alcotest.(check int) "claims" 1 s.Stats.claims;
  Alcotest.(check bool) "expanded bigger than usage" true
    (s.Stats.expanded_states > s.Stats.usage_states)

let test_stats_row_alignment () =
  let row = Format.asprintf "%a" Stats.pp_row (Stats.of_model valve) in
  Alcotest.(check bool) "header and row same arity" true
    (String.length Stats.header > 0 && String.length row > 0)

(* --- Explain ----------------------------------------------------------------------- *)

let usage_error () =
  let result = Pipeline.verify_source_exn (valve_source ^ bad_sector_source) in
  let report =
    List.find
      (function
        | Report.Invalid_subsystem_usage _ -> true
        | _ -> false)
      result.Pipeline.reports
  in
  (Option.get (Pipeline.find_model result.Pipeline.models "BadSector"), report)

let test_explain_segments () =
  let model, report = usage_error () in
  match Explain.of_report ~model report with
  | None -> Alcotest.fail "expected an explanation"
  | Some e ->
    Alcotest.(check int) "one step" 1 (List.length e.Explain.steps);
    let step = List.hd e.Explain.steps in
    Alcotest.(check string) "op" "open_a" step.Explain.op;
    Alcotest.(check bool) "line recorded" true (step.Explain.op_line > 0);
    Alcotest.(check (list string)) "calls" [ "a.test"; "a.open" ]
      (List.map Symbol.name step.Explain.calls);
    Alcotest.(check (list string)) "observed" [ "test"; "open" ] e.Explain.observed

let test_explain_narration_shape () =
  let model, report = usage_error () in
  let e = Option.get (Explain.of_report ~model report) in
  let text = Format.asprintf "%a" Explain.pp e in
  List.iter
    (fun fragment -> Alcotest.(check bool) fragment true (contains text fragment))
    [ "1. open_a"; "calls: a.test, a.open"; "Valve 'a' observed: test, open"; "not a final" ]

let test_explain_other_reports_ignored () =
  let model, _ = usage_error () in
  let other = Report.structural Report.Warning ~class_name:"BadSector" "whatever" in
  Alcotest.(check bool) "structural not explained" true
    (Explain.of_report ~model other = None);
  let claim =
    Report.Requirement_failure
      { class_name = "BadSector"; formula = "x"; counterexample = [] }
  in
  Alcotest.(check bool) "claim not explained" true (Explain.of_report ~model claim = None)

let test_explain_multi_step () =
  (* A two-operation counterexample segments into two steps. *)
  let e =
    Explain.of_usage_error ~model:bad_sector ~field:"b" ~subsystem_class:"Valve"
      ~counterexample:
        (tr [ "open_a"; "a.test"; "a.open"; "open_b"; "b.test"; "b.open" ])
      ~failure:(Report.Not_final "open")
  in
  Alcotest.(check int) "two steps" 2 (List.length e.Explain.steps);
  Alcotest.(check (list string)) "second step calls" [ "b.test"; "b.open" ]
    (List.map Symbol.name (List.nth e.Explain.steps 1).Explain.calls);
  Alcotest.(check (list string)) "b's view" [ "test"; "open" ] e.Explain.observed

(* --- Report formatting corners -------------------------------------------------------- *)

let test_report_not_allowed_note () =
  let report =
    Report.Invalid_subsystem_usage
      {
        class_name = "C";
        field = "v";
        subsystem_class = "Valve";
        counterexample = tr [ "go"; "v.open" ];
        projected = [ "open" ];
        failure = Report.Not_allowed "open";
      }
  in
  Alcotest.(check bool) "note text" true
    (contains (Report.to_string report) ">open< (not allowed here)")

let test_report_severity_partition () =
  let reports =
    [
      Report.structural Report.Warning ~class_name:"C" "w";
      Report.structural Report.Error ~class_name:"C" "e";
      Report.structural Report.Info ~class_name:"C" "i";
    ]
  in
  Alcotest.(check int) "one error" 1 (List.length (Report.errors reports))

let test_report_structural_line () =
  let r = Report.structural ~line:42 Report.Error ~class_name:"C" "boom" in
  Alcotest.(check bool) "line shown" true (contains (Report.to_string r) "(line 42)");
  Alcotest.(check string) "class name" "C" (Report.class_name r)

(* --- Per-operation DOT ----------------------------------------------------------------- *)

let test_dot_of_operation () =
  let test_op = Option.get (Model.find_op valve "test") in
  let dot = Dot.of_operation test_op in
  List.iter
    (fun fragment -> Alcotest.(check bool) fragment true (contains dot fragment))
    [ "digraph test"; "status.value"; "exit 0 [open]"; "exit 1 [clean]"; "doublecircle" ]

let test_dot_of_operation_implicit () =
  let source =
    "@sys\nclass C:\n    @op_initial_final\n    def go(self):\n        self.p.fire()\n"
  in
  let model = extract source in
  let op = Option.get (Model.find_op model "go") in
  let dot = Dot.of_operation op in
  Alcotest.(check bool) "implicit exit labeled" true (contains dot "exit 0 []")

let () =
  Alcotest.run "reporting"
    [
      ( "stats",
        [
          Alcotest.test_case "valve" `Quick test_stats_valve;
          Alcotest.test_case "composite" `Quick test_stats_composite;
          Alcotest.test_case "row" `Quick test_stats_row_alignment;
        ] );
      ( "explain",
        [
          Alcotest.test_case "segments" `Quick test_explain_segments;
          Alcotest.test_case "narration shape" `Quick test_explain_narration_shape;
          Alcotest.test_case "other reports ignored" `Quick test_explain_other_reports_ignored;
          Alcotest.test_case "multi step" `Quick test_explain_multi_step;
        ] );
      ( "report",
        [
          Alcotest.test_case "not-allowed note" `Quick test_report_not_allowed_note;
          Alcotest.test_case "severity partition" `Quick test_report_severity_partition;
          Alcotest.test_case "structural line" `Quick test_report_structural_line;
        ] );
      ( "dot-operation",
        [
          Alcotest.test_case "explicit exits" `Quick test_dot_of_operation;
          Alcotest.test_case "implicit exit" `Quick test_dot_of_operation_implicit;
        ] );
    ]
