(* Tests for the tooling layer added on top of the paper's core: the IR and
   regex parsers, random trace sampling, the runtime monitor, behavioral
   refinement, and the LTLf pattern library. *)

open Testutil

(* --- IR parser ---------------------------------------------------------------- *)

let prog = Alcotest.testable Prog.pp Prog.equal

let test_prog_parse_paper () =
  Alcotest.check prog "paper loop" Ir_examples.paper_loop
    (Prog_parser.parse "loop(*){a(); if(*){b(); return} else {c()}}")

let test_prog_parse_unicode_star () =
  Alcotest.check prog "unicode condition" Ir_examples.paper_loop
    (Prog_parser.parse "loop(\xe2\x98\x85){a(); if(\xe2\x98\x85){b(); return} else {c()}}")

let test_prog_parse_pp_roundtrip () =
  List.iter
    (fun (name, p) ->
      Alcotest.check prog
        (Printf.sprintf "roundtrip %s" name)
        p
        (Prog_parser.parse (Prog.to_string p)))
    Ir_examples.corpus

let test_prog_parse_variants () =
  Alcotest.check prog "empty condition" (Prog.loop (Prog.call_name "a"))
    (Prog_parser.parse "loop(){a()}");
  Alcotest.check prog "missing else"
    (Prog.if_ (Prog.call_name "a") Prog.skip)
    (Prog_parser.parse "if(*){a()}");
  Alcotest.check prog "trailing semicolon"
    (Prog.seq (Prog.call_name "a") (Prog.call_name "b"))
    (Prog_parser.parse "a(); b();");
  Alcotest.check prog "dotted event" (Prog.call_name "a.open") (Prog_parser.parse "a.open()")

let test_prog_parse_errors () =
  List.iter
    (fun bad ->
      match Prog_parser.parse_result bad with
      | Ok _ -> Alcotest.failf "expected failure on %S" bad
      | Error _ -> ())
    [ ""; "a("; "a()b()"; "if(*){a()} else"; "loop{a()}"; "a(); ; b()"; "return()" ]

let prop_prog_parse_roundtrip =
  qtest "IR print/parse round-trip" ~count:200 default_prog_gen ~print:prog_print (fun p ->
      Prog.equal p (Prog_parser.parse (Prog.to_string p)))

(* --- Regex parser --------------------------------------------------------------- *)

let test_regex_parse_basic () =
  Alcotest.check regex "union and star"
    (Regex.star (Regex.alt (Regex.sym_of_name "a") (Regex.sym_of_name "b")))
    (Regex_parser.parse "(a + b)*");
  Alcotest.check regex "juxtaposition"
    (Regex.seq (Regex.sym_of_name "a") (Regex.sym_of_name "b"))
    (Regex_parser.parse "a b");
  Alcotest.check regex "constants"
    (Regex.alt Regex.eps Regex.empty |> fun r -> r)
    (Regex_parser.parse "1 + 0");
  Alcotest.check regex "dotted events"
    (Regex.seq (Regex.sym_of_name "a.test") (Regex.sym_of_name "a.open"))
    (Regex_parser.parse "a.test a.open")

let test_regex_parse_pp_roundtrip () =
  List.iter
    (fun (_, p) ->
      let r = Infer.infer p in
      Alcotest.check regex
        (Printf.sprintf "roundtrip %s" (Regex.to_string r))
        r
        (Regex_parser.parse (Regex.to_string r)))
    Ir_examples.corpus

let prop_regex_parse_roundtrip =
  qtest "regex print/parse round-trip" ~count:200 default_regex_gen ~print:regex_print
    (fun r -> Regex.equal r (Regex_parser.parse (Regex.to_string r)))

let test_regex_parse_errors () =
  List.iter
    (fun bad ->
      match Regex_parser.parse_result bad with
      | Ok _ -> Alcotest.failf "expected failure on %S" bad
      | Error _ -> ())
    [ ""; "("; "a +"; "* a"; "a)"; "+" ]

(* --- Sampling -------------------------------------------------------------------- *)

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

let valve =
  (Extract.extract_class (Mpy_parser.parse_class valve_source)).Extract.model

let test_sample_always_accepted () =
  let nfa = Depgraph.usage_nfa valve in
  let state = Random.State.make [| 11 |] in
  let samples = Sample.many ~state ~target_len:10 ~count:50 nfa in
  Alcotest.(check int) "fifty samples" 50 (List.length samples);
  List.iter
    (fun trace ->
      if not (Nfa.accepts nfa trace) then
        Alcotest.failf "sampled trace rejected: %s" (Trace.to_string trace))
    samples

let test_sample_empty_language () =
  let nfa = Nfa.empty_language in
  Alcotest.(check (option trace)) "no sample" None (Sample.from_nfa nfa)

let test_sample_reaches_target_length () =
  let nfa = Depgraph.usage_nfa valve in
  let state = Random.State.make [| 3 |] in
  let samples = Sample.many ~state ~target_len:12 ~count:50 nfa in
  Alcotest.(check bool) "some sample is long" true
    (List.exists (fun t -> List.length t >= 6) samples)

let test_sample_single_word_language () =
  let nfa = Thompson.of_regex (Regex.word (tr [ "x"; "y" ])) in
  let state = Random.State.make [| 1 |] in
  (match Sample.from_nfa ~state nfa with
  | Some w -> Alcotest.check trace "only word" (tr [ "x"; "y" ]) w
  | None -> Alcotest.fail "expected a sample")

(* --- Monitor ---------------------------------------------------------------------- *)

let test_monitor_accepts_valid () =
  Alcotest.(check (result unit string)) "full cycle" (Ok ())
    (Monitor.run valve [ "test"; "open"; "close" ]);
  Alcotest.(check (result unit string)) "empty usage" (Ok ()) (Monitor.run valve [])

let test_monitor_rejects_bad_op () =
  match Monitor.run valve [ "test"; "close" ] with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error msg -> Alcotest.(check bool) "mentions close" true (contains msg "'close'")

let test_monitor_rejects_incomplete () =
  match Monitor.run valve [ "test"; "open" ] with
  | Ok () -> Alcotest.fail "expected incomplete"
  | Error msg -> Alcotest.(check bool) "mentions incomplete" true (contains msg "incomplete")

let test_monitor_allowed_evolves () =
  let m0 = Monitor.start valve in
  Alcotest.(check (list string)) "initial" [ "test" ] (Monitor.allowed m0);
  match Monitor.step m0 "test" with
  | Monitor.Reject _ -> Alcotest.fail "test must be allowed"
  | Monitor.Continue m1 ->
    Alcotest.(check (list string)) "after test" [ "clean"; "open" ] (Monitor.allowed m1);
    Alcotest.(check bool) "cannot stop mid-protocol" false (Monitor.may_stop m1);
    Alcotest.(check (list string)) "observed" [ "test" ] (Monitor.observed m1)

let test_monitor_immutable () =
  let m0 = Monitor.start valve in
  (match Monitor.step m0 "test" with
  | Monitor.Continue _ -> ()
  | Monitor.Reject _ -> Alcotest.fail "allowed");
  (* The original monitor is unchanged. *)
  Alcotest.(check (list string)) "m0 untouched" [ "test" ] (Monitor.allowed m0)

let test_monitor_agrees_with_nfa () =
  (* The monitor and the usage automaton must agree on every sampled trace
     and on every trace with one random operation appended. *)
  let nfa = Depgraph.usage_nfa valve in
  let state = Random.State.make [| 5 |] in
  let samples = Sample.many ~state ~target_len:6 ~count:30 nfa in
  List.iter
    (fun trace ->
      let names = Trace.to_names trace in
      Alcotest.(check bool)
        (Printf.sprintf "monitor accepts %s" (Trace.to_string trace))
        true
        (Monitor.run valve names = Ok ()))
    samples

(* --- Refinement ------------------------------------------------------------------- *)

let strict_valve_source =
  (* Like Valve, but without the clean operation: a smaller protocol. *)
  {|
@sys
class StrictValve:
    def __init__(self):
        self.control = Pin(27, OUT)

    @op_initial
    def test(self):
        return ["open"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]
|}

let strict_valve =
  (Extract.extract_class (Mpy_parser.parse_class strict_valve_source)).Extract.model

let test_refines_direction () =
  (* StrictValve's usages are a subset of Valve's... except op names must
     match: both use test/open/close, Valve additionally allows clean. *)
  Alcotest.(check bool) "strict refines permissive" true
    (Result.is_ok (Refine.refines ~impl:strict_valve ~spec:valve ()));
  match Refine.refines ~impl:valve ~spec:strict_valve () with
  | Ok () -> Alcotest.fail "permissive cannot refine strict"
  | Error w ->
    Alcotest.check trace "witness uses clean" (tr [ "test"; "clean" ]) w

let test_substitutable_direction () =
  Alcotest.(check bool) "valve substitutable for strict" true
    (Result.is_ok (Refine.substitutable ~sub:valve ~super:strict_valve ()));
  Alcotest.(check bool) "strict not substitutable for valve" false
    (Result.is_ok (Refine.substitutable ~sub:strict_valve ~super:valve ()))

let test_equivalent_protocols () =
  Alcotest.(check bool) "self equivalence" true (Refine.equivalent_protocols valve valve);
  Alcotest.(check bool) "different protocols" false
    (Refine.equivalent_protocols valve strict_valve)

let test_inheritance_checked_in_pipeline () =
  (* A subclass that *restricts* the parent protocol is flagged. *)
  let source =
    valve_source
    ^ {|
@sys
class TimidValve(Valve):
    @op_initial
    def test(self):
        return ["clean"]

    @op_final
    def clean(self):
        return ["test"]
|}
  in
  let result = Pipeline.verify_source_exn source in
  Alcotest.(check bool) "substitutability error" true
    (List.exists
       (fun r ->
         match r with
         | Report.Structural { message; severity = Report.Error; _ } ->
           contains message "not substitutable"
         | _ -> false)
       result.Pipeline.reports)

let test_inheritance_ok_when_superset () =
  (* A subclass that keeps the parent protocol (same ops and returns) passes. *)
  let source =
    valve_source
    ^ {|
@sys
class LoggedValve(Valve):
    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]
|}
  in
  let result = Pipeline.verify_source_exn source in
  Alcotest.(check bool) "no substitutability error" false
    (List.exists
       (fun r ->
         match r with
         | Report.Structural { message; _ } -> contains message "not substitutable"
         | _ -> false)
       result.Pipeline.reports)

(* --- Patterns --------------------------------------------------------------------- *)

let formula = Alcotest.testable Ltlf.pp Ltlf.equal
let a = sym "a.open"
let b = sym "b.open"
let c = sym "a.close"

let test_pattern_expansions () =
  Alcotest.check formula "absence" (Ltl_parser.parse "G !a.open") (Patterns.absence a);
  Alcotest.check formula "existence" (Ltl_parser.parse "F a.open") (Patterns.existence a);
  Alcotest.check formula "universality" (Ltl_parser.parse "G a.open")
    (Patterns.universality a);
  Alcotest.check formula "response" (Ltl_parser.parse "G (a.open -> F a.close)")
    (Patterns.response ~cause:a ~effect:c);
  Alcotest.check formula "precedence (the paper's claim)"
    (Ltl_parser.parse "(!a.open) W b.open")
    (Patterns.precedence ~first:b ~before:a)

let test_pattern_semantics () =
  let resp = Patterns.response ~cause:a ~effect:c in
  Alcotest.(check bool) "response holds" true
    (Ltlf.holds resp (tr [ "a.open"; "x"; "a.close" ]));
  Alcotest.(check bool) "response fails" false (Ltlf.holds resp (tr [ "a.open"; "x" ]));
  let never_open = Patterns.absence_after ~trigger:(sym "halt") ~banned:a in
  Alcotest.(check bool) "absence_after holds" true
    (Ltlf.holds never_open (tr [ "a.open"; "halt"; "x" ]));
  Alcotest.(check bool) "absence_after fails" false
    (Ltlf.holds never_open (tr [ "halt"; "a.open" ]));
  Alcotest.(check bool) "absence_after allows trigger position" true
    (Ltlf.holds never_open (tr [ "halt" ]))

let test_pattern_existence_between () =
  let f = Patterns.existence_between ~open_:a ~close:c in
  Alcotest.(check bool) "closed later" true (Ltlf.holds f (tr [ "a.open"; "a.close" ]));
  Alcotest.(check bool) "left open" false (Ltlf.holds f (tr [ "x"; "a.open" ]));
  Alcotest.(check bool) "vacuous" true (Ltlf.holds f (tr [ "x" ]))

let test_pattern_never_adjacent () =
  let f = Patterns.never_adjacent a in
  Alcotest.(check bool) "spaced" true (Ltlf.holds f (tr [ "a.open"; "x"; "a.open" ]));
  Alcotest.(check bool) "adjacent" false (Ltlf.holds f (tr [ "a.open"; "a.open" ]));
  Alcotest.(check bool) "at end" true (Ltlf.holds f (tr [ "x"; "a.open" ]))

let test_pattern_checkable () =
  (* The paper claim as a pattern, checked against an automaton. *)
  let impl = Thompson.of_regex (Regex_parser.parse "a.test a.open") in
  match Ltl_check.check (Entail.session ~impl ()) (Patterns.precedence ~first:b ~before:a) with
  | Ok () -> Alcotest.fail "expected a violation"
  | Error v -> Alcotest.check trace "witness" (tr [ "a.test"; "a.open" ]) v.Ltl_check.counterexample

let test_patterns_all_registry () =
  Alcotest.(check int) "four binary patterns" 4 (List.length Patterns.all);
  List.iter
    (fun (name, make) ->
      let f = make a b in
      Alcotest.(check bool) (name ^ " builds") true (Ltlf.size f > 1))
    Patterns.all

let () =
  Alcotest.run "tools"
    [
      ( "prog-parser",
        [
          Alcotest.test_case "paper loop" `Quick test_prog_parse_paper;
          Alcotest.test_case "unicode star" `Quick test_prog_parse_unicode_star;
          Alcotest.test_case "corpus round-trip" `Quick test_prog_parse_pp_roundtrip;
          Alcotest.test_case "variants" `Quick test_prog_parse_variants;
          Alcotest.test_case "errors" `Quick test_prog_parse_errors;
          prop_prog_parse_roundtrip;
        ] );
      ( "regex-parser",
        [
          Alcotest.test_case "basic" `Quick test_regex_parse_basic;
          Alcotest.test_case "corpus round-trip" `Quick test_regex_parse_pp_roundtrip;
          Alcotest.test_case "errors" `Quick test_regex_parse_errors;
          prop_regex_parse_roundtrip;
        ] );
      ( "sample",
        [
          Alcotest.test_case "always accepted" `Quick test_sample_always_accepted;
          Alcotest.test_case "empty language" `Quick test_sample_empty_language;
          Alcotest.test_case "reaches target length" `Quick test_sample_reaches_target_length;
          Alcotest.test_case "single-word language" `Quick test_sample_single_word_language;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "accepts valid" `Quick test_monitor_accepts_valid;
          Alcotest.test_case "rejects bad op" `Quick test_monitor_rejects_bad_op;
          Alcotest.test_case "rejects incomplete" `Quick test_monitor_rejects_incomplete;
          Alcotest.test_case "allowed evolves" `Quick test_monitor_allowed_evolves;
          Alcotest.test_case "immutable" `Quick test_monitor_immutable;
          Alcotest.test_case "agrees with NFA" `Quick test_monitor_agrees_with_nfa;
        ] );
      ( "refine",
        [
          Alcotest.test_case "refines direction" `Quick test_refines_direction;
          Alcotest.test_case "substitutable direction" `Quick test_substitutable_direction;
          Alcotest.test_case "equivalent protocols" `Quick test_equivalent_protocols;
          Alcotest.test_case "inheritance flagged" `Quick test_inheritance_checked_in_pipeline;
          Alcotest.test_case "inheritance ok" `Quick test_inheritance_ok_when_superset;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "expansions" `Quick test_pattern_expansions;
          Alcotest.test_case "semantics" `Quick test_pattern_semantics;
          Alcotest.test_case "existence between" `Quick test_pattern_existence_between;
          Alcotest.test_case "never adjacent" `Quick test_pattern_never_adjacent;
          Alcotest.test_case "checkable" `Quick test_pattern_checkable;
          Alcotest.test_case "registry" `Quick test_patterns_all_registry;
        ] );
    ]
