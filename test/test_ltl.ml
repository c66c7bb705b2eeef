open Testutil

let a_open = Ltlf.atom_name "a.open"
let b_open = Ltlf.atom_name "b.open"
let paper_claim = Ltlf.wuntil (Ltlf.neg a_open) b_open

(* --- Direct semantics ---------------------------------------------------------- *)

let test_atom () =
  Alcotest.(check bool) "holds at head" true (Ltlf.holds a_open (tr [ "a.open" ]));
  Alcotest.(check bool) "fails elsewhere" false (Ltlf.holds a_open (tr [ "b.open" ]));
  Alcotest.(check bool) "fails on empty" false (Ltlf.holds a_open [])

let test_boolean_connectives () =
  let f = Ltlf.conj (Ltlf.neg a_open) (Ltlf.disj b_open Ltlf.tt) in
  Alcotest.(check bool) "conj/disj/neg" true (Ltlf.holds f (tr [ "b.open" ]));
  Alcotest.(check bool) "implies" true
    (Ltlf.holds (Ltlf.implies a_open b_open) (tr [ "c" ]))

let test_next_strong_vs_weak () =
  Alcotest.(check bool) "X needs successor" false (Ltlf.holds (Ltlf.next Ltlf.tt) (tr [ "a" ]));
  Alcotest.(check bool) "WX true at last" true (Ltlf.holds (Ltlf.wnext Ltlf.ff) (tr [ "a" ]));
  Alcotest.(check bool) "X on longer trace" true
    (Ltlf.holds (Ltlf.next b_open) (tr [ "a.open"; "b.open" ]))

let test_globally_finally () =
  let g = Ltlf.globally (Ltlf.neg a_open) in
  Alcotest.(check bool) "G on empty" true (Ltlf.holds g []);
  Alcotest.(check bool) "G holds" true (Ltlf.holds g (tr [ "b"; "c" ]));
  Alcotest.(check bool) "G fails" false (Ltlf.holds g (tr [ "b"; "a.open" ]));
  let f = Ltlf.finally a_open in
  Alcotest.(check bool) "F on empty" false (Ltlf.holds f []);
  Alcotest.(check bool) "F holds late" true (Ltlf.holds f (tr [ "b"; "a.open" ]))

let test_until () =
  let u = Ltlf.until (Ltlf.neg a_open) b_open in
  Alcotest.(check bool) "witness required" false (Ltlf.holds u (tr [ "c"; "c" ]));
  Alcotest.(check bool) "witness found" true (Ltlf.holds u (tr [ "c"; "b.open" ]));
  Alcotest.(check bool) "left must hold" false (Ltlf.holds u (tr [ "a.open"; "b.open" ]))

let test_weak_until_paper_claim () =
  (* (!a.open) W b.open *)
  Alcotest.(check bool) "vacuous on empty" true (Ltlf.holds paper_claim []);
  Alcotest.(check bool) "all quiet" true (Ltlf.holds paper_claim (tr [ "a.test"; "a.close" ]));
  Alcotest.(check bool) "b first then a" true
    (Ltlf.holds paper_claim (tr [ "b.open"; "a.open" ]));
  Alcotest.(check bool) "a before b violates" false
    (Ltlf.holds paper_claim (tr [ "a.test"; "a.open"; "b.open" ]));
  Alcotest.(check bool) "paper's counterexample violates" false
    (Ltlf.holds paper_claim
       (tr [ "a.test"; "a.open"; "b.open"; "b.test"; "b.open"; "a.close"; "b.close" ]))

let test_pp () =
  Alcotest.(check string) "paper style" "!a.open W b.open" (Ltlf.to_string paper_claim);
  Alcotest.(check string) "unary and binary"
    "G (!a.open || F b.open)"
    (Ltlf.to_string
       (Ltlf.globally (Ltlf.Or (Ltlf.neg a_open, Ltlf.finally b_open))))

(* --- Parser ---------------------------------------------------------------------- *)

let formula = Alcotest.testable Ltlf.pp Ltlf.equal

let test_parse_paper_claim () =
  Alcotest.check formula "paper claim" paper_claim (Ltl_parser.parse "(!a.open) W b.open")

let test_parse_precedence () =
  Alcotest.check formula "unary binds tighter"
    (Ltlf.wuntil (Ltlf.neg a_open) b_open)
    (Ltl_parser.parse "!a.open W b.open");
  Alcotest.check formula "and over or"
    (Ltlf.disj (Ltlf.conj a_open b_open) (Ltlf.atom_name "c"))
    (Ltl_parser.parse "a.open && b.open || c")

let test_parse_temporal () =
  Alcotest.check formula "globally finally"
    (Ltlf.globally (Ltlf.finally a_open))
    (Ltl_parser.parse "G F a.open");
  Alcotest.check formula "next" (Ltlf.next a_open) (Ltl_parser.parse "X a.open");
  Alcotest.check formula "weak next" (Ltlf.wnext a_open) (Ltl_parser.parse "WX a.open");
  Alcotest.check formula "until right assoc"
    (Ltlf.until a_open (Ltlf.until b_open (Ltlf.atom_name "c")))
    (Ltl_parser.parse "a.open U b.open U c")

let test_parse_implication () =
  Alcotest.check formula "sugar"
    (Ltlf.implies a_open (Ltlf.finally b_open))
    (Ltl_parser.parse "a.open -> F b.open")

let test_parse_constants () =
  Alcotest.check formula "true" Ltlf.tt (Ltl_parser.parse "true");
  Alcotest.check formula "false" Ltlf.ff (Ltl_parser.parse "false")

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Ltl_parser.parse_result bad with
      | Ok _ -> Alcotest.failf "expected parse failure on %S" bad
      | Error _ -> ())
    [ ""; "(a.open"; "a.open W"; "&& b"; "a b"; "a.open )" ]

let test_parse_roundtrip () =
  (* pp output re-parses to the same formula. *)
  List.iter
    (fun f ->
      let printed = Ltlf.to_string f in
      Alcotest.check formula (Printf.sprintf "roundtrip %s" printed) f
        (Ltl_parser.parse printed))
    [
      paper_claim;
      Ltlf.globally (Ltlf.implies a_open (Ltlf.finally b_open));
      Ltlf.conj (Ltlf.neg a_open) (Ltlf.disj b_open (Ltlf.next a_open));
      Ltlf.until (Ltlf.wnext a_open) (Ltlf.wuntil b_open Ltlf.tt);
    ]

(* --- Progression & automaton ------------------------------------------------------- *)

let alphabet = List.map Symbol.intern [ "a.open"; "b.open"; "a.test" ]

(* Random formulas occasionally have doubly-exponential obligation closures;
   automaton-building properties run under a small state budget and treat an
   exceeded budget as "case skipped". *)
let budget = 1500

let limits = Limits.make ~max_states:budget ()

let with_budget prop = try prop () with Limits.Budget_exceeded _ -> true

let test_progression_invariant () =
  (* e·rest ⊨ φ  iff  rest ⊨ progress(φ, e) *)
  let formulas =
    [
      paper_claim;
      Ltlf.globally (Ltlf.neg a_open);
      Ltlf.finally b_open;
      Ltlf.next a_open;
      Ltlf.wnext a_open;
      Ltlf.until (Ltlf.neg a_open) b_open;
      Ltlf.neg (Ltlf.until (Ltlf.neg a_open) b_open);
    ]
  in
  let words =
    [ []; tr [ "a.open" ]; tr [ "b.open"; "a.open" ]; tr [ "a.test"; "a.open"; "b.open" ] ]
  in
  List.iter
    (fun f ->
      List.iter
        (fun e ->
          List.iter
            (fun rest ->
              let lhs = Ltlf.holds f (e :: rest) in
              let rhs = Ltlf.holds (Progression.progress f e) rest in
              if lhs <> rhs then
                Alcotest.failf "progression mismatch: %s on %s·%s" (Ltlf.to_string f)
                  (Symbol.name e)
                  (Trace.to_string rest))
            words)
        alphabet)
    formulas

let test_dfa_agrees_with_semantics () =
  let formulas =
    [
      paper_claim;
      Ltlf.globally (Ltlf.implies a_open (Ltlf.finally b_open));
      Ltlf.finally (Ltlf.conj a_open (Ltlf.next b_open));
      Ltlf.neg paper_claim;
    ]
  in
  List.iter
    (fun f ->
      let dfa = Progression.to_dfa ~alphabet f in
      (* Enumerate all words up to length 4 over the alphabet. *)
      let rec words len =
        if len = 0 then [ [] ]
        else
          let shorter = words (len - 1) in
          shorter
          @ List.concat_map (fun w -> List.map (fun s -> s :: w) alphabet)
              (List.filter (fun w -> List.length w = len - 1) shorter)
      in
      List.iter
        (fun w ->
          let expected = Ltlf.holds f w in
          let got = Dfa_oracle.accepts dfa w in
          if expected <> got then
            Alcotest.failf "automaton disagrees on %s for %s" (Trace.to_string w)
              (Ltlf.to_string f))
        (words 4))
    formulas

let test_state_space_reasonable () =
  let n = Ltl_oracle.num_reachable_obligations ~alphabet paper_claim in
  Alcotest.(check bool) "small automaton" true (n <= 8)

(* Progressed syntactically, this claim grows a larger formula on every
   step; as Boolean functions of its literals its obligations close after
   four. *)
let test_growing_claim_closes () =
  let f name = Ltlf.finally (Ltlf.atom_name name) in
  let claim = Ltlf.finally (Ltlf.until (f "b") (f "c")) in
  Alcotest.(check int) "obligations" 4
    (Ltl_oracle.num_reachable_obligations ~alphabet:(List.map sym [ "a"; "b"; "c" ]) claim)

(* --- Checking ----------------------------------------------------------------------- *)

let impl_of regex = Thompson.of_regex regex

let test_check_pass () =
  (* b.open then a.open satisfies the paper claim. *)
  let impl = impl_of (Regex.word (List.map Symbol.intern [ "b.open"; "a.open" ])) in
  match Ltl_check.check (Entail.session ~impl ()) paper_claim with
  | Ok () -> ()
  | Error v -> Alcotest.failf "unexpected violation: %s" (Trace.to_string v.Ltl_check.counterexample)

let test_check_fail_shortest () =
  (* Language: (a.test)* · a.open — every nonempty completion violates. *)
  let impl =
    impl_of
      (Regex.seq
         (Regex.star (Regex.sym_of_name "a.test"))
         (Regex.sym_of_name "a.open"))
  in
  match Ltl_check.check (Entail.session ~impl ()) paper_claim with
  | Ok () -> Alcotest.fail "expected a violation"
  | Error v ->
    Alcotest.check trace "shortest counterexample" (tr [ "a.open" ]) v.Ltl_check.counterexample

let test_check_empty_language () =
  match Ltl_check.check (Entail.session ~impl:Nfa.empty_language ()) paper_claim with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "empty language satisfies every claim"

let test_check_claim_string () =
  let impl = impl_of (Regex.sym_of_name "a.open") in
  match Ltl_check.check_claim (Entail.session ~impl ()) "(!a.open) W b.open" with
  | Ok () -> Alcotest.fail "expected a violation"
  | Error v -> Alcotest.(check string) "formula preserved" "!a.open W b.open"
                 (Ltlf.to_string v.Ltl_check.formula)

let test_violation_pp () =
  let v =
    { Ltl_check.formula = paper_claim; counterexample = tr [ "a.test"; "a.open" ] }
  in
  Alcotest.(check string) "paper transcript shape"
    "Formula: !a.open W b.open\nCounter example: a.test, a.open"
    (Format.asprintf "%a" Ltl_check.pp_violation v)

(* --- Properties ------------------------------------------------------------------------ *)

let ltl_gen = ltl_gen_over alphabet

let word_gen : Trace.t QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 0 5) (oneofl alphabet))

let prop_progression =
  qtest "progression invariant (random)" ~count:300
    QCheck2.Gen.(triple ltl_gen (oneofl alphabet) word_gen)
    ~print:(fun (f, e, w) ->
      Printf.sprintf "%s / %s / %s" (Ltlf.to_string f) (Symbol.name e) (Trace.to_string w))
    (fun (f, e, w) ->
      Ltlf.holds f (e :: w) = Ltlf.holds (Progression.progress f e) w)

let prop_dfa_semantics =
  qtest "progression DFA = direct semantics (random)" ~count:80
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:(fun (f, w) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Trace.to_string w))
    (fun (f, w) ->
      with_budget (fun () ->
          let dfa = Progression.to_dfa ~limits ~alphabet f in
          Dfa_oracle.accepts dfa w = Ltlf.holds f w))

let prop_obligation_steps =
  qtest "stepped obligation = semantics" ~count:200
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:(fun (f, w) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Trace.to_string w))
    (fun (f, w) ->
      let sp = Progression.space () in
      let n = List.fold_left (Progression.step sp) (Progression.obligation sp f) w in
      Progression.accepts_empty sp n = Ltlf.holds f w)

(* Equal Boolean functions of the same literals are the same node. *)
let prop_obligation_canonical =
  qtest "obligations are canonical" ~count:200
    QCheck2.Gen.(pair ltl_gen ltl_gen)
    ~print:(fun (f, g) -> Printf.sprintf "%s / %s" (Ltlf.to_string f) (Ltlf.to_string g))
    (fun (f, g) ->
      let sp = Progression.space () in
      let node = Progression.obligation sp in
      node (Ltlf.Or (f, Ltlf.And (f, g))) = node f
      && node (Ltlf.And (f, g)) = node (Ltlf.And (g, f))
      && node (Ltlf.Not (Ltlf.Not f)) = node f)

let prop_negation_flips =
  qtest "negation flips the automaton" ~count:60
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:(fun (f, w) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Trace.to_string w))
    (fun (f, w) ->
      with_budget (fun () ->
          let d1 = Progression.to_dfa ~limits ~alphabet f in
          let d2 = Progression.to_dfa ~limits ~alphabet (Ltlf.neg f) in
          Dfa_oracle.accepts d1 w <> Dfa_oracle.accepts d2 w))

(* --- NNF ------------------------------------------------------------------------ *)

let test_nnf_dualities () =
  let check_form name input =
    let n = Nnf.nnf input in
    Alcotest.(check bool) (name ^ " is NNF") true (Nnf.is_nnf n)
  in
  check_form "neg next" (Ltlf.neg (Ltlf.next a_open));
  check_form "neg weak next" (Ltlf.neg (Ltlf.wnext a_open));
  check_form "neg globally" (Ltlf.neg (Ltlf.globally a_open));
  check_form "neg until" (Ltlf.neg (Ltlf.until a_open b_open));
  check_form "neg weak until" (Ltlf.neg paper_claim);
  check_form "double negation" (Ltlf.neg (Ltlf.neg (Ltlf.until a_open b_open)))

let prop_nnf_preserves =
  qtest "NNF preserves satisfaction" ~count:300
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:(fun (f, w) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Trace.to_string w))
    (fun (f, w) ->
      let n = Nnf.nnf f in
      Nnf.is_nnf n && Ltlf.holds f w = Ltlf.holds n w)

(* --- Tableau --------------------------------------------------------------------- *)

let test_tableau_elementary_paper_claim () =
  (* (!a.open) W b.open expands to {b.open} | {!a.open, WX claim}. *)
  let sets = Tableau.elementary_sets paper_claim in
  Alcotest.(check int) "two branches" 2 (List.length sets)

let test_tableau_agrees_on_corpus () =
  let formulas =
    [
      paper_claim;
      Ltlf.globally (Ltlf.implies a_open (Ltlf.finally b_open));
      Ltlf.finally (Ltlf.conj a_open (Ltlf.next b_open));
      Ltlf.neg paper_claim;
      Ltlf.next (Ltlf.next a_open);
      Ltlf.wnext Ltlf.ff;
    ]
  in
  List.iter
    (fun f ->
      let dfa = Progression.to_dfa ~alphabet f in
      let nfa = Tableau.to_nfa ~alphabet f in
      match Language.equivalence_counterexample (Dfa_oracle.to_nfa dfa) nfa with
      | None -> ()
      | Some w ->
        Alcotest.failf "tableau disagrees with progression on %s for %s"
          (Trace.to_string w) (Ltlf.to_string f))
    formulas

let prop_tableau_equals_progression =
  qtest "tableau NFA = progression DFA" ~count:80 ltl_gen ~print:Ltlf.to_string (fun f ->
      with_budget (fun () ->
          let dfa = Progression.to_dfa ~limits ~alphabet f in
          let nfa = Tableau.to_nfa ~limits ~alphabet f in
          Language.equivalent (Dfa_oracle.to_nfa dfa) nfa))

let prop_tableau_equals_semantics =
  qtest "tableau NFA = direct semantics" ~count:80
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:(fun (f, w) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Trace.to_string w))
    (fun (f, w) ->
      with_budget (fun () ->
          let nfa = Tableau.to_nfa ~limits ~alphabet f in
          Nfa.accepts nfa w = Ltlf.holds f w))

(* The claim check runs on the on-the-fly product; the progression DFA that
   the monitor and the NuSMV export still build must give the same verdicts
   and the same shortest counterexamples. *)
let eager_check ?limits ~impl f =
  let full = Symbol.Set.union (Nfa.alphabet impl) (Ltlf.atoms f) in
  let spec =
    Dfa_oracle.to_nfa (Progression.to_dfa ?limits ~alphabet:(Symbol.Set.elements full) f)
  in
  Language.inclusion_counterexample ?limits ~alphabet:full ~impl ~spec ()

let claim_check ?limits ~impl f =
  match Ltl_check.check (Entail.session ?limits ~impl ()) f with
  | Ok () -> None
  | Error v -> Some v.Ltl_check.counterexample

let test_tableau_check_agrees () =
  let impls =
    [
      impl_of
        (Regex.seq (Regex.star (Regex.sym_of_name "a.test")) (Regex.sym_of_name "a.open"));
      impl_of (Regex.word (List.map Symbol.intern [ "b.open"; "a.open" ]));
      impl_of (Regex.star (Regex.alt (Regex.sym_of_name "a.open") (Regex.sym_of_name "b.open")));
      Nfa.empty_language;
    ]
  in
  let formulas =
    [
      paper_claim;
      Ltlf.globally (Ltlf.implies a_open (Ltlf.finally b_open));
      Ltlf.finally (Ltlf.conj a_open (Ltlf.next b_open));
      Ltlf.neg paper_claim;
      Ltlf.next (Ltlf.next a_open);
    ]
  in
  List.iter
    (fun impl ->
      List.iter
        (fun f ->
          Alcotest.(check (option trace))
            (Ltlf.to_string f) (eager_check ~impl f) (claim_check ~impl f))
        formulas)
    impls

let prop_check_equals_eager =
  qtest "claim check = progression DFA inclusion" ~count:80
    QCheck2.Gen.(pair ltl_gen (regex_gen_over alphabet))
    ~print:(fun (f, r) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Regex.to_string r))
    (fun (f, r) ->
      let limits = Limits.make ~max_states:budget ~max_configs:budget () in
      let impl = impl_of r in
      with_budget (fun () ->
          Option.equal Trace.equal (claim_check ~limits ~impl f) (eager_check ~limits ~impl f)))

let test_tableau_unsatisfiable () =
  let f = Ltlf.conj (Ltlf.finally a_open) (Ltlf.globally (Ltlf.neg a_open)) in
  let nfa = Tableau.to_nfa ~alphabet f in
  Alcotest.(check bool) "empty language" true (Nfa.is_empty nfa)

(* --- Four-valued monitor ---------------------------------------------------------- *)

let verdict = Alcotest.testable Ltl_monitor.pp_verdict ( = )

let test_monitor_paper_claim_trajectory () =
  (* (!a.open) W b.open along the violating trace. *)
  Alcotest.(check (list verdict)) "trajectory"
    [
      Ltl_monitor.Presumably_true;
      (* after a.test: still fine, could still see b.open first *)
      Ltl_monitor.Presumably_true;
      (* after a.open before any b.open: no continuation can repair it *)
      Ltl_monitor.Definitely_false;
    ]
    (Ltl_monitor.verdict_trajectory ~alphabet paper_claim (tr [ "a.test"; "a.open" ]))

let test_monitor_definitely_true () =
  (* Once b.open happened, the weak-until is discharged forever. *)
  let m = Ltl_monitor.start ~alphabet paper_claim in
  let m = Ltl_monitor.step m (sym "b.open") in
  Alcotest.check verdict "discharged" Ltl_monitor.Definitely_true (Ltl_monitor.verdict m);
  let m = Ltl_monitor.step m (sym "a.open") in
  Alcotest.check verdict "stays true" Ltl_monitor.Definitely_true (Ltl_monitor.verdict m)

let test_monitor_presumably_false () =
  (* F b.open: false if we stop now, still satisfiable. *)
  let f = Ltlf.finally b_open in
  Alcotest.check verdict "pending obligation" Ltl_monitor.Presumably_false
    (Ltl_monitor.run ~alphabet f (tr [ "a.test" ]));
  Alcotest.check verdict "fulfilled" Ltl_monitor.Definitely_true
    (Ltl_monitor.run ~alphabet f (tr [ "a.test"; "b.open" ]))

let prop_monitor_agrees_with_holds =
  qtest "presumably = holds-on-prefix; definitive verdicts are sound" ~count:100
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:(fun (f, w) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Trace.to_string w))
    (fun (f, w) ->
      with_budget (fun () ->
      let v = Ltl_monitor.run ~limits ~alphabet f w in
      let now = Ltlf.holds f w in
      let positive =
        match v with
        | Ltl_monitor.Definitely_true | Ltl_monitor.Presumably_true -> true
        | Ltl_monitor.Definitely_false | Ltl_monitor.Presumably_false -> false
      in
      (* The sign always matches satisfaction of the trace as-if-complete. *)
      positive = now
      &&
      (* Definitive verdicts hold for all one-event extensions too. *)
      match v with
      | Ltl_monitor.Definitely_true ->
        List.for_all (fun e -> Ltlf.holds f (w @ [ e ])) alphabet
      | Ltl_monitor.Definitely_false ->
        List.for_all (fun e -> not (Ltlf.holds f (w @ [ e ]))) alphabet
      | _ -> true))

let prop_monitor_monotone =
  qtest "definitive verdicts are monotone" ~count:100
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:(fun (f, w) -> Printf.sprintf "%s on %s" (Ltlf.to_string f) (Trace.to_string w))
    (fun (f, w) ->
      with_budget (fun () ->
      let trajectory = Ltl_monitor.verdict_trajectory ~limits ~alphabet f w in
      let rec check_mono = function
        | [] | [ _ ] -> true
        | v1 :: (v2 :: _ as rest) ->
          (if Ltl_monitor.is_definitive v1 then v1 = v2 else true) && check_mono rest
      in
      check_mono trajectory))

let () =
  Alcotest.run "ltl"
    [
      ( "monitor",
        [
          Alcotest.test_case "paper claim trajectory" `Quick
            test_monitor_paper_claim_trajectory;
          Alcotest.test_case "definitely true" `Quick test_monitor_definitely_true;
          Alcotest.test_case "presumably false" `Quick test_monitor_presumably_false;
          prop_monitor_agrees_with_holds;
          prop_monitor_monotone;
        ] );
      ( "nnf",
        [
          Alcotest.test_case "dualities produce NNF" `Quick test_nnf_dualities;
          prop_nnf_preserves;
        ] );
      ( "tableau",
        [
          Alcotest.test_case "paper claim branches" `Quick test_tableau_elementary_paper_claim;
          Alcotest.test_case "agrees on corpus" `Quick test_tableau_agrees_on_corpus;
          Alcotest.test_case "check agrees" `Quick test_tableau_check_agrees;
          prop_check_equals_eager;
          Alcotest.test_case "unsatisfiable" `Quick test_tableau_unsatisfiable;
          prop_tableau_equals_progression;
          prop_tableau_equals_semantics;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "atom" `Quick test_atom;
          Alcotest.test_case "boolean connectives" `Quick test_boolean_connectives;
          Alcotest.test_case "strong vs weak next" `Quick test_next_strong_vs_weak;
          Alcotest.test_case "globally / finally" `Quick test_globally_finally;
          Alcotest.test_case "until" `Quick test_until;
          Alcotest.test_case "paper claim (weak until)" `Quick test_weak_until_paper_claim;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper claim" `Quick test_parse_paper_claim;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "temporal operators" `Quick test_parse_temporal;
          Alcotest.test_case "implication" `Quick test_parse_implication;
          Alcotest.test_case "constants" `Quick test_parse_constants;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "pp round-trip" `Quick test_parse_roundtrip;
        ] );
      ( "progression",
        [
          Alcotest.test_case "invariant on corpus" `Quick test_progression_invariant;
          Alcotest.test_case "DFA = semantics on corpus" `Quick test_dfa_agrees_with_semantics;
          Alcotest.test_case "state space" `Quick test_state_space_reasonable;
          Alcotest.test_case "growing claim closes" `Quick test_growing_claim_closes;
        ] );
      ( "check",
        [
          Alcotest.test_case "pass" `Quick test_check_pass;
          Alcotest.test_case "fail with shortest witness" `Quick test_check_fail_shortest;
          Alcotest.test_case "empty language" `Quick test_check_empty_language;
          Alcotest.test_case "claim string" `Quick test_check_claim_string;
          Alcotest.test_case "violation pp" `Quick test_violation_pp;
        ] );
      ( "properties",
        [
          prop_progression;
          prop_dfa_semantics;
          prop_obligation_steps;
          prop_obligation_canonical;
          prop_negation_flips;
        ] );
    ]
