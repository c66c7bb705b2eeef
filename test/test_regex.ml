open Testutil

let a = Regex.sym_of_name "a"
let b = Regex.sym_of_name "b"
let c = Regex.sym_of_name "c"

(* --- Smart constructors ----------------------------------------------------- *)

let test_seq_identities () =
  Alcotest.check regex "empty absorbs left" Regex.empty (Regex.seq Regex.empty a);
  Alcotest.check regex "empty absorbs right" Regex.empty (Regex.seq a Regex.empty);
  Alcotest.check regex "eps unit left" a (Regex.seq Regex.eps a);
  Alcotest.check regex "eps unit right" a (Regex.seq a Regex.eps)

let test_seq_right_assoc () =
  Alcotest.check regex "reassociates"
    (Regex.seq a (Regex.seq b c))
    (Regex.seq (Regex.seq a b) c)

let test_alt_identities () =
  Alcotest.check regex "empty unit" a (Regex.alt Regex.empty a);
  Alcotest.check regex "idempotent" a (Regex.alt a a);
  Alcotest.check regex "commutative normal form" (Regex.alt a b) (Regex.alt b a)

let test_alt_flattening () =
  let left = Regex.alt (Regex.alt a b) c in
  let right = Regex.alt a (Regex.alt b c) in
  Alcotest.check regex "associativity normalizes" left right

let test_star_collapse () =
  Alcotest.check regex "star of empty" Regex.eps (Regex.star Regex.empty);
  Alcotest.check regex "star of eps" Regex.eps (Regex.star Regex.eps);
  Alcotest.check regex "star of star" (Regex.star a) (Regex.star (Regex.star a))

let test_word () =
  Alcotest.check regex "word builds seq"
    (Regex.seq a (Regex.seq b c))
    (Regex.word (List.map Symbol.intern [ "a"; "b"; "c" ]))

let test_nullable () =
  Alcotest.(check bool) "eps" true (Regex.nullable Regex.eps);
  Alcotest.(check bool) "empty" false (Regex.nullable Regex.empty);
  Alcotest.(check bool) "sym" false (Regex.nullable a);
  Alcotest.(check bool) "star" true (Regex.nullable (Regex.star a));
  Alcotest.(check bool) "seq both" false (Regex.nullable (Regex.seq (Regex.star a) b));
  Alcotest.(check bool) "opt" true (Regex.nullable (Regex.opt a))

let test_alphabet () =
  let r = Regex.seq a (Regex.star (Regex.alt b c)) in
  Alcotest.(check int) "three symbols" 3 (Symbol.Set.cardinal (Regex.alphabet r))

let test_pp () =
  let r = Regex.seq (Regex.star (Regex.alt a b)) c in
  Alcotest.(check string) "precedence printing" "(a + b)* \xc2\xb7 c" (Regex.to_string r);
  Alcotest.(check string)
    "ascii variant" "(a + b)*.c"
    (Format.asprintf "%a" Regex.pp_ascii r)

let test_pp_constants () =
  Alcotest.(check string) "eps" "\xce\xb5" (Regex.to_string Regex.eps);
  Alcotest.(check string) "empty" "\xe2\x88\x85" (Regex.to_string Regex.empty)

let test_size_and_height () =
  let r = Regex.star (Regex.seq a (Regex.star b)) in
  Alcotest.(check int) "size" 5 (Regex.size r);
  Alcotest.(check int) "star height" 2 (Regex.star_height r)

(* --- Derivatives ------------------------------------------------------------ *)

let test_deriv_sym () =
  Alcotest.check regex "matching symbol" Regex.eps (Deriv.deriv (sym "a") a);
  Alcotest.check regex "non-matching symbol" Regex.empty (Deriv.deriv (sym "b") a)

let test_deriv_seq_non_nullable () =
  let r = Regex.seq a b in
  Alcotest.check regex "consume head" b (Deriv.deriv (sym "a") r);
  Alcotest.check regex "wrong head" Regex.empty (Deriv.deriv (sym "b") r)

let test_deriv_seq_nullable () =
  let r = Regex.seq (Regex.opt a) b in
  Alcotest.check regex "skip optional head" Regex.eps (Deriv.deriv (sym "b") r)

let test_deriv_star () =
  let r = Regex.star a in
  Alcotest.check regex "unrolls once" r (Deriv.deriv (sym "a") r)

let test_matches_basic () =
  let r = Regex.seq (Regex.star a) b in
  Alcotest.(check bool) "b" true (Deriv.matches r (tr [ "b" ]));
  Alcotest.(check bool) "aab" true (Deriv.matches r (tr [ "a"; "a"; "b" ]));
  Alcotest.(check bool) "a" false (Deriv.matches r (tr [ "a" ]));
  Alcotest.(check bool) "ba" false (Deriv.matches r (tr [ "b"; "a" ]));
  Alcotest.(check bool) "empty trace" false (Deriv.matches r [])

let test_matches_empty_and_eps () =
  Alcotest.(check bool) "empty matches nothing" false (Deriv.matches Regex.empty []);
  Alcotest.(check bool) "eps matches empty" true (Deriv.matches Regex.eps []);
  Alcotest.(check bool) "eps rejects nonempty" false (Deriv.matches Regex.eps (tr [ "a" ]))

let test_shortest_member () =
  let r = Regex.seq (Regex.star a) (Regex.seq b c) in
  Alcotest.(check (option trace)) "bc" (Some (tr [ "b"; "c" ])) (Deriv.shortest_member r);
  Alcotest.(check (option trace)) "none for empty" None (Deriv.shortest_member Regex.empty);
  Alcotest.(check (option trace))
    "empty trace for star" (Some []) (Deriv.shortest_member (Regex.star a))

let test_is_empty_language () =
  Alcotest.(check bool) "empty" true (Deriv.is_empty_language Regex.empty);
  Alcotest.(check bool)
    "seq with empty" true
    (Deriv.is_empty_language (Regex.seq a Regex.empty));
  Alcotest.(check bool) "sym" false (Deriv.is_empty_language a)

let test_derivative_closure_finite () =
  let r = Regex.star (Regex.seq a (Regex.alt b (Regex.seq c Regex.empty))) in
  let states = Deriv.derivative_closure r in
  Alcotest.(check bool) "finitely many states" true (List.length states < 30);
  Alcotest.(check bool) "contains start" true (List.exists (Regex.equal r) states)

(* The smart constructors propagate ∅ ([seq] and [shuffle] annihilate, [alt]
   drops it, [star] is nullable), so the syntactic test is semantic; the
   derivative search stays the reference it is checked against. *)
let prop_empty_syntactic_is_semantic =
  qtest_arb "is_empty_syntactic = is_empty_language" ~count:1000 regex_shuffle_arb (fun r ->
      Regex.is_empty_syntactic r = Deriv.is_empty_language r)

(* --- Enumeration ------------------------------------------------------------ *)

let test_words_upto () =
  let r = Regex.star a in
  let words = Enumerate.words_upto ~max_len:3 r in
  let expected =
    Trace.Set.of_list [ []; tr [ "a" ]; tr [ "a"; "a" ]; tr [ "a"; "a"; "a" ] ]
  in
  Alcotest.check trace_set "a* up to 3" expected words

let test_words_upto_finite_language () =
  let r = Regex.alt (Regex.seq a b) c in
  let words = Enumerate.words_upto ~max_len:5 r in
  Alcotest.check trace_set "exactly two words"
    (Trace.Set.of_list [ tr [ "a"; "b" ]; tr [ "c" ] ])
    words

let test_count_upto () =
  Alcotest.(check int) "binary strings" (1 + 2 + 4 + 8)
    (Enumerate.count_upto ~max_len:3 (Regex.star (Regex.alt a b)))

(* --- Equivalence ------------------------------------------------------------ *)

let test_equiv_star_unroll () =
  let star_a = Regex.star a in
  let unrolled = Regex.alt Regex.eps (Regex.seq a star_a) in
  Alcotest.(check bool) "a* = eps + a a*" true (Equiv.equivalent star_a unrolled)

let test_equiv_distribution () =
  let left = Regex.seq a (Regex.alt b c) in
  let right = Regex.alt (Regex.seq a b) (Regex.seq a c) in
  Alcotest.(check bool) "left distribution" true (Equiv.equivalent left right)

let test_not_equiv_with_counterexample () =
  let r1 = Regex.star (Regex.alt a b) in
  let r2 = Regex.star a in
  match Equiv.counterexample r1 r2 with
  | None -> Alcotest.fail "expected a counterexample"
  | Some w ->
    Alcotest.check trace "shortest difference" (tr [ "b" ]) w

let test_inclusion () =
  Alcotest.(check bool) "a ⊆ a+b" true (Equiv.included a (Regex.alt a b));
  Alcotest.(check bool) "a+b ⊄ a" false (Equiv.included (Regex.alt a b) a);
  Alcotest.(check (option trace))
    "witness" (Some (tr [ "b" ]))
    (Equiv.inclusion_counterexample (Regex.alt a b) a)

let test_inclusion_star () =
  Alcotest.(check bool)
    "(ab)* ⊆ (a+b)*" true
    (Equiv.included (Regex.star (Regex.seq a b)) (Regex.star (Regex.alt a b)))

(* --- Properties -------------------------------------------------------------- *)

let prop_matches_iff_enumerated =
  qtest "words_upto agrees with matches" ~count:100 default_regex_gen ~print:regex_print
    (fun r ->
      let words = Enumerate.words_upto ~max_len:4 r in
      Trace.Set.for_all (fun w -> Deriv.matches r w) words)

let prop_deriv_shifts_language =
  qtest "deriv shifts the language" ~count:100
    QCheck2.Gen.(pair default_regex_gen (oneofl Prog_gen.default_alphabet))
    ~print:(fun (r, s) -> regex_print r ^ " / " ^ Symbol.name s)
    (fun (r, s) ->
      let dr = Deriv.deriv s r in
      Enumerate.words_upto ~max_len:3 dr
      |> Trace.Set.for_all (fun w -> Deriv.matches r (s :: w)))

let prop_equivalence_reflexive_under_rewrites =
  qtest "r = r + r and r = r·eps" ~count:100 default_regex_gen ~print:regex_print
    (fun r ->
      Equiv.equivalent r (Regex.alt r r) && Equiv.equivalent r (Regex.seq r Regex.eps))

let prop_star_fixpoint =
  qtest "(r*)* = r* and r* = eps + r·r*" ~count:100 default_regex_gen ~print:regex_print
    (fun r ->
      let s = Regex.star r in
      Equiv.equivalent s (Regex.star s)
      && Equiv.equivalent s (Regex.alt Regex.eps (Regex.seq r s)))

let prop_shortest_member_is_shortest =
  qtest "shortest_member minimal" ~count:100 default_regex_gen ~print:regex_print
    (fun r ->
      match Deriv.shortest_member r with
      | None -> Trace.Set.is_empty (Enumerate.words_upto ~max_len:4 r)
      | Some w ->
        Deriv.matches r w
        && Trace.Set.for_all
             (fun w' -> List.length w' >= List.length w)
             (Enumerate.words_upto ~max_len:(List.length w) r))

(* --- Parser errors ----------------------------------------------------------- *)

(* Exact (line, col) blamed by Regex_parser, consistent with Mpy_parser's
   convention: 1-based lines, 0-based columns. *)
let parse_error_corpus =
  [
    ("unclosed paren", "(a b", 1, 4, "expected ')' but found end of input");
    ("stray rparen", "a b )", 1, 4, "expected end of input but found ')'");
    ("leading plus", "+ a", 1, 0, "expected an expression but found '+'");
    ("star alone", "*", 1, 0, "expected an expression but found '*'");
    ("bad character", "a # b", 1, 2, "unexpected character '#'");
    ("empty input", "", 1, 0, "expected an expression but found end of input");
    ("error after newline", "a +\nb + ?", 2, 4, "unexpected character '?'");
    ("trailing operator", "a \xc2\xb7", 1, 4, "expected an expression but found end of input");
  ]

let test_parse_error_positions () =
  List.iter
    (fun (name, input, line, col, message) ->
      match Regex_parser.parse input with
      | r -> Alcotest.failf "%s: parsed as %s" name (Regex.to_string r)
      | exception Regex_parser.Parse_error (msg, l, c) ->
        Alcotest.(check (pair int int)) (name ^ ": position") (line, col) (l, c);
        Alcotest.(check string) (name ^ ": message") message msg)
    parse_error_corpus

let test_parse_result_formats_position () =
  List.iter
    (fun (name, input, line, col, message) ->
      match Regex_parser.parse_result input with
      | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" name
      | Error rendered ->
        Alcotest.(check string) name
          (Printf.sprintf "line %d, col %d: %s" line col message)
          rendered)
    parse_error_corpus

let () =
  Alcotest.run "regex"
    [
      ( "constructors",
        [
          Alcotest.test_case "seq identities" `Quick test_seq_identities;
          Alcotest.test_case "seq right assoc" `Quick test_seq_right_assoc;
          Alcotest.test_case "alt identities" `Quick test_alt_identities;
          Alcotest.test_case "alt flattening" `Quick test_alt_flattening;
          Alcotest.test_case "star collapse" `Quick test_star_collapse;
          Alcotest.test_case "word" `Quick test_word;
          Alcotest.test_case "nullable" `Quick test_nullable;
          Alcotest.test_case "alphabet" `Quick test_alphabet;
          Alcotest.test_case "pp precedence" `Quick test_pp;
          Alcotest.test_case "pp constants" `Quick test_pp_constants;
          Alcotest.test_case "size and height" `Quick test_size_and_height;
        ] );
      ( "parser errors",
        [
          Alcotest.test_case "positions and messages" `Quick test_parse_error_positions;
          Alcotest.test_case "parse_result rendering" `Quick test_parse_result_formats_position;
        ] );
      ( "derivatives",
        [
          Alcotest.test_case "deriv sym" `Quick test_deriv_sym;
          Alcotest.test_case "deriv seq" `Quick test_deriv_seq_non_nullable;
          Alcotest.test_case "deriv seq nullable" `Quick test_deriv_seq_nullable;
          Alcotest.test_case "deriv star" `Quick test_deriv_star;
          Alcotest.test_case "matches basic" `Quick test_matches_basic;
          Alcotest.test_case "matches constants" `Quick test_matches_empty_and_eps;
          Alcotest.test_case "shortest member" `Quick test_shortest_member;
          Alcotest.test_case "is_empty_language" `Quick test_is_empty_language;
          Alcotest.test_case "derivative closure finite" `Quick test_derivative_closure_finite;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "words_upto star" `Quick test_words_upto;
          Alcotest.test_case "words_upto finite" `Quick test_words_upto_finite_language;
          Alcotest.test_case "count_upto" `Quick test_count_upto;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "star unroll" `Quick test_equiv_star_unroll;
          Alcotest.test_case "distribution" `Quick test_equiv_distribution;
          Alcotest.test_case "counterexample" `Quick test_not_equiv_with_counterexample;
          Alcotest.test_case "inclusion" `Quick test_inclusion;
          Alcotest.test_case "inclusion star" `Quick test_inclusion_star;
        ] );
      ( "properties",
        [
          prop_matches_iff_enumerated;
          prop_deriv_shifts_language;
          prop_equivalence_reflexive_under_rewrites;
          prop_star_fixpoint;
          prop_shortest_member_is_shortest;
          prop_empty_syntactic_is_semantic;
        ] );
    ]
