(* Algebraic laws connecting the substrate layers: Kleene-algebra identities
   on regexes, the boolean algebra of complete DFAs, NFA combinator/regex
   agreement, canonicity of minimization, and LTLf operator dualities. These
   are the invariants the verifier silently relies on; each is checked with
   QCheck over the shared generators. *)

open Testutil

let max_len = 4

let lang r = Enumerate.words_upto ~max_len r
let same_lang r1 r2 = Equiv.equivalent r1 r2

(* Tuples of the shared shrinking arbitrary: a failing algebraic identity
   comes back with each component minimized independently. *)
let pair_arb = QCheck.pair regex_arb regex_arb
let triple_arb = QCheck.triple regex_arb regex_arb regex_arb

(* --- Kleene algebra -------------------------------------------------------------- *)

let prop_alt_assoc_comm =
  qtest_arb "+ is associative and commutative" ~count:150 triple_arb
    (fun (a, b, c) ->
      same_lang (Regex.alt a (Regex.alt b c)) (Regex.alt (Regex.alt a b) c)
      && same_lang (Regex.alt a b) (Regex.alt b a))

let prop_seq_assoc =
  qtest_arb "· is associative" ~count:150 triple_arb (fun (a, b, c) ->
      same_lang (Regex.seq a (Regex.seq b c)) (Regex.seq (Regex.seq a b) c))

let prop_distribution =
  qtest_arb "· distributes over + on both sides" ~count:150 triple_arb
    (fun (a, b, c) ->
      same_lang (Regex.seq a (Regex.alt b c)) (Regex.alt (Regex.seq a b) (Regex.seq a c))
      && same_lang (Regex.seq (Regex.alt a b) c) (Regex.alt (Regex.seq a c) (Regex.seq b c)))

let prop_star_laws =
  qtest_arb "star unrolling and denesting" ~count:150 regex_arb
    (fun r ->
      let s = Regex.star r in
      same_lang s (Regex.alt Regex.eps (Regex.seq r s))
      && same_lang s (Regex.seq s s)
      && same_lang (Regex.star s) s)

let prop_star_of_sum =
  qtest_arb "(a+b)* = (a* b*)*" ~count:100 pair_arb (fun (a, b) ->
      same_lang
        (Regex.star (Regex.alt a b))
        (Regex.star (Regex.seq (Regex.star a) (Regex.star b))))

(* --- NFA combinators agree with regex operations ----------------------------------- *)

let nfa_lang nfa = Nfa.words_upto ~max_len nfa

let prop_nfa_union =
  qtest_arb "Nfa.union realizes +" ~count:100 pair_arb (fun (a, b) ->
      Trace.Set.equal
        (nfa_lang (Nfa.union (Thompson.of_regex a) (Thompson.of_regex b)))
        (lang (Regex.alt a b)))

let prop_nfa_concat =
  qtest_arb "Nfa.concat realizes ·" ~count:100 pair_arb (fun (a, b) ->
      Trace.Set.equal
        (nfa_lang (Nfa.concat (Thompson.of_regex a) (Thompson.of_regex b)))
        (lang (Regex.seq a b)))

let prop_nfa_star =
  qtest_arb "Nfa.star realizes *" ~count:100 regex_arb (fun r ->
      Trace.Set.equal (nfa_lang (Nfa.star (Thompson.of_regex r))) (lang (Regex.star r)))

let prop_trim_preserves =
  qtest_arb "trim preserves the language" ~count:100 regex_arb
    (fun r ->
      let nfa = Thompson.of_regex r in
      Trace.Set.equal (nfa_lang (Nfa.trim nfa)) (nfa_lang nfa))

let prop_reverse_involution =
  qtest_arb "reverse is an involution on the language" ~count:100 regex_arb (fun r ->
      let nfa = Thompson.of_regex r in
      Trace.Set.equal (nfa_lang (Nfa.reverse (Nfa.reverse nfa))) (nfa_lang nfa))

let prop_reverse_reverses_words =
  qtest_arb "reverse reverses every word" ~count:100 regex_arb
    (fun r ->
      let nfa = Thompson.of_regex r in
      let reversed = nfa_lang (Nfa.reverse nfa) in
      Trace.Set.for_all (fun w -> Trace.Set.mem (List.rev w) reversed) (nfa_lang nfa))

(* --- DFA boolean algebra -------------------------------------------------------------- *)

let full_alphabet = Prog_gen.default_alphabet

let dfa_of r = Determinize.determinize ~alphabet:full_alphabet (Thompson.of_regex r)

let dfa_lang dfa = Dfa_oracle.words_upto ~max_len dfa

let all_words =
  (* Σ^{≤max_len} for checking complements. *)
  lang (Regex.star (Regex.alt_list (List.map Regex.sym full_alphabet)))

let prop_complement =
  qtest_arb "complement flips membership" ~count:100 regex_arb
    (fun r ->
      let d = dfa_of r in
      let c = Dfa_oracle.complement d in
      Trace.Set.for_all (fun w -> Dfa_oracle.accepts d w <> Dfa_oracle.accepts c w) all_words)

let prop_double_complement =
  qtest_arb "double complement is identity" ~count:100 regex_arb
    (fun r ->
      let d = dfa_of r in
      Dfa_oracle.equivalent d (Dfa_oracle.complement (Dfa_oracle.complement d)))

let prop_de_morgan =
  qtest_arb "De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B" ~count:80 pair_arb (fun (a, b) ->
      let da = dfa_of a and db = dfa_of b in
      Dfa_oracle.equivalent
        (Dfa_oracle.complement (Dfa_oracle.union da db))
        (Dfa_oracle.intersect (Dfa_oracle.complement da) (Dfa_oracle.complement db)))

let prop_difference =
  qtest_arb "A \\ B = A ∩ ¬B" ~count:80 pair_arb (fun (a, b) ->
      let da = dfa_of a and db = dfa_of b in
      Dfa_oracle.equivalent (Dfa_oracle.difference da db)
        (Dfa_oracle.intersect da (Dfa_oracle.complement db)))

let prop_intersection_language =
  qtest_arb "DFA and NFA intersection agree" ~count:80 pair_arb (fun (a, b) ->
      let via_dfa = dfa_lang (Dfa_oracle.intersect (dfa_of a) (dfa_of b)) in
      let via_nfa = nfa_lang (Language.intersect (Thompson.of_regex a) (Thompson.of_regex b)) in
      Trace.Set.equal via_dfa via_nfa)

(* --- Minimization canonicity ------------------------------------------------------------ *)

let prop_minimal_dfa_canonical =
  qtest_arb "equivalent regexes minimize to isomorphic DFAs" ~count:80 regex_arb (fun r ->
      (* r and a syntactically different equivalent form. *)
      let r' = Regex.alt r (Regex.seq r Regex.empty) |> Regex.alt r in
      let variant = Regex.alt (Regex.seq Regex.eps r) r' in
      let m1 = Minimize.minimize (dfa_of r) in
      let m2 = Minimize.minimize (dfa_of variant) in
      Minimize.isomorphic m1 m2)

let prop_minimize_smallest =
  qtest_arb "no equivalent DFA is smaller than the minimized one" ~count:60 regex_arb (fun r ->
      (* Weak but useful probe: minimizing twice, or via the other algorithm,
         never shrinks further. *)
      let m = Minimize.minimize_hopcroft (dfa_of r) in
      Dfa.num_states (Minimize.minimize_moore m) = Dfa.num_states m)

(* --- Sampling stays inside the language -------------------------------------------------- *)

let prop_sampling_sound =
  qtest_arb "samples are members" ~count:60 regex_arb (fun r ->
      let nfa = Thompson.of_regex r in
      let state = Random.State.make [| Regex.size r |] in
      match Sample.from_nfa ~state ~target_len:5 nfa with
      | None -> Deriv.is_empty_language r
      | Some w -> Deriv.matches r w)

(* --- LTLf dualities ------------------------------------------------------------------------ *)

let ltl_alphabet = Prog_gen.default_alphabet

let ltl_gen : Ltlf.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf = oneof [ map Ltlf.atom (oneofl ltl_alphabet); return Ltlf.tt; return Ltlf.ff ] in
  let rec tree n =
    if n <= 1 then leaf
    else
      oneof
        [
          leaf;
          map Ltlf.neg (tree (n - 1));
          map Ltlf.next (tree (n - 1));
          map Ltlf.globally (tree (n - 1));
          map Ltlf.finally (tree (n - 1));
          map2 Ltlf.conj (tree (n / 2)) (tree (n / 2));
          map2 Ltlf.until (tree (n / 2)) (tree (n / 2));
          map2 Ltlf.wuntil (tree (n / 2)) (tree (n / 2));
        ]
  in
  int_range 1 6 >>= tree

let word_gen = QCheck2.Gen.(list_size (int_range 0 5) (oneofl ltl_alphabet))

let fw_print (f, w) = Ltlf.to_string f ^ " on " ^ Trace.to_string w

let prop_g_f_duality =
  qtest "¬G φ = F ¬φ" ~count:200
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:fw_print
    (fun (f, w) ->
      Ltlf.holds (Ltlf.neg (Ltlf.globally f)) w
      = Ltlf.holds (Ltlf.finally (Ltlf.neg f)) w)

let prop_x_wx_duality =
  qtest "¬X φ = WX ¬φ" ~count:200
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:fw_print
    (fun (f, w) ->
      Ltlf.holds (Ltlf.neg (Ltlf.next f)) w = Ltlf.holds (Ltlf.wnext (Ltlf.neg f)) w)

let prop_weak_until_decomposition =
  qtest "φ W ψ = (φ U ψ) ∨ G φ" ~count:200
    QCheck2.Gen.(triple ltl_gen ltl_gen word_gen)
    ~print:(fun (f, g, w) ->
      Printf.sprintf "%s W %s on %s" (Ltlf.to_string f) (Ltlf.to_string g) (Trace.to_string w))
    (fun (f, g, w) ->
      Ltlf.holds (Ltlf.wuntil f g) w
      = Ltlf.holds (Ltlf.disj (Ltlf.until f g) (Ltlf.globally f)) w)

let prop_until_unrolling =
  qtest "φ U ψ = ψ ∨ (φ ∧ X (φ U ψ))" ~count:200
    QCheck2.Gen.(triple ltl_gen ltl_gen word_gen)
    ~print:(fun (f, g, w) ->
      Printf.sprintf "%s U %s on %s" (Ltlf.to_string f) (Ltlf.to_string g) (Trace.to_string w))
    (fun (f, g, w) ->
      (* On nonempty traces only: the empty trace has no current position. *)
      w = []
      || Ltlf.holds (Ltlf.until f g) w
         = Ltlf.holds (Ltlf.disj g (Ltlf.conj f (Ltlf.next (Ltlf.until f g)))) w)

let prop_globally_unrolling =
  qtest "G φ = φ ∧ WX (G φ) on nonempty traces" ~count:200
    QCheck2.Gen.(pair ltl_gen word_gen)
    ~print:fw_print
    (fun (f, w) ->
      w = []
      || Ltlf.holds (Ltlf.globally f) w
         = Ltlf.holds (Ltlf.conj f (Ltlf.wnext (Ltlf.globally f))) w)

let () =
  Alcotest.run "laws"
    [
      ( "kleene",
        [
          prop_alt_assoc_comm;
          prop_seq_assoc;
          prop_distribution;
          prop_star_laws;
          prop_star_of_sum;
        ] );
      ( "nfa",
        [
          prop_nfa_union;
          prop_nfa_concat;
          prop_nfa_star;
          prop_trim_preserves;
          prop_reverse_involution;
          prop_reverse_reverses_words;
        ] );
      ( "dfa",
        [
          prop_complement;
          prop_double_complement;
          prop_de_morgan;
          prop_difference;
          prop_intersection_language;
        ] );
      ( "minimize", [ prop_minimal_dfa_canonical; prop_minimize_smallest ] );
      ( "sample", [ prop_sampling_sound ] );
      ( "ltl",
        [
          prop_g_f_duality;
          prop_x_wx_duality;
          prop_weak_until_decomposition;
          prop_until_unrolling;
          prop_globally_unrolling;
        ] );
    ]
