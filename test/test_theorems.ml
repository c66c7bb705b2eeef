(* The paper's theorems, replayed as bounded-exhaustive and property-based
   tests. The semantics oracle (lfp trace enumeration) and the inference
   (regex construction) are implemented independently; here they are forced
   to agree.

   Theorem 1 (Soundness):    l ∈ L(p) ⟹ l ∈ infer(p)
   Theorem 2 (Completeness): l ∈ infer(p) ⟹ l ∈ L(p)
   Corollary 1:              L(p) is regular (round-trips through automata) *)

open Testutil

let max_len = 4

let bounded_language_of_infer p =
  (* Enumerate L(infer p) over the *program's* alphabet: words can only use
     symbols of the regex, so this is exact. *)
  Enumerate.words_upto ~max_len (Infer.infer p)

let bounded_semantics p = Semantics.behavior_upto ~max_len p

let theorems_hold p =
  Trace.Set.equal (bounded_language_of_infer p) (bounded_semantics p)

let soundness_holds p =
  Trace.Set.subset (bounded_semantics p) (bounded_language_of_infer p)

let completeness_holds p =
  Trace.Set.subset (bounded_language_of_infer p) (bounded_semantics p)

(* Also split by status: ongoing traces must be in the ongoing component and
   returned traces in the union of the returned component. This is the pair
   (1)/(2) structure of the paper's proofs. *)
let lemma_split_holds p =
  let d = Infer.denote p in
  let sem = Semantics.traces_upto ~max_len p in
  let ongoing_ok =
    Trace.Set.equal sem.Semantics.ongoing (Enumerate.words_upto ~max_len d.Infer.ongoing)
  in
  let returned_language =
    List.fold_left
      (fun acc r -> Trace.Set.union acc (Enumerate.words_upto ~max_len r))
      Trace.Set.empty d.Infer.returned
  in
  let returned_ok = Trace.Set.equal sem.Semantics.returned returned_language in
  ongoing_ok && returned_ok

(* --- Bounded-exhaustive: every program up to size 6 over {a, b} -------------- *)

let small_alphabet = [ sym "a"; sym "b" ]
let tri_alphabet = [ sym "a"; sym "b"; sym "c" ]

(* The three-letter pass runs one size deeper in the nightly job
   (SHELLEY_THEOREMS_DEEP=1): 7030 programs instead of 1525. The default
   keeps tier-1 wall-clock in check while nightly buys the bigger net. *)
let tri_size = if Sys.getenv_opt "SHELLEY_THEOREMS_DEEP" <> None then 6 else 5

let test_exhaustive_small () =
  let progs = Prog_gen.all_upto_size ~size:6 ~alphabet:small_alphabet () in
  Alcotest.(check bool) "non-trivial corpus" true (List.length progs > 3000);
  List.iter
    (fun p ->
      if not (theorems_hold p) then
        Alcotest.failf "theorems fail on %s" (Prog.to_string p))
    progs

let test_exhaustive_small_split () =
  let progs = Prog_gen.all_upto_size ~size:6 ~alphabet:small_alphabet () in
  List.iter
    (fun p ->
      if not (lemma_split_holds p) then
        Alcotest.failf "status-split lemma fails on %s" (Prog.to_string p))
    progs

(* --- Named corpus --------------------------------------------------------------- *)

let test_corpus () =
  List.iter
    (fun (name, p) ->
      if not (theorems_hold p) then Alcotest.failf "theorems fail on corpus entry %s" name;
      if not (lemma_split_holds p) then Alcotest.failf "split fails on corpus entry %s" name)
    Ir_examples.corpus

let test_paper_loop_language () =
  (* The behavior of the paper's loop up to length 4. Note there is no
     prefix-closure: a trace is either a completed non-returned run (an
     (a·c)-alternation) or a returned run (ending in a·b). *)
  let expected =
    Trace.Set.of_list
      [
        [];
        tr [ "a"; "b" ];
        tr [ "a"; "c" ];
        tr [ "a"; "c"; "a"; "b" ];
        tr [ "a"; "c"; "a"; "c" ];
      ]
  in
  Alcotest.check trace_set "language up to 4" expected
    (bounded_semantics Ir_examples.paper_loop);
  Alcotest.check trace_set "inference agrees" expected
    (bounded_language_of_infer Ir_examples.paper_loop)

(* --- Properties (random larger programs, shrinking counterexamples) ---------------- *)

let prop_soundness =
  qtest_arb "Theorem 1 (soundness)" ~count:300 prog_arb soundness_holds

let prop_completeness =
  qtest_arb "Theorem 2 (completeness)" ~count:300 prog_arb completeness_holds

let prop_split =
  qtest_arb "proof lemmas (1)/(2): status split" ~count:200 prog_arb lemma_split_holds

(* Corollary 1: L(p) is regular. We realize the regular language as an
   automaton, minimize it, convert back to a regex, and require the bounded
   language to survive every leg of the trip. *)
let corollary_roundtrip p =
  let r = Infer.infer p in
  let sem = bounded_semantics p in
  let nfa = Glushkov.of_regex r in
  let dfa = Minimize.minimize (Determinize.determinize nfa) in
  let back = State_elim.to_regex (Dfa_oracle.to_nfa dfa) in
  Trace.Set.equal sem (Nfa.words_upto ~max_len nfa)
  && Trace.Set.equal sem (Dfa_oracle.words_upto ~max_len dfa)
  && Trace.Set.equal sem (Enumerate.words_upto_over ~alphabet:(Regex.alphabet r) ~max_len back)

let prop_corollary =
  qtest_arb "Corollary 1 (regularity round-trip)" ~count:150 prog_arb corollary_roundtrip

(* Theorems 1–2 and Corollary 1 pinned over a *three*-letter alphabet: the
   two-letter pass cannot distinguish, e.g., a bug that conflates the two
   non-looping symbols. Exhaustive up to [tri_size]. *)
let test_exhaustive_tri () =
  let progs = Prog_gen.all_upto_size ~size:tri_size ~alphabet:tri_alphabet () in
  Alcotest.(check bool) "non-trivial corpus" true (List.length progs > 1000);
  List.iter
    (fun p ->
      if not (theorems_hold p) then
        Alcotest.failf "theorems fail on %s" (Prog.to_string p);
      if not (corollary_roundtrip p) then
        Alcotest.failf "round-trip fails on %s" (Prog.to_string p))
    progs

let test_corollary_on_corpus () =
  List.iter
    (fun (name, p) ->
      if not (corollary_roundtrip p) then Alcotest.failf "round-trip fails on %s" name)
    Ir_examples.corpus

(* --- The concurrency extension: all of the above with Par nodes --------------

   The fork-join rule is the one place inference multiplies languages
   (shuffle) rather than concatenating them, so the exhaustive pass is
   repeated over the Par-extended program space. One size smaller by
   default: Par roughly doubles the corpus per size, and the shuffled
   languages are wider. The nightly deep job runs a size deeper. *)

let par_size = if Sys.getenv_opt "SHELLEY_THEOREMS_DEEP" <> None then 6 else 5

let test_exhaustive_par () =
  let progs = Prog_gen.all_upto_size ~with_par:true ~size:par_size ~alphabet:small_alphabet () in
  Alcotest.(check bool) "non-trivial corpus" true (List.length progs > 1000);
  List.iter
    (fun p ->
      if not (theorems_hold p) then
        Alcotest.failf "theorems fail on %s" (Prog.to_string p);
      if not (lemma_split_holds p) then
        Alcotest.failf "status-split lemma fails on %s" (Prog.to_string p))
    progs

let prop_par_soundness =
  qtest_arb "Theorem 1 with Par (soundness)" ~count:300 prog_par_arb soundness_holds

let prop_par_completeness =
  qtest_arb "Theorem 2 with Par (completeness)" ~count:300 prog_par_arb completeness_holds

let prop_par_corollary =
  qtest_arb "Corollary 1 with Par (regularity round-trip)" ~count:100 prog_par_arb
    corollary_roundtrip

(* The denotation refines the behavior: ongoing ∩ returned components need not
   be disjoint as *languages* (two paths can emit the same trace), but every
   returned regex must be included in infer(p). *)
let prop_returned_included =
  qtest_arb "returned behaviors included in infer" ~count:200 prog_arb
    (fun p ->
      let d = Infer.denote p in
      let whole = Infer.infer p in
      List.for_all (fun r -> Equiv.included r whole) (Regex.empty :: d.Infer.returned)
      && Equiv.included d.Infer.ongoing whole)

let () =
  Alcotest.run "theorems"
    [
      ( "bounded-exhaustive",
        [
          Alcotest.test_case "all programs ≤ size 6" `Slow test_exhaustive_small;
          Alcotest.test_case "status split ≤ size 6" `Slow test_exhaustive_small_split;
          Alcotest.test_case "three-letter alphabet" `Slow test_exhaustive_tri;
          Alcotest.test_case "all Par programs" `Slow test_exhaustive_par;
          Alcotest.test_case "named corpus" `Quick test_corpus;
          Alcotest.test_case "paper loop language" `Quick test_paper_loop_language;
          Alcotest.test_case "corollary on corpus" `Quick test_corollary_on_corpus;
        ] );
      ( "property-based",
        [
          prop_soundness;
          prop_completeness;
          prop_split;
          prop_corollary;
          prop_returned_included;
          prop_par_soundness;
          prop_par_completeness;
          prop_par_corollary;
        ] );
    ]
