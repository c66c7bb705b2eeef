(* Shared generators and helpers for the test executables. *)

let sym name = Symbol.intern name
let tr names = Trace.of_names names

(* --- QCheck generator for regexes ---------------------------------------- *)

let regex_gen_over alphabet : Regex.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Regex.empty;
        return Regex.eps;
        map Regex.sym (oneofl alphabet);
      ]
  in
  let rec tree n =
    if n <= 1 then leaf
    else
      oneof
        [
          leaf;
          map2 Regex.seq (tree (n / 2)) (tree (n / 2));
          map2 Regex.alt (tree (n / 2)) (tree (n / 2));
          map Regex.star (tree (n - 1));
        ]
  in
  (* Cap the size: language-level checks are exponential in expression size,
     and small expressions already cover every constructor interaction. *)
  int_range 1 16 >>= tree

let default_regex_gen = regex_gen_over Prog_gen.default_alphabet

(* Shuffle-extended generator, exported separately so the pre-existing
   sequential suites keep their distribution. Sized smaller: each ∥ node
   multiplies the bounded language, and the shuffle suites enumerate it. *)
let regex_shuffle_gen_over alphabet : Regex.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Regex.empty;
        return Regex.eps;
        map Regex.sym (oneofl alphabet);
      ]
  in
  let rec tree n =
    if n <= 1 then leaf
    else
      oneof
        [
          leaf;
          map2 Regex.seq (tree (n / 2)) (tree (n / 2));
          map2 Regex.alt (tree (n / 2)) (tree (n / 2));
          map2 Regex.shuffle (tree (n / 2)) (tree (n / 2));
          map Regex.star (tree (n - 1));
        ]
  in
  int_range 1 12 >>= tree

let default_regex_shuffle_gen = regex_shuffle_gen_over Prog_gen.default_alphabet

let regex_print r = Regex.to_string r

let rec regex_shrink (r : Regex.t) : Regex.t Seq.t =
  match r with
  | Empty -> Seq.empty
  | Eps | Sym _ -> Seq.return Regex.empty
  | Seq (a, b) | Alt (a, b) ->
    Seq.append (Seq.cons a (Seq.cons b Seq.empty))
      (Seq.append
         (Seq.map (fun a' -> Regex.seq a' b) (regex_shrink a))
         (Seq.map (fun b' -> Regex.seq a b') (regex_shrink b)))
  | Shuffle (a, b) ->
    Seq.append (Seq.cons a (Seq.cons b Seq.empty))
      (Seq.append
         (Seq.map (fun a' -> Regex.shuffle a' b) (regex_shrink a))
         (Seq.map (fun b' -> Regex.shuffle a b') (regex_shrink b)))
  | Star a -> Seq.cons a (Seq.map Regex.star (regex_shrink a))

(* --- QCheck generator for IR programs ------------------------------------- *)

let prog_gen_over alphabet : Prog.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map Prog.call (oneofl alphabet);
        return Prog.skip;
        return Prog.return;
      ]
  in
  let rec tree n =
    if n <= 1 then leaf
    else
      oneof
        [
          leaf;
          map2 Prog.seq (tree (n / 2)) (tree (n / 2));
          map2 Prog.if_ (tree (n / 2)) (tree (n / 2));
          map Prog.loop (tree (n - 1));
        ]
  in
  int_range 1 20 >>= tree

let default_prog_gen = prog_gen_over Prog_gen.default_alphabet

(* Par-extended program generator — async spawns appear as [Prog.Par]
   nodes. Separate export, same rationale as [regex_shuffle_gen_over]. *)
let prog_par_gen_over alphabet : Prog.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map Prog.call (oneofl alphabet);
        return Prog.skip;
        return Prog.return;
      ]
  in
  let rec tree n =
    if n <= 1 then leaf
    else
      oneof
        [
          leaf;
          map2 Prog.seq (tree (n / 2)) (tree (n / 2));
          map2 Prog.if_ (tree (n / 2)) (tree (n / 2));
          map2 Prog.par (tree (n / 2)) (tree (n / 2));
          map Prog.loop (tree (n - 1));
        ]
  in
  int_range 1 14 >>= tree

let default_prog_par_gen = prog_par_gen_over Prog_gen.default_alphabet
let prog_print p = Prog.to_string p
let prog_shrink p = List.to_seq (Prog_gen.shrink p)

(* --- QCheck generator for LTLf formulas ----------------------------------- *)

let ltl_gen_over alphabet : Ltlf.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let atom = map Ltlf.atom (oneofl alphabet) in
  let leaf = oneof [ atom; return Ltlf.tt; return Ltlf.ff ] in
  let rec tree n =
    if n <= 1 then leaf
    else
      oneof
        [
          leaf;
          map Ltlf.neg (tree (n - 1));
          map Ltlf.next (tree (n - 1));
          map Ltlf.wnext (tree (n - 1));
          map Ltlf.globally (tree (n - 1));
          map Ltlf.finally (tree (n - 1));
          map2 Ltlf.conj (tree (n / 2)) (tree (n / 2));
          map2 Ltlf.disj (tree (n / 2)) (tree (n / 2));
          map2 Ltlf.until (tree (n / 2)) (tree (n / 2));
          map2 Ltlf.wuntil (tree (n / 2)) (tree (n / 2));
        ]
  in
  (* Automaton constructions over these formulas can be doubly exponential
     in formula size; keep the random formulas small. *)
  int_range 1 5 >>= tree

(* --- Shrinking arbitraries -------------------------------------------------- *)

(* The one bridge between the QCheck2 generators above and QCheck1
   arbitraries: qcheck1 is the API that takes an *explicit* shrinker, which
   is what lets every suite reuse [regex_shrink] / [Prog_gen.shrink] instead
   of growing its own. [QCheck.pair]/[triple] compose shrinkers (and
   printers), so counterexamples over tuples shrink component-wise for
   free. *)
let arbitrary ?print ~shrink gen2 =
  QCheck.make ?print
    ~shrink:(fun x yield -> Seq.iter yield (shrink x))
    (fun st -> QCheck2.Gen.generate1 ~rand:st gen2)

let regex_arb_over alphabet =
  arbitrary ~print:regex_print ~shrink:regex_shrink (regex_gen_over alphabet)

let regex_arb = regex_arb_over Prog_gen.default_alphabet

let regex_shuffle_arb_over alphabet =
  arbitrary ~print:regex_print ~shrink:regex_shrink (regex_shuffle_gen_over alphabet)

let regex_shuffle_arb = regex_shuffle_arb_over Prog_gen.default_alphabet

let prog_arb_over alphabet =
  arbitrary ~print:prog_print ~shrink:prog_shrink (prog_gen_over alphabet)

let prog_arb = prog_arb_over Prog_gen.default_alphabet

let prog_par_arb_over alphabet =
  arbitrary ~print:prog_print ~shrink:prog_shrink (prog_par_gen_over alphabet)

let prog_par_arb = prog_par_arb_over Prog_gen.default_alphabet

(* --- Alcotest helpers ------------------------------------------------------ *)

let trace_set = Alcotest.testable Trace.pp_set Trace.Set.equal
let trace = Alcotest.testable Trace.pp Trace.equal
let regex = Alcotest.testable Regex.pp Regex.equal

let qtest ?(count = 200) name gen ~print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

(* Like {!qtest} but over a shrinking arbitrary ({!regex_arb}, {!prog_arb},
   or a [QCheck.pair]/[triple] of them), so a failing case is reported
   minimal. *)
let qtest_arb ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Restrict trace-set to words over an alphabet bound — used when comparing
   enumerations computed over different alphabets. *)
let words_of_nfa_upto = Nfa.words_upto

(* Substring check for report-message assertions. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0
