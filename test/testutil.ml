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

(* --- Random async composites ---------------------------------------------------

   Composites over small Log and Gate protocols whose operation bodies are
   {!Prog_gen} programs with [Par] nodes, built as extraction builds a
   model, for the properties that need whole classes: the lint shortcuts
   against their oracles, and the class expansion against its list
   construction. *)

let protocol_source =
  {|@sys
class Log:
    def __init__(self):
        self.pin = Pin(1, OUT)

    @op_initial
    def begin(self):
        self.pin.on()
        return ["begin", "end"]

    @op_final
    def end(self):
        self.pin.off()
        return ["begin"]


@sys
class Gate:
    def __init__(self):
        self.pin = Pin(1, OUT)

    @op_initial
    def open(self):
        self.pin.on()
        return ["close"]

    @op_final
    def close(self):
        self.pin.off()
        return ["open"]
|}

let protocol_env =
  lazy (Pipeline.find_model (Pipeline.verify_source_exn protocol_source).Pipeline.models)
let protocol_calls = [ ("Log", [ "begin"; "end" ]); ("Gate", [ "open"; "close" ]) ]

(* The k-th [return] of [body], in source order, gets the k-th exit marker,
   as lowering gives it (hence each left subterm is marked first). *)
let mark_returns ~method_name body =
  let k = ref 0 in
  let rec mark (p : Prog.t) =
    match p with
    | Prog.Return ->
      let m = Symbol.method_exit ~method_name !k in
      incr k;
      Prog.seq (Prog.call m) Prog.return
    | Prog.Call _ | Prog.Skip -> p
    | Prog.Seq (a, b) ->
      let a = mark a in
      Prog.seq a (mark b)
    | Prog.If (a, b) ->
      let a = mark a in
      Prog.if_ a (mark b)
    | Prog.Par (a, b) ->
      let a = mark a in
      Prog.par a (mark b)
    | Prog.Loop a -> Prog.loop (mark a)
  in
  let marked = mark body in
  (marked, !k)

(* Lowering forks a spawned task or a gathered call as the left branch of
   a [Par] and the rest of the method as the right one, so a left branch
   never returns. *)
let rec as_lowered ~task (p : Prog.t) =
  match p with
  | Prog.Return when task -> Prog.skip
  | Prog.Call _ | Prog.Skip | Prog.Return -> p
  | Prog.Seq (a, b) -> Prog.seq (as_lowered ~task a) (as_lowered ~task b)
  | Prog.If (a, b) -> Prog.if_ (as_lowered ~task a) (as_lowered ~task b)
  | Prog.Loop a -> Prog.loop (as_lowered ~task a)
  | Prog.Par (a, b) -> Prog.par (as_lowered ~task:true a) (as_lowered ~task b)

(* An operation as extraction builds it from a plain body: explicit exits
   with the given next-operation lists, and an implicit terminal exit when
   control can fall off the end. *)
let operation ~name ~kind ~nexts body =
  let marked, returns = mark_returns ~method_name:name body in
  let behaviors, ongoing = Extract.exit_behaviors_of_marked ~method_name:name marked in
  let exit k next_ops implicit behavior =
    { Model.exit_id = k; exit_line = 0; next_ops; has_user_value = false; implicit; behavior }
  in
  let explicit =
    List.init returns (fun k ->
        exit k (nexts k) false
          (Option.value (List.assoc_opt k behaviors) ~default:Regex.empty))
  in
  let exits =
    explicit
    @ if Regex.is_empty_syntactic ongoing then [] else [ exit returns [] true ongoing ]
  in
  {
    Model.op_name = name;
    op_kind = kind;
    op_line = 0;
    exits;
    marked_body = marked;
    marked_behavior = Extract.marked_behavior ~method_name:name marked exits;
    plain_body = Mpy_lower.strip_markers marked;
    lowering_warnings = [];
  }

(* Claims over the fields' calls and one event no operation performs: the
   usual claim shapes, so that some are entailed by the usage language
   alone, some subsume others and some contradict, and small random
   formulas. *)
let claim_gen atoms =
  let open QCheck2.Gen in
  let atom = map Ltlf.atom (oneofl atoms) in
  frequency
    [
      (2, map (fun a -> Ltlf.globally (Ltlf.neg a)) atom);
      (2, map Ltlf.finally atom);
      (2, map2 (fun a b -> Ltlf.globally (Ltlf.disj (Ltlf.neg a) (Ltlf.finally b))) atom atom);
      (2, map2 (fun a b -> Ltlf.wuntil (Ltlf.neg a) b) atom atom);
      (3, ltl_gen_over atoms);
    ]

(* A field's events for the generator: each call alone, and a whole
   session ([begin·end], [open·close]), the unit a well-behaved body
   repeats. A session stands for its two calls until [expand_sessions]. *)
let session_symbol field = Symbol.intern ("%session:" ^ field)

let field_events (field, cls) =
  session_symbol field
  :: session_symbol field
  :: List.map (fun m -> Symbol.intern (field ^ "." ^ m)) (List.assoc cls protocol_calls)

let rec expand_sessions fields (p : Prog.t) =
  match p with
  | Prog.Call s -> (
    match List.find_opt (fun (f, _) -> Symbol.equal s (session_symbol f)) fields with
    | Some (f, cls) ->
      Prog.seq_list
        (List.map (fun m -> Prog.call (Symbol.intern (f ^ "." ^ m))) (List.assoc cls protocol_calls))
    | None -> p)
  | Prog.Skip | Prog.Return -> p
  | Prog.Seq (a, b) -> Prog.seq (expand_sessions fields a) (expand_sessions fields b)
  | Prog.If (a, b) -> Prog.if_ (expand_sessions fields a) (expand_sessions fields b)
  | Prog.Loop a -> Prog.loop (expand_sessions fields a)
  | Prog.Par (a, b) -> Prog.par (expand_sessions fields a) (expand_sessions fields b)

(* Two claim pairs to plant ahead of a class's claims: one no trace
   satisfies ([G !x] with [F x]), and one that only the model rules out,
   since no operation performs [f9.never]. Every later claim has both
   pairs among its hypotheses, and the minimization of its subsumption
   drops hypotheses one at a time, so it also asks questions where the
   second pair is left without the first. *)
let planted_pairs x y =
  let never = Ltlf.atom (Symbol.intern "f9.never") in
  [
    Ltlf.globally (Ltlf.neg (Ltlf.atom x));
    Ltlf.finally (Ltlf.atom x);
    Ltlf.finally never;
    Ltlf.finally (Ltlf.atom y);
  ]

(* A composite over 2–3 Log/Gate fields with 1–3 async operations, and 0–5
   claims, after the {!planted_pairs} in one case of three. Bodies are
   {!Prog_gen} programs with [Par] nodes over sessions and single calls,
   and two operations in three first spawn a task on one field, as
   [create_task] does, and then favor that field: sessions keep many
   sequential schedules valid, so such a fork is often a race. *)
let async_composite_gen =
  let open QCheck2.Gen in
  let* classes = list_size (int_range 2 3) (oneofl [ "Log"; "Gate" ]) in
  let fields = List.mapi (fun i c -> (Printf.sprintf "f%d" (i + 1), c)) classes in
  let calls =
    List.concat_map
      (fun (f, c) -> List.map (fun m -> Symbol.intern (f ^ "." ^ m)) (List.assoc c protocol_calls))
      fields
  in
  let* nops = int_range 1 3 in
  let names = List.init nops (Printf.sprintf "op%d") in
  let* seed = int in
  let* sizes = list_repeat nops (int_range 2 10) in
  let* claims = list_size (int_range 0 5) (claim_gen (Symbol.intern "f9.never" :: calls)) in
  let* planted = map (( = ) 0) (int_bound 2) in
  let* x = oneofl calls and* y = oneofl calls in
  let claims = if planted then planted_pairs x y @ claims else claims in
  let state = Random.State.make [| seed |] in
  let pick_next () = List.filter (fun _ -> Random.State.bool state) names in
  let random alphabet size =
    expand_sessions fields (Prog_gen.random ~state ~with_par:true ~size ~alphabet ())
  in
  let operations =
    List.mapi
      (fun i size ->
        let events = List.concat_map field_events fields in
        let body =
          if Random.State.int state 3 > 0 then
            let field = List.nth fields (Random.State.int state (List.length fields)) in
            Prog.par (random (field_events field) 3) (random (field_events field @ events) size)
          else random events size
        in
        let kind =
          if i = 0 then Annotations.Initial_final
          else if Random.State.bool state then Annotations.Final
          else Annotations.Middle
        in
        let nexts = Array.init 4 (fun _ -> pick_next ()) in
        operation ~name:(List.nth names i) ~kind
          ~nexts:(fun k -> nexts.(k mod 4))
          (as_lowered ~task:false body))
      sizes
  in
  return
    {
      Model.name = "Hub";
      line = 1;
      kind = `Composite;
      declared_subsystems = List.map fst fields;
      subsystem_fields = fields;
      claims = List.mapi (fun i f -> (Printf.sprintf "c%d %s" i (Ltlf.to_string f), f)) claims;
      operations;
    }

