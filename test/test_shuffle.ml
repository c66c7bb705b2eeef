(* The shuffle (interleaving) operator: differential tests against the
   brute-force oracle, algebraic laws, and the concurrency extension of the
   IR.

   Three independently implemented evaluators must agree on bounded
   languages:

   - {!Interleave.words_upto}: structural brute force — concatenation,
     union and star as bounded set operations, shuffle by explicit
     enumeration of interleavings. The oracle; shares no code with the
     fast paths.
   - {!Enumerate.words_upto}: expansion of Brzozowski derivatives, i.e. the
     [Deriv] shuffle rule d_a(r ∥ s) = d_a(r) ∥ s + r ∥ d_a(s).
   - {!Glushkov.of_regex} / {!Thompson.of_regex}: automata whose [Shuffle]
     nodes become on-the-fly product automata ({!Shuffle_nfa}), walked by
     {!Nfa.words_upto}. *)

open Testutil

(* Length 6 crosses every constructor boundary (two three-symbol branches
   fully interleaved) while keeping the brute-force oracle tractable. *)
let max_len = 6

let oracle r = Interleave.words_upto ~max_len r

let check_against_oracle r =
  let expected = oracle r in
  Trace.Set.equal expected (Enumerate.words_upto ~max_len r)
  && Trace.Set.equal expected (Nfa.words_upto ~max_len (Glushkov.of_regex r))
  && Trace.Set.equal expected (Nfa.words_upto ~max_len (Thompson.of_regex r))

(* --- The oracle itself, pinned on paper examples --------------------------- *)

let a = Regex.sym (sym "a")
let b = Regex.sym (sym "b")
let c = Regex.sym (sym "c")
let ( *& ) = Regex.seq
let ( +& ) = Regex.alt
let ( |& ) = Regex.shuffle

let test_pairs () =
  let got = Interleave.pairs (tr [ "a"; "b" ]) (tr [ "c" ]) in
  Alcotest.(check int) "C(3,1) interleavings" 3 (List.length got);
  Alcotest.check trace_set "the three schedules"
    (Trace.Set.of_list [ tr [ "a"; "b"; "c" ]; tr [ "a"; "c"; "b" ]; tr [ "c"; "a"; "b" ] ])
    (Trace.Set.of_list got)

let test_shuffle_words_dedup () =
  Alcotest.check trace_set "a ∥ a has the single word aa"
    (Trace.Set.singleton (tr [ "a"; "a" ]))
    (Interleave.shuffle_words (tr [ "a" ]) (tr [ "a" ]))

let test_oracle_examples () =
  Alcotest.check trace_set "a·b ∥ c"
    (Trace.Set.of_list [ tr [ "a"; "b"; "c" ]; tr [ "a"; "c"; "b" ]; tr [ "c"; "a"; "b" ] ])
    (oracle ((a *& b) |& c));
  (* Shuffle is not idempotent: a ∥ a is {aa}, not {a}. *)
  Alcotest.check trace_set "a ∥ a" (Trace.Set.singleton (tr [ "a"; "a" ])) (oracle (a |& a));
  (* ∅ annihilates, ε is the unit. *)
  Alcotest.check trace_set "r ∥ ∅" Trace.Set.empty (oracle (a |& Regex.empty));
  Alcotest.check trace_set "r ∥ ε" (Trace.Set.singleton (tr [ "a" ])) (oracle (a |& Regex.eps))

(* --- Counterexample replay -------------------------------------------------

   Shapes that broke (or nearly broke) intermediate versions of the fast
   paths; kept as a deterministic regression corpus so the differential
   property never regresses silently on them. *)

let regressions =
  [
    ("two-symbol branches", (a *& b) |& (c *& a));
    ("shuffle under star", Regex.star (a |& b));
    ("star branch", Regex.star a |& b);
    ("shuffle of shuffles", (a |& b) |& c);
    ("alt of shuffles", (a |& b) +& (b |& c));
    ("shuffle of alts", (a +& b) |& (b +& c));
    ("nullable branches", Regex.opt a |& Regex.opt b);
    ("seq around shuffle", a *& (b |& c) *& a);
    ("duplicate branches", (a *& b) |& (a *& b));
    ("empty-language branch", (a |& Regex.empty) +& b);
  ]

let test_regressions () =
  List.iter
    (fun (name, r) ->
      if not (check_against_oracle r) then
        Alcotest.failf "fast paths disagree with oracle on %s: %s" name (Regex.to_string r))
    regressions

(* --- Differential properties (shrinking arbitraries) ----------------------- *)

let prop_oracle_vs_deriv =
  qtest_arb "oracle = derivative enumeration" ~count:300 regex_shuffle_arb
    (fun r -> Trace.Set.equal (oracle r) (Enumerate.words_upto ~max_len r))

let prop_oracle_vs_glushkov =
  qtest_arb "oracle = dispatched Glushkov NFA" ~count:300 regex_shuffle_arb
    (fun r -> Trace.Set.equal (oracle r) (Nfa.words_upto ~max_len (Glushkov.of_regex r)))

let prop_oracle_vs_thompson =
  qtest_arb "oracle = Thompson NFA" ~count:300 regex_shuffle_arb
    (fun r -> Trace.Set.equal (oracle r) (Nfa.words_upto ~max_len (Thompson.of_regex r)))

let prop_matches_agrees =
  qtest_arb "Deriv.matches = oracle membership" ~count:200 regex_shuffle_arb
    (fun r ->
      Trace.Set.for_all (fun w -> Deriv.matches r w) (oracle r))

let prop_expand_equivalent =
  (* The eager expansion (the construction the on-the-fly product avoids)
     denotes the same bounded language. *)
  qtest_arb "Interleave.expand preserves the bounded language" ~count:150 regex_shuffle_arb
    (fun r ->
      let expanded = Interleave.expand ~max_len r in
      Regex.shuffle_free expanded
      && Trace.Set.equal (oracle r) (Enumerate.words_upto ~max_len expanded))

(* --- Algebraic laws ---------------------------------------------------------

   The smart constructor normalizes modulo AC with unit ε and annihilator
   ∅, so those laws hold *structurally*; the deeper ones (distribution,
   derivative commutation) hold at the language level and are decided by
   the derivative bisimulation {!Equiv.equivalent}. *)

let prop_ac_structural =
  qtest_arb "∥ is structurally AC with unit ε, annihilator ∅" ~count:200
    QCheck.(pair (pair regex_shuffle_arb regex_shuffle_arb) regex_shuffle_arb)
    (fun ((r, s), t) ->
      Regex.equal (Regex.shuffle r s) (Regex.shuffle s r)
      && Regex.equal
           (Regex.shuffle (Regex.shuffle r s) t)
           (Regex.shuffle r (Regex.shuffle s t))
      && Regex.equal (Regex.shuffle r Regex.eps) r
      && Regex.equal (Regex.shuffle r Regex.empty) Regex.empty)

let prop_distributes_over_alt =
  qtest_arb "(r + s) ∥ t ≡ r ∥ t + s ∥ t" ~count:100
    QCheck.(pair (pair regex_shuffle_arb regex_shuffle_arb) regex_shuffle_arb)
    (fun ((r, s), t) ->
      Equiv.equivalent
        (Regex.shuffle (Regex.alt r s) t)
        (Regex.alt (Regex.shuffle r t) (Regex.shuffle s t)))

let prop_derivative_commutation =
  qtest_arb "d_a(r ∥ s) ≡ d_a(r) ∥ s + r ∥ d_a(s)" ~count:100
    QCheck.(pair regex_shuffle_arb regex_shuffle_arb)
    (fun (r, s) ->
      List.for_all
        (fun x ->
          Equiv.equivalent
            (Deriv.deriv x (Regex.shuffle r s))
            (Regex.alt
               (Regex.shuffle (Deriv.deriv x r) s)
               (Regex.shuffle r (Deriv.deriv x s))))
        Prog_gen.default_alphabet)

let prop_nullable =
  qtest_arb "nullable (r ∥ s) = nullable r && nullable s" ~count:300
    QCheck.(pair regex_shuffle_arb regex_shuffle_arb)
    (fun (r, s) ->
      Regex.nullable (Regex.shuffle r s) = (Regex.nullable r && Regex.nullable s)
      || Regex.is_empty_syntactic (Regex.shuffle r s))

let test_not_idempotent () =
  (* ∥ must NOT be collapsed like + is: a ∥ a ≢ a. *)
  Alcotest.(check bool) "a ∥ a ≢ a" false (Equiv.equivalent (a |& a) a)

(* --- Metamorphic: sequentialization and branch projection -------------------

   Every sequential schedule is one of the interleavings, so the
   sequentialized expression's language embeds in the original — the
   relation the SY112 race check relies on. *)

let prop_sequentialize_included =
  qtest_arb "L(sequentialize r) ⊆ L(r), and is shuffle-free" ~count:200
    regex_shuffle_arb
    (fun r ->
      let s = Regex.sequentialize r in
      Regex.shuffle_free s && Equiv.included s r)

let prop_branch_projection =
  (* Appending the other branch sequentially is one particular schedule. *)
  qtest_arb "L(r · s) ⊆ L(r ∥ s)" ~count:200
    QCheck.(pair regex_shuffle_arb regex_shuffle_arb)
    (fun (r, s) -> Equiv.included (Regex.seq r s) (Regex.shuffle r s))

(* --- Printing and parsing round-trip --------------------------------------- *)

let prop_roundtrip =
  qtest_arb "to_string / parse round-trip" ~count:300 regex_shuffle_arb
    (fun r ->
      match Regex_parser.parse_result (Regex.to_string r) with
      | Ok r' -> Regex.equal r r'
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let test_parse_notations () =
  (* Both the paper's ∥ and the ASCII | denote shuffle, binding between
     + and ·. *)
  List.iter
    (fun input ->
      match Regex_parser.parse_result input with
      | Ok r -> Alcotest.check regex input (Regex.alt a (Regex.shuffle b (b *& c))) r
      | Error msg -> Alcotest.failf "parse %S failed: %s" input msg)
    [ "a + b \xe2\x88\xa5 b c"; "a + b | b c" ]

(* --- The on-the-fly product ------------------------------------------------- *)

let test_product_empty () =
  let nfa = Shuffle_nfa.product [] in
  Alcotest.(check bool) "accepts ε" true (Nfa.accepts nfa []);
  Alcotest.(check bool) "rejects a" false (Nfa.accepts nfa (tr [ "a" ]))

let test_product_kary () =
  (* a ∥ b ∥ c: all 3! = 6 schedules, nothing else. *)
  let nfa =
    Shuffle_nfa.product
      (List.map (fun r -> Glushkov.of_regex r) [ a; b; c ])
  in
  let words = Nfa.words_upto ~max_len:3 nfa in
  Alcotest.(check int) "six schedules" 6 (Trace.Set.cardinal words);
  Alcotest.check trace_set "oracle agrees" (oracle ((a |& b) |& c)) words

let test_product_budget () =
  (* Exploration must charge the shuffle-product budget and stop. *)
  let tiny = Limits.make ~max_configs:3 () in
  let branches =
    List.map
      (fun r -> Glushkov.of_regex r)
      [ Regex.star a; Regex.star b; Regex.star c ]
  in
  match Shuffle_nfa.product ~limits:tiny branches with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception Limits.Budget_exceeded { resource; _ } ->
    Alcotest.(check string) "named resource" "shuffle-product configurations" resource

let test_usage_limits_threaded () =
  (* Usage.expanded_nfa must hand its limits to the shuffle product: a
     behavior with a big shuffle under a tiny budget fails fast instead of
     expanding. *)
  let model_src =
    "@sys\n\
     class Host:\n\
     \    def __init__(self):\n\
     \        self.a = Pin(1, OUT)\n\
     \    @op_initial_final\n\
     \    async def run(self):\n\
     \        asyncio.create_task(self.a.w())\n\
     \        asyncio.create_task(self.a.x())\n\
     \        asyncio.create_task(self.a.y())\n\
     \        self.a.z()\n\
     \        return []\n"
  in
  let result = Pipeline.verify_source_exn model_src in
  match result.Pipeline.models with
  | [ model ] -> (
    let tiny = Limits.make ~max_configs:2 () in
    match Usage.expanded_nfa ~limits:tiny model with
    | _ -> Alcotest.fail "expected Budget_exceeded"
    | exception Limits.Budget_exceeded { resource; _ } ->
      Alcotest.(check string) "named resource" "shuffle-product configurations" resource)
  | models -> Alcotest.failf "expected one model, got %d" (List.length models)

(* --- Projected usage checking -------------------------------------------------

   [Usage] decides each field on the behavior projected onto that field
   ({!Regex.project}). The projection must be exact: over random
   composites with 2–4 fields and spawned or gathered calls, its verdict
   equals the unprojected inclusion on the full expansion (the search the
   checker ran before projection, kept here as the reference) and a
   bounded brute-force oracle built on {!Interleave.words_upto}. A failing
   field's report must be byte-identical to the reference's. *)

let test_project_units () =
  let keep_a s = Symbol.name s = "a" in
  Alcotest.check regex "h(a ∥ b) = a, b foreign" a (Regex.project ~keep:keep_a (a |& b));
  Alcotest.check regex "h((b + c)*) = ε" Regex.eps
    (Regex.project ~keep:keep_a (Regex.star (b +& c)));
  Alcotest.check regex "∅ stays ∅" Regex.empty (Regex.project ~keep:keep_a Regex.empty);
  let marker = Symbol.method_exit ~method_name:"run" 0 in
  let keep s = Symbol.split_scope s = None || Symbol.name s = "v.open" in
  let body =
    Regex.seq
      (Regex.sym_of_name "v.open" |& Regex.sym_of_name "w.open")
      (Regex.sym marker)
  in
  Alcotest.check regex "exit markers survive"
    (Regex.seq (Regex.sym_of_name "v.open") (Regex.sym marker))
    (Regex.project ~keep body)

let prop_project_is_homomorphism =
  (* Erasing on the regex before Glushkov = erasing on the automaton after
     it (an erased transition becomes an ε-move): L(project r) = h(L(r)). *)
  qtest_arb "L(project r) = h(L(r))" ~count:200 regex_shuffle_arb (fun r ->
      let keep s = Symbol.name s <> "b" && Symbol.name s <> "d" in
      Language.equivalent
        (Glushkov.of_regex (Regex.project ~keep r))
        (Nfa.map_symbols (fun s -> if keep s then Some s else None) (Glushkov.of_regex r)))

let protocols =
  [
    ( "Log",
      [ ("begin", true, false, [ "begin"; "end" ]); ("end", false, true, [ "begin" ]) ] );
    ("Gate", [ ("open", true, false, [ "close" ]); ("close", false, true, [ "open" ]) ]);
  ]

let base_class_source (name, ops) =
  let op (meth, initial, final, next) =
    Printf.sprintf "    @%s\n    def %s(self):\n        self.pin.on()\n        return [%s]\n"
      (match (initial, final) with
      | true, true -> "op_initial_final"
      | true, false -> "op_initial"
      | false, true -> "op_final"
      | false, false -> "op")
      meth
      (String.concat ", " (List.map (Printf.sprintf "%S") next))
  in
  Printf.sprintf "@sys\nclass %s:\n    def __init__(self):\n        self.pin = Pin(1, OUT)\n\n%s\n"
    name
    (String.concat "\n" (List.map op ops))

(* A composite over [fields] (name, class) whose async operations call,
   spawn ([create_task]) and gather subsystem calls, under nondeterministic
   branches with early returns. Loop-free, so every behavior is finite. *)
let composite_gen =
  let open QCheck2.Gen in
  let* nfields = int_range 2 4 in
  let* classes = list_repeat nfields (oneofl [ "Log"; "Gate" ]) in
  let fields = List.mapi (fun i c -> (Printf.sprintf "f%d" (i + 1), c)) classes in
  let* nops = int_range 1 3 in
  let ops = List.init nops (Printf.sprintf "op%d") in
  let call =
    let* field, cls = oneofl fields in
    let+ meth, _, _, _ = oneofl (List.assoc cls protocols) in
    Printf.sprintf "self.%s.%s()" field meth
  in
  let returns = map (fun l -> Printf.sprintf "return [%s]" (String.concat ", " (List.map (Printf.sprintf "%S") l))) (list_size (int_range 0 2) (oneofl ops)) in
  let simple =
    oneof
      [
        call;
        map (Printf.sprintf "asyncio.create_task(%s)") call;
        map2 (Printf.sprintf "await asyncio.gather(%s, %s)") call call;
      ]
  in
  let indent = List.map (( ^ ) "    ") in
  let stmt =
    frequency
      [
        (4, map (fun s -> [ s ]) simple);
        ( 1,
          let* then_ = list_size (int_range 1 2) simple in
          let* early = opt returns in
          let+ else_ = list_size (int_range 1 2) simple in
          ("if x:" :: indent (then_ @ Option.to_list early)) @ ("else:" :: indent else_) );
      ]
  in
  let op_source i name =
    let* body = list_size (int_range 1 3) stmt in
    let* final = bool in
    let+ ret = returns in
    let kind = if i = 0 then "op_initial_final" else if final then "op_final" else "op" in
    Printf.sprintf "    @%s\n    async def %s(self):\n%s" kind name
      (String.concat "" (List.map (Printf.sprintf "        %s\n") (List.concat body @ [ ret ])))
  in
  let+ bodies = flatten_l (List.mapi op_source ops) in
  String.concat "\n" (List.map base_class_source protocols)
  ^ Printf.sprintf "\n@sys([%s])\nclass Hub:\n    def __init__(self):\n%s\n%s"
      (String.concat ", " (List.map (fun (f, _) -> Printf.sprintf "%S" f) fields))
      (String.concat "" (List.map (fun (f, c) -> Printf.sprintf "        self.%s = %s()\n" f c) fields))
      (String.concat "\n" bodies)

(* The unprojected check exactly as it ran before projection: the full
   expansion against the spec lifted over every non-field symbol, and the
   diagnosis of the shortest witness. *)
let reference_report ~env (model : Model.t) ~field ~subsystem_class =
  let sub_model = Option.get (env subsystem_class) in
  let impl = Usage.expanded_nfa model in
  let spec = Option.get (Usage.subsystem_spec_nfa ~env ~field ~subsystem_class) in
  let alphabet = Symbol.Set.union (Nfa.alphabet impl) (Nfa.alphabet spec) in
  let non_field =
    Symbol.Set.filter
      (fun s ->
        match Symbol.split_scope s with
        | Some (scope, _) -> scope <> field
        | None -> true)
      alphabet
  in
  let lifted = Nfa.add_self_loops non_field spec in
  Language.inclusion_counterexample ~alphabet ~impl ~spec:lifted ()
  |> Option.map (fun counterexample ->
         let projected = Usage.project_subsystem ~field counterexample in
         let usage = Depgraph.usage_nfa sub_model in
         let rec walk config = function
           | [] -> Report.Not_final (match List.rev projected with l :: _ -> l | [] -> "?")
           | op :: rest ->
             let next = Nfa.step usage config (Symbol.intern op) in
             if States.Set.is_empty next then Report.Not_allowed op else walk next rest
         in
         Report.Invalid_subsystem_usage
           {
             class_name = model.Model.name;
             field;
             subsystem_class;
             counterexample;
             projected;
             failure = walk (Nfa.initial_config usage) projected;
           })

(* Brute force: every composite run of at most [max_ops] operations, each
   exit contributing every word of its behavior ({!Interleave.words_upto}),
   projected on the field; a run that ends after a final operation must
   give a complete usage of the subsystem. *)
let oracle_violates ~max_ops ~env (model : Model.t) ~field ~subsystem_class =
  let usage = Depgraph.usage_nfa (Option.get (env subsystem_class)) in
  let valid calls = Nfa.accepts usage (List.map Symbol.intern calls) in
  let words (e : Model.exit_point) =
    Interleave.words_upto ~max_len:(Regex.size e.Model.behavior) e.Model.behavior
    |> Trace.Set.elements
    |> List.map (Usage.project_subsystem ~field)
  in
  let rec go depth allowed prefixes =
    depth < max_ops
    && List.exists
         (fun (op : Model.operation) ->
           List.exists
             (fun (e : Model.exit_point) ->
               let extended =
                 List.sort_uniq compare
                   (List.concat_map (fun p -> List.map (fun w -> p @ w) (words e)) prefixes)
               in
               (List.memq op (Model.final_ops model) && not (List.for_all valid extended))
               || go (depth + 1)
                    (List.filter_map (Model.find_op model) e.Model.next_ops)
                    extended)
             op.Model.exits)
         allowed
  in
  (not (valid [])) || go 0 (Model.initial_ops model) [ [] ]

let prop_projected_usage_differential =
  let max_ops = 3 in
  qtest "projected usage = unprojected = interleave oracle" ~count:150 composite_gen
    ~print:Fun.id (fun source ->
      let result = Pipeline.verify_source_exn source in
      let env = Pipeline.find_model result.Pipeline.models in
      let model = Option.get (Pipeline.find_model result.Pipeline.models "Hub") in
      List.for_all
        (fun field ->
          let subsystem_class = Option.get (Model.subsystem_class model field) in
          let holds = Usage.holds ~env model ~field ~subsystem_class in
          let reference = reference_report ~env model ~field ~subsystem_class in
          let got = Usage.check_subsystem ~env model ~field ~subsystem_class in
          let oracle = oracle_violates ~max_ops ~env model ~field ~subsystem_class in
          let entries =
            match reference with
            | Some (Report.Invalid_subsystem_usage { counterexample; _ }) ->
              List.length (List.filter (fun s -> Symbol.split_scope s = None) counterexample)
            | _ -> 0
          in
          let fail fmt = QCheck2.Test.fail_reportf ("field %s: " ^^ fmt) field in
          if holds <> (reference = None) then
            fail "projected says %b, unprojected %b" holds (reference = None)
          else if Option.map Report.to_string got <> Option.map Report.to_string reference
          then fail "report differs from the unprojected one"
          else if oracle && holds then fail "the oracle found a violation"
          else if (not holds) && entries <= max_ops && not oracle then
            fail "the oracle found no violation within %d operations" max_ops
          else true)
        model.Model.declared_subsystems)

(* Erasing can cost determinism: [f]'s calls here spell (a+b)*·a·(a+b)^6,
   whose subsets blow up once the operation entries that tell the stages
   apart are erased, while the full expansion stays deterministic. Under a
   budget the projection cannot meet, the unprojected search still
   decides. *)
let shift_source =
  let stage i =
    let next = if i = 6 then "[]" else Printf.sprintf "[\"s%da\", \"s%db\"]" (i + 1) (i + 1) in
    let kind = if i = 6 then "op_final" else "op" in
    String.concat ""
      (List.map
         (fun m ->
           Printf.sprintf "    @%s\n    def s%d%s(self):\n        self.f.%s()\n        return %s\n\n"
             kind i m m next)
         [ "a"; "b" ])
  in
  let loop = "[\"la\", \"lb\", \"m\"]" in
  Printf.sprintf
    "@sys\nclass Any:\n    def __init__(self):\n        self.pin = Pin(1, OUT)\n\n\
    \    @op_initial_final\n    def a(self):\n        self.pin.on()\n        return [\"a\", \"b\"]\n\n\
    \    @op_initial_final\n    def b(self):\n        self.pin.off()\n        return [\"a\", \"b\"]\n\n\
     @sys([\"f\"])\nclass Shift:\n    def __init__(self):\n        self.f = Any()\n\n\
    \    @op_initial_final\n    def start(self):\n        return %s\n\n\
    \    @op\n    def la(self):\n        self.f.a()\n        return %s\n\n\
    \    @op\n    def lb(self):\n        self.f.b()\n        return %s\n\n\
    \    @op\n    def m(self):\n        self.f.a()\n        return [\"s1a\", \"s1b\"]\n\n%s"
    loop loop loop
    (String.concat "" (List.init 6 (fun i -> stage (i + 1))))

let test_projection_budget_fallback () =
  let result = Pipeline.verify_source_exn shift_source in
  let env = Pipeline.find_model result.Pipeline.models in
  let model = Option.get (Pipeline.find_model result.Pipeline.models "Shift") in
  let limits = Limits.make ~max_configs:100 () in
  (match Usage.holds ~limits ~env model ~field:"f" ~subsystem_class:"Any" with
  | _ -> Alcotest.fail "expected the projected search to run out"
  | exception Limits.Budget_exceeded _ -> ());
  Alcotest.(check int) "the unprojected search verifies" 0
    (List.length (Usage.check ~limits ~env model))

(* --- The IR extension: Prog.Par --------------------------------------------- *)

let ir_max_len = 4

let prop_par_theorems =
  (* Theorems 1+2 restated over programs with Par nodes: the independent
     semantics oracle and the inference must produce the same bounded
     behavior. *)
  qtest_arb "theorems hold with Par" ~count:300 prog_par_arb
    (fun p ->
      Trace.Set.equal
        (Semantics.behavior_upto ~max_len:ir_max_len p)
        (Enumerate.words_upto ~max_len:ir_max_len (Infer.infer p)))

let prop_par_derivation =
  (* Derivation search must construct checkable PAR trees for every
     behavior trace of a small Par program. *)
  qtest_arb "derivations exist and check for Par traces" ~count:60
    (Testutil.arbitrary ~print:Testutil.prog_print ~shrink:Testutil.prog_shrink
       (QCheck2.Gen.map
          (fun (l, r) -> Prog.par l r)
          (QCheck2.Gen.pair
             (Testutil.prog_gen_over [ sym "a"; sym "b" ])
             (Testutil.prog_gen_over [ sym "a"; sym "c" ]))))
    (fun p ->
      let sem = Semantics.traces_upto ~max_len:3 p in
      Trace.Set.for_all
        (fun l ->
          match Derivation.search Semantics.Ongoing l p with
          | Some d ->
            Derivation.check d
            && Derivation.conclusion d
               = { Derivation.status = Semantics.Ongoing; trace = l; prog = p }
          | None -> false)
        sem.Semantics.ongoing
      && Trace.Set.for_all
           (fun l ->
             match Derivation.search Semantics.Returned l p with
             | Some d -> Derivation.check d
             | None -> false)
           sem.Semantics.returned)

let prop_par_infer_is_shuffle =
  (* The ongoing component of a pure Par of return-free bodies is exactly
     the shuffle of the components' ongoing behaviors. *)
  qtest_arb "infer (par p q) ongoing = infer p ∥ infer q" ~count:150
    QCheck.(pair prog_arb prog_arb)
    (fun (p, q) ->
      let d1 = Infer.denote p in
      let d2 = Infer.denote q in
      let dp = Infer.denote (Prog.par p q) in
      Equiv.equivalent dp.Infer.ongoing (Regex.shuffle d1.Infer.ongoing d2.Infer.ongoing))

(* --- The frontend: async def / create_task / gather -------------------------- *)

let lower_method_prog src name =
  let program = Mpy_parser.parse_program src in
  match program.Mpy_ast.prog_classes with
  | [ cls ] -> (
    match Mpy_ast.find_method cls name with
    | Some m -> (Mpy_lower.lower_method m).Mpy_lower.low_prog
    | None -> Alcotest.failf "no method %s" name)
  | _ -> Alcotest.fail "expected one class"

let test_async_lowering () =
  let src =
    "class C:\n\
     \    async def spawn(self):\n\
     \        t = asyncio.create_task(self.log.flush())\n\
     \        await self.valve.open()\n\
     \        self.valve.close()\n\
     \    async def join(self):\n\
     \        await asyncio.gather(self.a.ping(), self.b.pong())\n\
     \        self.c.done()\n"
  in
  let spawn = Mpy_lower.strip_markers (lower_method_prog src "spawn") in
  Alcotest.(check string)
    "create_task forks without join" "par{log.flush()}{valve.open(); valve.close()}"
    (Prog.to_string spawn);
  let join = Mpy_lower.strip_markers (lower_method_prog src "join") in
  Alcotest.(check string)
    "gather forks and joins" "par{a.ping()}{b.pong()}; c.done()"
    (Prog.to_string join)

let test_async_pretty_roundtrip () =
  let src =
    "class C:\n\
     \    async def spawn(self):\n\
     \        await self.a.run()\n\
     \    def plain(self):\n\
     \        pass\n"
  in
  let program = Mpy_parser.parse_program src in
  let printed = Mpy_pretty.print_program program in
  Alcotest.(check bool) "async is printed" true (contains printed "async def spawn");
  Alcotest.(check bool) "plain stays plain" true (contains printed "\n    def plain");
  let reparsed = Mpy_parser.parse_program printed in
  Alcotest.(check bool) "round-trip equal" true (Mpy_pretty.equal_program program reparsed)

let () =
  Alcotest.run "shuffle"
    [
      ( "oracle",
        [
          Alcotest.test_case "pairs" `Quick test_pairs;
          Alcotest.test_case "shuffle_words dedup" `Quick test_shuffle_words_dedup;
          Alcotest.test_case "pinned examples" `Quick test_oracle_examples;
          Alcotest.test_case "regression corpus" `Quick test_regressions;
        ] );
      ( "differential",
        [
          prop_oracle_vs_deriv;
          prop_oracle_vs_glushkov;
          prop_oracle_vs_thompson;
          prop_matches_agrees;
          prop_expand_equivalent;
        ] );
      ( "laws",
        [
          prop_ac_structural;
          prop_distributes_over_alt;
          prop_derivative_commutation;
          prop_nullable;
          Alcotest.test_case "not idempotent" `Quick test_not_idempotent;
          prop_sequentialize_included;
          prop_branch_projection;
        ] );
      ( "notation",
        [
          prop_roundtrip;
          Alcotest.test_case "∥ and | parse" `Quick test_parse_notations;
        ] );
      ( "product",
        [
          Alcotest.test_case "empty product" `Quick test_product_empty;
          Alcotest.test_case "k-ary schedules" `Quick test_product_kary;
          Alcotest.test_case "budget enforced" `Quick test_product_budget;
          Alcotest.test_case "usage threads limits" `Quick test_usage_limits_threaded;
        ] );
      ( "projection",
        [
          Alcotest.test_case "project units" `Quick test_project_units;
          prop_project_is_homomorphism;
          prop_projected_usage_differential;
          Alcotest.test_case "budget falls back" `Quick test_projection_budget_fallback;
        ] );
      ( "ir",
        [ prop_par_theorems; prop_par_derivation; prop_par_infer_is_shuffle ] );
      ( "frontend",
        [
          Alcotest.test_case "async lowering" `Quick test_async_lowering;
          Alcotest.test_case "pretty round-trip" `Quick test_async_pretty_roundtrip;
        ] );
    ]
