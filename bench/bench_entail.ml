(* Entailment benchmark: on-the-fly product ([Entail.implies]) vs the
   strict construction ([Ltl_oracle.oracle_implies]) at equal budgets, over a
   generated claim family of X-chain eventualities [F (a_0 && X^k b)]
   against a cyclic m-symbol model — the LTLf spelling of the classic
   "k-th letter from the end" NFA, whose determinization has 2^k states
   (one per set of live chain offsets).

   The strict oracle must determinize the goal's tableau, so past a
   modest m it exhausts [max_states]. The on-the-fly product tracks only
   obligation vectors reachable along model-feasible traces; the cycle
   admits at most a couple of live chains at once, so it stays at O(m)
   states and keeps answering.

   Emits BENCH_entail.json and a human summary. Full mode enforces the
   acceptance criterion: on instances where the oracle exhausts its
   budget, the on-the-fly engine must return a definitive verdict on at
   least [definitive_floor] of them. A separate single-state "flower"
   family (every symbol self-loops) makes permutations of the same
   eventuality set converge, to exercise and record the memo-hit ratio.

   Two obligation-space families run at default budgets over flower
   models. The growing family nests the tautology
   [(F c) -> F ((F b) U (F c))] to depth d: under a normal form that
   neither absorbs nor distributes its obligations grow on every step.
   The conjunctive family [∧ᵢ<k (X aᵢ ∨ X bᵢ)] has 2^k clauses in
   disjunctive normal form. Every instance of both must end in a
   definitive verdict, in smoke and full mode alike: the floor is a
   count, so it holds on any host.

   The claim-set family runs [Lint_semantic.analyze_claims] (SY104,
   SY109–SY111) over generated composites with k = 4…12 claims, twice per
   class: in the class's two sessions, and with a fresh session per query.
   Both must give the same analysis and the same [entail.states], in smoke
   and full mode alike. The analysis settles a claim the usage language
   alone entails with one query; the search-only sweep it replaced
   ([Lint_oracle.analyze_claims], every question searched) must give the
   same analysis too. The rows record the three times. The analysis's
   [states] do not depend on the mode either, so --smoke fails when one
   differs from the tracked BENCH_entail.json: the gate on how much the
   sweep searches.

   The claim-set table rows ask the same family's model questions two
   ways: each as its own query, and all from one [Entail.table] of the
   class's claims. The questions are every claim with no hypothesis and
   with all the others as hypotheses, and every single and pairwise
   witness. Both ways must give the same answers, traces included. The
   rows record each way's states and time; the state counts do not depend
   on the mode, so --smoke fails when one differs from the tracked
   BENCH_entail.json (read before this run rewrites it).

   Run: dune exec bench/bench_entail.exe [--smoke] *)

let smoke = Array.exists (String.equal "--smoke") Sys.argv
let definitive_floor = 0.90

(* Equal budgets for both engines: generous enough that the on-the-fly
   product never trips on the family, small enough that the strict
   construction's exponential closure does — the goal DFA needs 2^m
   subset states, so from m = 8 the oracle trips [max_states] while the
   on-the-fly product stays at O(m) states. *)
let limits = Limits.make ~max_states:200 ~max_configs:20_000 ()

let sym i = Symbol.intern (Printf.sprintf "a%d.op" i)

(* Ring model over m symbols: state i steps to i+1 (mod m) on a_i, only
   state 0 accepts, so L = (a_0 ... a_{m-1})* — every nonempty
   accepted trace visits every symbol. *)
let ring m =
  Nfa.create ~num_states:m ~start:[ 0 ] ~accept:[ 0 ]
    ~transitions:(List.init m (fun i -> (i, sym i, (i + 1) mod m)))
    ()

let rec xchain k f = if k = 0 then f else Ltlf.next (xchain (k - 1) f)

(* Entailed over the ring: every accepted trace containing a_0 starts a
   full cycle, whose (m-1)-th successor position is a_{m-1}. *)
let goal_entailed m =
  Ltlf.finally (Ltlf.conj (Ltlf.atom (sym 0)) (xchain (m - 1) (Ltlf.atom (sym (m - 1)))))

(* Not entailed: a_0 again m steps after a_0 demands a second cycle, so
   the single-cycle trace is the shortest refutation. *)
let goal_refuted m =
  Ltlf.finally (Ltlf.conj (Ltlf.atom (sym 0)) (xchain m (Ltlf.atom (sym 0))))

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let counter key = Option.value ~default:0 (List.assoc_opt key (Obs.counters ()))

(* One timed verdict with the engine's own counters harvested. *)
let timed f =
  Obs.enable ~fake_clock:false ();
  let t0 = Clock.now () in
  let verdict = f () in
  let dt = Clock.now () -. t0 in
  let states = counter "entail.states" in
  let memo = counter "entail.memo_hits" in
  Obs.disable ();
  (verdict, dt, states, memo)

type row = {
  label : string;
  m : int;
  fly : Entail.verdict;
  fly_ms : float;
  fly_states : int;
  fly_memo : int;
  oracle : Entail.verdict;
  oracle_ms : float;
}

let verdict_tag = function
  | Entail.Entailed -> "entailed"
  | Entail.Not_entailed _ -> "not_entailed"
  | Entail.Unknown _ -> "unknown"

let run_instance ~label ~m ~expected ~impl ~hyps goal =
  let fly, fly_ms, fly_states, fly_memo =
    timed (fun () -> Entail.implies (Entail.session ~limits ~impl ()) ~hyps goal)
  in
  let oracle, oracle_ms, _, _ =
    timed (fun () -> Ltl_oracle.oracle_implies ~limits ~impl ~hyps goal)
  in
  (* The family's verdicts are known in closed form: a wrong answer is a
     bench bug or an engine bug, either way fatal. *)
  if verdict_tag fly <> expected then
    die "%s m=%d: on-the-fly returned %s, expected %s" label m (verdict_tag fly)
      expected;
  (match (fly, oracle) with
  | Entail.Entailed, Entail.Not_entailed _
  | Entail.Not_entailed _, Entail.Entailed ->
    die "%s m=%d: engines disagree" label m
  | _ -> ());
  {
    label;
    m;
    fly;
    fly_ms = fly_ms *. 1000.;
    fly_states;
    fly_memo;
    oracle;
    oracle_ms = oracle_ms *. 1000.;
  }

(* --- Obligation-space families ----------------------------------------------- *)

type space_row = { family : string; size : int; verdict : string; ms : float; states : int }

let flower_over syms =
  Nfa.create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
    ~transitions:(List.map (fun s -> (0, s, 0)) syms)
    ()

(* g_0 = F c, g_(d+1) = F ((F b) U g_d); F c implies every g_d. *)
let growing d =
  let eventually name = Ltlf.finally (Ltlf.atom_name name) in
  let rec g d =
    if d = 0 then eventually "c" else Ltlf.finally (Ltlf.until (eventually "b") (g (d - 1)))
  in
  Ltlf.implies (eventually "c") (g d)

let conjunct_names i = (Printf.sprintf "x%d.a" i, Printf.sprintf "x%d.b" i)

(* The second event is one symbol, so it cannot be in {a_i, b_i} for two
   distinct i: the conjunction is unsatisfiable from k = 2 on. *)
let conjunctive k =
  let x name = Ltlf.next (Ltlf.atom_name name) in
  List.init k (fun i ->
      let a, b = conjunct_names i in
      Ltlf.disj (x a) (x b))
  |> List.fold_left Ltlf.conj Ltlf.tt

let obligation_space_rows () =
  let measure ~family ~size ~expected f =
    let verdict, ms, states, _ = timed f in
    if verdict <> expected && verdict <> "unknown" then
      die "%s %d: returned %s, expected %s" family size verdict expected;
    { family; size; verdict; ms = ms *. 1000.; states }
  in
  let abc = flower_over (List.map Symbol.intern [ "a"; "b"; "c" ]) in
  let depths = if smoke then [ 1; 3 ] else [ 1; 2; 3; 4; 5; 6 ] in
  let widths = if smoke then [ 2; 16 ] else [ 1; 2; 4; 8; 12; 16 ] in
  List.map
    (fun d ->
      measure ~family:"growing" ~size:d ~expected:"entailed" (fun () ->
          verdict_tag (Entail.implies (Entail.session ~impl:abc ()) ~hyps:[] (growing d))))
    depths
  @ List.map
      (fun k ->
        let syms = List.concat (List.init k (fun i -> let a, b = conjunct_names i in [ a; b ])) in
        let impl = flower_over (List.map Symbol.intern syms) in
        measure ~family:"conjunctive" ~size:k
          ~expected:(if k = 1 then "satisfiable" else "unsatisfiable")
          (fun () ->
            match Entail.joint_witness (Entail.session ~impl ()) [ conjunctive k ] with
            | Ok (Some _) -> "satisfiable"
            | Ok None -> "unsatisfiable"
            | Error _ -> "unknown"))
      widths

(* --- Claim-set family ------------------------------------------------------------ *)

type claim_set_row = {
  claims : int;
  shared_ms : float;
  fresh_ms : float;
  oracle_ms : float;  (** the search-only sweep *)
  set_states : int;
  oracle_states : int;
  set_memo_hits : int;
}

let valves = 4

(* A composite over [valves] valves whose operations may run in any order,
   and [k] claims drawn in turn from templates that hold, fail, duplicate
   each other and contradict each other, so every claim-set verdict
   occurs. *)
let claim_set_source k =
  let templates =
    [|
      (fun i -> Printf.sprintf "(!v%d.open) W v%d.test" i i);
      (fun i -> Printf.sprintf "G (v%d.open -> F v%d.close)" i i);
      (fun i -> Printf.sprintf "F v%d.open" i);
      (fun i -> Printf.sprintf "(!v%d.close) W v%d.open" i i);
      (fun i -> Printf.sprintf "G (v%d.test -> F v%d.open)" i i);
      (fun i -> Printf.sprintf "G !v%d.open" i);
    |]
  in
  let claim j = templates.(j mod Array.length templates) (j / Array.length templates mod valves) in
  let ops = List.init valves (fun i -> Printf.sprintf "step%d" i) in
  let next = String.concat ", " (List.map (Printf.sprintf "\"%s\"") ops) in
  String.concat "\n"
    ([
       "@sys";
       "class Valve:";
       "    def __init__(self):";
       "        self.control = Pin(27, OUT)";
       "    @op_initial";
       "    def test(self):";
       "        return [\"open\", \"clean\"]";
       "    @op";
       "    def open(self):";
       "        return [\"close\"]";
       "    @op_final";
       "    def close(self):";
       "        return [\"test\"]";
       "    @op_final";
       "    def clean(self):";
       "        return [\"test\"]";
       "";
     ]
    @ List.init k (fun j -> Printf.sprintf "@claim(\"%s\")" (claim j))
    @ [
        Printf.sprintf "@sys([%s])"
          (String.concat ", " (List.init valves (Printf.sprintf "\"v%d\"")));
        "class Plant:";
        "    def __init__(self):";
      ]
    @ List.init valves (Printf.sprintf "        self.v%d = Valve()")
    @ List.concat
        (List.init valves (fun i ->
             [
               "    @op_initial_final";
               Printf.sprintf "    def step%d(self):" i;
               Printf.sprintf "        if self.v%d.test():" i;
               Printf.sprintf "            self.v%d.open()" i;
               Printf.sprintf "            self.v%d.close()" i;
               "        else:";
               Printf.sprintf "            self.v%d.clean()" i;
               Printf.sprintf "        return [%s]" next;
             ])))
  ^ "\n"

let claim_set_model k =
  let program, _ = Mpy_parser.parse_program_tolerant (claim_set_source k) in
  List.find_map
    (fun cls ->
      let model = (Extract.extract_class cls).Extract.model in
      if String.equal model.Model.name "Plant" then Some model else None)
    program.Mpy_ast.prog_classes
  |> Option.get

(* Median wall time of [runs] calls, with the [entail.*] counters of one. *)
let timed_analysis ~runs f =
  let times =
    List.init runs (fun _ ->
        let t0 = Clock.now () in
        ignore (f ());
        Clock.now () -. t0)
    |> List.sort compare
  in
  let analysis, _, states, memo = timed f in
  (analysis, List.nth times (runs / 2) *. 1000., states, memo)

let claim_set_rows () =
  let limits = Limits.default in
  let fuel = Lint_semantic.default_thresholds.Lint_semantic.entail_fuel in
  let runs = if smoke then 3 else 9 in
  let sizes = if smoke then [ 4; 8; 12 ] else [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ] in
  List.map
    (fun k ->
      let model = claim_set_model k in
      let automata = Lint_semantic.sessions ~limits model in
      let calls = Entail.impl (automata.Lint_semantic.calls ()) in
      let universal = Entail.impl (automata.Lint_semantic.universal ()) in
      let shared () =
        Lint_semantic.analyze_claims ~fuel ~sessions:(Lint_semantic.sessions ~limits model)
          ~limits model
      in
      let fresh () =
        let open_on impl () = Entail.session ~limits ~impl () in
        Lint_semantic.analyze_claims ~fuel
          ~sessions:{ Lint_semantic.calls = open_on calls; universal = open_on universal }
          ~limits model
      in
      let oracle () =
        Lint_oracle.analyze_claims ~fuel ~sessions:(Lint_semantic.sessions ~limits model) model
      in
      let a_shared, shared_ms, states, memo = timed_analysis ~runs shared in
      let a_fresh, fresh_ms, fresh_states, fresh_memo = timed_analysis ~runs fresh in
      let a_oracle, oracle_ms, oracle_states, _ = timed_analysis ~runs oracle in
      if a_shared <> a_fresh then die "claim set k=%d: one session and fresh sessions disagree" k;
      if a_shared <> a_oracle then
        die "claim set k=%d: the analysis and the search-only sweep disagree" k;
      if states <> fresh_states || memo <> fresh_memo then
        die "claim set k=%d: entail.states %d/%d, memo hits %d/%d (one session/fresh)" k
          states fresh_states memo fresh_memo;
      {
        claims = k;
        shared_ms;
        fresh_ms;
        oracle_ms;
        set_states = states;
        oracle_states;
        set_memo_hits = memo;
      })
    sizes

(* --- Claim-set table ---------------------------------------------------------- *)

type table_row = {
  k : int;
  questions : int;
  per_query_states : int;
  per_query_us : float;
  table_states : int;
  table_us : float;
}

(* The model questions of a k-claim class, as formula indices. *)
type question =
  | Implies of int list * int
  | Witness of int list

let questions k =
  let all = List.init k Fun.id in
  List.concat_map
    (fun i -> [ Implies ([], i); Implies (List.filter (( <> ) i) all, i); Witness [ i ] ])
    all
  @ List.concat_map
      (fun i -> List.filter_map (fun j -> if j > i then Some (Witness [ i; j ]) else None) all)
      all

let answer_tag = function
  | `Verdict v -> Format.asprintf "%a" Entail.pp_verdict v
  | `Witness (Ok None) -> "none"
  | `Witness (Ok (Some tr)) -> "witness " ^ Trace.to_string tr
  | `Witness (Error _) -> "unknown"

let table_rows () =
  let limits = Limits.default in
  let fuel = Lint_semantic.default_thresholds.Lint_semantic.entail_fuel in
  let runs = if smoke then 3 else 9 in
  let sizes = if smoke then [ 4; 8; 12 ] else [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ] in
  List.map
    (fun k ->
      let model = claim_set_model k in
      let calls = (Lint_semantic.sessions ~limits model).Lint_semantic.calls in
      let formulas = Array.of_list (List.map snd model.Model.claims) in
      let qs = questions (Array.length formulas) in
      let per_query () =
        let s = calls () in
        List.map
          (function
            | Implies (hyps, goal) ->
              `Verdict
                (Entail.implies s ~fuel ~hyps:(List.map (Array.get formulas) hyps) formulas.(goal))
            | Witness is -> `Witness (Entail.joint_witness s ~fuel (List.map (Array.get formulas) is)))
          qs
      in
      let tabled () =
        let t = Entail.table (calls ()) ~fuel (Array.to_list formulas) in
        if not (Entail.tabled t) then die "claim-set table k=%d: the table ran out of fuel" k;
        List.map
          (function
            | Implies (hyps, goal) -> `Verdict (Entail.table_implies t ~hyps goal)
            | Witness is -> `Witness (Entail.table_witness t is))
          qs
      in
      let a_query, query_ms, query_states, _ = timed_analysis ~runs per_query in
      let a_table, table_ms, table_states, _ = timed_analysis ~runs tabled in
      List.iteri
        (fun n (q, t) ->
          if answer_tag q <> answer_tag t then
            die "claim-set table k=%d, question %d: per query %s, table %s" k n (answer_tag q)
              (answer_tag t))
        (List.combine a_query a_table);
      {
        k;
        questions = List.length qs;
        per_query_states = query_states;
        per_query_us = query_ms *. 1000.;
        table_states;
        table_us = table_ms *. 1000.;
      })
    sizes

(* The smoke gate: each row's state counts must equal the tracked file's.
   [rows] pairs a row's claim count with the counts to compare; [section]
   names the tracked array that holds them. *)
let check_tracked_rows ~section ~family rows =
  let tracked =
    match Jsonl.parse (In_channel.with_open_bin "BENCH_entail.json" In_channel.input_all) with
    | Ok j -> Option.value ~default:[] (Option.bind (Jsonl.member section j) Jsonl.to_list)
    | Error msg -> die "FAIL: BENCH_entail.json does not parse: %s" msg
    | exception Sys_error msg -> die "FAIL: no tracked BENCH_entail.json: %s" msg
  in
  List.iter
    (fun (k, counts) ->
      match List.find_opt (fun t -> Jsonl.mem_int "claims" t = Some k) tracked with
      | None -> die "FAIL: %s k=%d has no row in the tracked BENCH_entail.json" family k
      | Some t ->
        List.iter
          (fun (key, n) ->
            match Jsonl.mem_int key t with
            | Some m when m = n -> ()
            | m ->
              die "FAIL: %s k=%d: %s %d, the tracked file says %s" family k key n
                (Option.fold ~none:"nothing" ~some:string_of_int m))
          counts)
    rows

let () =
  let sizes = if smoke then [ 4; 10 ] else [ 2; 4; 6; 8; 10; 12; 14; 16 ] in
  Printf.printf "entailment: ring family m in {%s}%s\n\n"
    (String.concat "," (List.map string_of_int sizes))
    (if smoke then " [smoke]" else "");
  let rows =
    List.concat_map
      (fun m ->
        let impl = ring m in
        let hyps = [ Ltlf.finally (Ltlf.atom (sym 0)) ] in
        let entailed =
          run_instance ~label:"ring/entailed" ~m ~expected:"entailed" ~impl ~hyps
            (goal_entailed m)
        in
        let refuted =
          run_instance ~label:"ring/refuted" ~m ~expected:"not_entailed" ~impl
            ~hyps (goal_refuted m)
        in
        (match refuted.fly with
        | Entail.Not_entailed tr when Trace.length tr = m -> ()
        | Entail.Not_entailed tr ->
          die "ring/refuted m=%d: counterexample length %d, expected %d" m
            (Trace.length tr) m
        | _ -> ());
        [ entailed; refuted ])
      sizes
  in
  (* Memo family: single state, every symbol self-loops, joint witness of
     all m eventualities — permutations of the discharge order converge
     onto the same obligation vectors, so the memo table does real work. *)
  let memo_m = 6 in
  let flower = flower_over (List.init memo_m sym) in
  let witness, memo_ms, memo_states, memo_hits =
    timed (fun () ->
        Entail.joint_witness (Entail.session ~limits ~impl:flower ())
          (List.init memo_m (fun i -> Ltlf.finally (Ltlf.atom (sym i)))))
  in
  (match witness with
  | Ok (Some tr) when Trace.length tr = memo_m -> ()
  | _ -> die "flower m=%d: expected a witness of length %d" memo_m memo_m);
  let memo_ms = memo_ms *. 1000. in
  let memo_ratio =
    float_of_int memo_hits /. float_of_int (memo_states + memo_hits)
  in
  Printf.printf "  %-16s %4s  %-14s %9s %8s %8s  %-14s %9s\n" "family" "m"
    "fly verdict" "fly ms" "states" "memo" "oracle verdict" "oracle ms";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %4d  %-14s %9.2f %8d %8d  %-14s %9.2f\n" r.label r.m
        (verdict_tag r.fly) r.fly_ms r.fly_states r.fly_memo
        (verdict_tag r.oracle) r.oracle_ms)
    rows;
  Printf.printf "  %-16s %4d  witness len %d in %.2f ms, %d states, %d memo hits \
                 (ratio %.2f)\n"
    "flower/memo" memo_m memo_m memo_ms memo_states memo_hits memo_ratio;
  let space_rows = obligation_space_rows () in
  Printf.printf "\n  %-16s %4s  %-14s %9s %8s\n" "family" "size" "verdict" "ms" "states";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %4d  %-14s %9.2f %8d\n" r.family r.size r.verdict r.ms
        r.states)
    space_rows;
  let set_rows = claim_set_rows () in
  Printf.printf "\n  %-16s %4s  %10s %10s %8s %8s  %10s %8s\n" "family" "k" "session ms"
    "fresh ms" "states" "memo" "search ms" "states";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %4d  %10.2f %10.2f %8d %8d  %10.2f %8d\n" "claim set" r.claims
        r.shared_ms r.fresh_ms r.set_states r.set_memo_hits r.oracle_ms r.oracle_states)
    set_rows;
  let table_rows = table_rows () in
  Printf.printf "\n  %-16s %4s %9s  %10s %12s  %10s %12s\n" "family" "k" "questions"
    "per query" "us" "table" "us";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %4d %9d  %10d %12.1f  %10d %12.1f\n" "claim-set table" r.k
        r.questions r.per_query_states r.per_query_us r.table_states r.table_us)
    table_rows;
  if smoke then begin
    check_tracked_rows ~section:"claim_sets" ~family:"claim set"
      (List.map (fun r -> (r.claims, [ ("states", r.set_states) ])) set_rows);
    check_tracked_rows ~section:"claim_set_table" ~family:"claim-set table"
      (List.map
         (fun r ->
           (r.k, [ ("per_query_states", r.per_query_states); ("table_states", r.table_states) ]))
         table_rows)
  end;
  let definitive = List.filter (fun r -> r.verdict <> "unknown") space_rows in
  if List.length definitive < List.length space_rows then
    die "FAIL: %d of %d obligation-space instances ended in unknown"
      (List.length space_rows - List.length definitive)
      (List.length space_rows);
  let exhausted =
    List.filter (fun r -> verdict_tag r.oracle = "unknown") rows
  in
  let answered =
    List.filter (fun r -> verdict_tag r.fly <> "unknown") exhausted
  in
  let ratio =
    if exhausted = [] then 1.0
    else float_of_int (List.length answered) /. float_of_int (List.length exhausted)
  in
  Printf.printf "\n  oracle exhausted on %d/%d instances; on-the-fly definitive on \
                 %d of those (%.0f%%, floor %.0f%%%s)\n"
    (List.length exhausted) (List.length rows) (List.length answered)
    (ratio *. 100.) (definitive_floor *. 100.)
    (if smoke then ", not enforced in smoke mode" else "");
  if (not smoke) && exhausted = [] then
    die "FAIL: no instance exhausted the oracle; the family is not adversarial";
  if (not smoke) && ratio < definitive_floor then
    die "FAIL: definitive ratio %.2f is below the %.2f floor" ratio definitive_floor;
  let ms = Bench_json.fixed 3 in
  let row_json r =
    Jsonl.(
      Obj
        [ ("family", Str r.label); ("m", int r.m); ("fly_verdict", Str (verdict_tag r.fly));
          ("fly_ms", ms r.fly_ms); ("fly_states", int r.fly_states);
          ("fly_memo_hits", int r.fly_memo); ("oracle_verdict", Str (verdict_tag r.oracle));
          ("oracle_ms", ms r.oracle_ms) ])
  in
  let space_json r =
    Jsonl.(Obj [ ("family", Str r.family); ("size", int r.size); ("verdict", Str r.verdict);
                 ("ms", ms r.ms); ("states", int r.states) ])
  in
  let set_json r =
    Jsonl.(
      Obj
        [ ("claims", int r.claims); ("session_ms", ms r.shared_ms);
          ("fresh_session_per_query_ms", ms r.fresh_ms); ("states", int r.set_states);
          ("memo_hits", int r.set_memo_hits); ("search_only_ms", ms r.oracle_ms);
          ("search_only_states", int r.oracle_states) ])
  in
  let table_json r =
    Jsonl.(
      Obj
        [ ("claims", int r.k); ("questions", int r.questions);
          ("per_query_states", int r.per_query_states);
          ("per_query_us", Bench_json.fixed 1 r.per_query_us);
          ("table_states", int r.table_states); ("table_us", Bench_json.fixed 1 r.table_us) ])
  in
  Bench_json.write "BENCH_entail.json"
    Jsonl.(
      Obj
        [ ("benchmark", Str "entailment"); ("max_states", int limits.Limits.max_states);
          ("max_configs", int limits.Limits.max_configs);
          ("instances", Arr (List.map row_json rows));
          ( "memo_family",
            Obj [ ("m", int memo_m); ("ms", ms memo_ms); ("states", int memo_states);
                  ("memo_hits", int memo_hits);
                  ("memo_hit_ratio", Bench_json.fixed 3 memo_ratio) ] );
          ("oracle_exhausted", int (List.length exhausted));
          ("fly_definitive_of_exhausted", int (List.length answered));
          ("definitive_ratio", Bench_json.fixed 3 ratio);
          ("definitive_floor", Num definitive_floor);
          ("floor_enforced", Bool (not smoke));
          ("obligation_space", Arr (List.map space_json space_rows));
          ("obligation_space_definitive", int (List.length definitive));
          ("obligation_space_floor", int (List.length space_rows));
          ("claim_sets", Arr (List.map set_json set_rows));
          ("claim_set_table", Arr (List.map table_json table_rows)) ]);
  Printf.printf "\nwrote BENCH_entail.json\n"
