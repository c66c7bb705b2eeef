open Testutil

(* Differential and soundness tests for the on-the-fly entailment engine:
   [Entail.implies] must agree with the strict automata-theoretic oracle
   whenever the oracle finishes within budget, and every [Not_entailed]
   counterexample must be a genuine model trace satisfying the hypotheses
   and violating the goal — confirmed both by direct [Ltlf.holds]
   evaluation and by replaying the trace through the strict oracle. *)

let alphabet = List.map Symbol.intern [ "a.open"; "a.close"; "b.open" ]
let alphabet_set = Symbol.Set.of_list alphabet
(* Small budgets keep the adversarial tail of the random distribution cheap:
   a case that needs more than ~1500 product states degrades to [Unknown],
   which every property treats as inconclusive. *)
let limits = Limits.make ~max_states:500 ~max_configs:1500 ()

(* One query in a fresh session. *)
let implies ~limits ?fuel ~impl ~hyps goal =
  Entail.implies (Entail.session ~limits ~impl ()) ?fuel ~hyps goal

let joint_witness ~limits ~impl formulas =
  Entail.joint_witness (Entail.session ~limits ~impl ()) formulas

(* --- Generators ------------------------------------------------------------ *)

let ltl_gen : Ltlf.t QCheck2.Gen.t =
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
          map Ltlf.globally (tree (n - 1));
          map Ltlf.finally (tree (n - 1));
          map2 Ltlf.conj (tree (n / 2)) (tree (n / 2));
          map2 Ltlf.disj (tree (n / 2)) (tree (n / 2));
          map2 Ltlf.until (tree (n / 2)) (tree (n / 2));
        ]
  in
  int_range 1 4 >>= tree

(* A small random NFA over the shared alphabet. Start state 0 is always
   present; acceptance and transitions are arbitrary, so empty and
   universal-ish languages both occur. *)
let nfa_gen : Nfa.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  int_range 1 4 >>= fun n ->
  list_size (int_range 0 10)
    (triple (int_range 0 (n - 1)) (oneofl alphabet) (int_range 0 (n - 1)))
  >>= fun transitions ->
  list_size (int_range 1 n) (int_range 0 (n - 1)) >>= fun accept ->
  return (Nfa.create ~num_states:n ~start:[ 0 ] ~accept ~transitions ())

let case_gen : (Nfa.t * Ltlf.t list * Ltlf.t) QCheck2.Gen.t =
  let open QCheck2.Gen in
  triple nfa_gen (list_size (int_range 0 2) ltl_gen) ltl_gen

let nfa_print impl =
  Printf.sprintf "%d states, start={%s}, accept={%s}, delta=[%s]"
    (Nfa.num_states impl)
    (String.concat "," (List.map string_of_int (States.Set.elements (Nfa.start impl))))
    (String.concat "," (List.map string_of_int (States.Set.elements (Nfa.accept impl))))
    (String.concat "; "
       (List.map
          (fun (s, e, d) -> Printf.sprintf "%d-%s->%d" s (Symbol.name e) d)
          (Nfa.transitions impl)))

let case_print (impl, hyps, goal) =
  Printf.sprintf "impl(%s), hyps=[%s], goal=%s" (nfa_print impl)
    (String.concat "; " (List.map Ltlf.to_string hyps))
    (Ltlf.to_string goal)

(* A linear NFA accepting exactly [tr], for replaying counterexamples
   through the strict oracle. *)
let nfa_of_trace tr =
  let n = Trace.length tr in
  Nfa.create ~num_states:(n + 1) ~start:[ 0 ] ~accept:[ n ]
    ~transitions:(List.mapi (fun i sym -> (i, sym, i + 1)) tr)
    ()

(* --- Differential: on-the-fly vs strict oracle ----------------------------- *)

let prop_matches_oracle =
  qtest "implies agrees with the strict oracle" ~count:300 case_gen
    ~print:case_print (fun (impl, hyps, goal) ->
      match Ltl_oracle.oracle_implies ~limits ~alphabet:alphabet_set ~impl ~hyps goal with
      | Entail.Unknown _ -> true (* oracle out of budget: nothing to compare *)
      | oracle -> begin
        match
          (oracle, implies ~limits ~impl ~hyps goal)
        with
        | Entail.Entailed, Entail.Entailed -> true
        | Entail.Not_entailed _, Entail.Not_entailed _ -> true
        (* Running out of fuel first is never wrong, only unhelpful. *)
        | _, Entail.Unknown { resource = "entailment configurations"; _ } -> true
        | _, _ -> false
      end)

(* Both engines are breadth-first over sorted symbols, so a refutation is
   the same shortlex-least trace whichever engine found it. *)
let counterexample_identity ~name ~hyps_of =
  qtest name ~count:300 case_gen ~print:case_print (fun (impl, hyps, goal) ->
      let hyps = hyps_of hyps in
      match
        ( Ltl_oracle.oracle_implies ~limits ~alphabet:alphabet_set ~impl ~hyps goal,
          implies ~limits ~impl ~hyps goal )
      with
      | Entail.Not_entailed t1, Entail.Not_entailed t2 -> Trace.equal t1 t2
      | _ -> true)

let prop_same_counterexample_no_hyps =
  counterexample_identity ~name:"one counterexample, no hyps" ~hyps_of:(fun _ -> [])

let prop_same_counterexample =
  counterexample_identity ~name:"one counterexample, with hyps" ~hyps_of:Fun.id

(* --- Counterexample soundness ---------------------------------------------- *)

let prop_counterexample_sound =
  qtest "Not_entailed trace: in L(impl), satisfies hyps, violates goal" ~count:300
    case_gen ~print:case_print (fun (impl, hyps, goal) ->
      match implies ~limits ~impl ~hyps goal with
      | Entail.Entailed | Entail.Unknown _ -> true
      | Entail.Not_entailed tr ->
        (* Direct [holds] evaluation is superlinear in trace length for
           nested Until; counterexamples are BFS-shortest but can still be
           long on adversarial cases, so bound the replay. *)
        Trace.length tr > 50
        || Nfa.accepts impl tr
           && List.for_all (fun h -> Ltlf.holds h tr) hyps
           && not (Ltlf.holds goal tr))

let prop_counterexample_replays =
  qtest "Not_entailed trace replays through the strict oracle" ~count:200 case_gen
    ~print:case_print (fun (impl, hyps, goal) ->
      match implies ~limits ~impl ~hyps goal with
      | Entail.Entailed | Entail.Unknown _ -> true
      | Entail.Not_entailed tr when Trace.length tr <= 50 ->
        let single = nfa_of_trace tr in
        let oracle f =
          Ltl_oracle.oracle_implies ~limits ~alphabet:alphabet_set ~impl:single ~hyps:[] f
        in
        let violates_goal =
          match oracle goal with
          | Entail.Not_entailed t -> Trace.equal t tr
          | Entail.Unknown _ -> true
          | Entail.Entailed -> false
        in
        let satisfies_hyps =
          List.for_all
            (fun h ->
              match oracle h with
              | Entail.Entailed | Entail.Unknown _ -> true
              | Entail.Not_entailed _ -> false)
            hyps
        in
        violates_goal && satisfies_hyps
      | Entail.Not_entailed _ -> true)

(* --- Entailed verdicts checked against bounded enumeration ----------------- *)

let prop_entailed_bounded =
  qtest "Entailed: no short model trace satisfies hyps but not goal" ~count:200
    case_gen ~print:case_print (fun (impl, hyps, goal) ->
      match implies ~limits ~impl ~hyps goal with
      | Entail.Not_entailed _ | Entail.Unknown _ -> true
      | Entail.Entailed ->
        Trace.Set.for_all
          (fun w ->
            (not (List.for_all (fun h -> Ltlf.holds h w) hyps)) || Ltlf.holds goal w)
          (Nfa.words_upto ~max_len:4 impl))

(* --- joint_witness --------------------------------------------------------- *)

let prop_joint_witness_sound =
  qtest "joint_witness: Some is a joint model; None means no short one" ~count:200
    QCheck2.Gen.(pair nfa_gen (list_size (int_range 1 2) ltl_gen))
    ~print:(fun (impl, fs) ->
      Printf.sprintf "impl(%d states), formulas=[%s]" (Nfa.num_states impl)
        (String.concat "; " (List.map Ltlf.to_string fs)))
    (fun (impl, formulas) ->
      match joint_witness ~limits ~impl formulas with
      | Error _ -> true
      | Ok (Some tr) ->
        Nfa.accepts impl tr && List.for_all (fun f -> Ltlf.holds f tr) formulas
      | Ok None ->
        Trace.Set.for_all
          (fun w -> not (List.for_all (fun f -> Ltlf.holds f w) formulas))
          (Nfa.words_upto ~max_len:4 impl))

(* --- Sessions: shared tables, history-free answers ---------------------------- *)

type query =
  | Implies of Ltlf.t list * Ltlf.t
  | Joint of Ltlf.t list

(* Queries draw their formulas from a small pool, negations included, so
   that queries of one case share obligations, vectors and configurations. *)
let queries_gen =
  let open QCheck2.Gen in
  list_size (int_range 2 3) ltl_gen >>= fun pool ->
  let pool = Array.of_list (pool @ List.map Ltlf.neg pool) in
  let formula = map (Array.get pool) (int_range 0 (Array.length pool - 1)) in
  list_size (int_range 1 6)
    (oneof
       [
         map2 (fun hyps goal -> Implies (hyps, goal)) (list_size (int_range 0 2) formula) formula;
         map (fun fs -> Joint fs) (list_size (int_range 1 3) formula);
       ])

let query_print = function
  | Implies (hyps, goal) ->
    Printf.sprintf "implies [%s] %s" (String.concat "; " (List.map Ltlf.to_string hyps))
      (Ltlf.to_string goal)
  | Joint fs -> Printf.sprintf "joint [%s]" (String.concat "; " (List.map Ltlf.to_string fs))

(* Everything a query shows: its verdict with any trace, and the product
   states it materialized. *)
let answer session query =
  Obs.enable ~fake_clock:true ();
  let verdict =
    match query with
    | Implies (hyps, goal) -> Format.asprintf "%a" Entail.pp_verdict (Entail.implies session ~hyps goal)
    | Joint fs -> (
      match Entail.joint_witness session fs with
      | Ok None -> "no joint trace"
      | Ok (Some tr) -> "witness " ^ Trace.to_string tr
      | Error b -> Printf.sprintf "unknown (%s %d)" b.Entail.resource b.Entail.limit)
  in
  let states = Option.value ~default:0 (List.assoc_opt "entail.states" (Obs.counters ())) in
  Obs.disable ();
  (verdict, states)

let permute seed l =
  let st = Random.State.make [| seed |] in
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

let prop_session_history_free =
  qtest "a session answers each query as a fresh one, in any order" ~count:200
    QCheck2.Gen.(triple nfa_gen queries_gen int)
    ~print:(fun (impl, queries, seed) ->
      Printf.sprintf "impl(%s), order seed %d, queries:\n  %s" (nfa_print impl) seed
        (String.concat "\n  " (List.map query_print queries)))
    (fun (impl, queries, seed) ->
      let fresh = List.map (fun q -> answer (Entail.session ~limits ~impl ()) q) queries in
      let shared = Entail.session ~limits ~impl () in
      List.for_all
        (fun (i, q) -> answer shared q = List.nth fresh i)
        (permute seed (List.mapi (fun i q -> (i, q)) queries)))

(* The node cap bounds a session's whole obligation space: two queries over
   disjoint literals that each fit on their own cross it together. *)
let test_session_node_cap () =
  let impl =
    Nfa.create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
      ~transitions:(List.map (fun sym -> (0, sym, 0)) alphabet)
      ()
  in
  let first = Ltlf.until (Ltlf.atom_name "a.open") (Ltlf.atom_name "a.close") in
  let second = Ltlf.globally (Ltlf.finally (Ltlf.atom_name "b.open")) in
  let decided session goal =
    match Entail.implies session ~hyps:[] goal with
    | Entail.Unknown _ -> false
    | Entail.Entailed | Entail.Not_entailed _ -> true
  in
  (* The smallest cap under which a goal is decided in a fresh session. *)
  let cap_of goal =
    let rec go cap =
      if cap > 200 then Alcotest.failf "%s needs more than 200 nodes" (Ltlf.to_string goal)
      else if decided (Entail.session ~limits:(Limits.make ~max_regex_size:cap ()) ~impl ()) goal
      then cap
      else go (cap + 1)
    in
    go 2
  in
  let cap = max (cap_of first) (cap_of second) in
  let limits = Limits.make ~max_regex_size:cap () in
  let session = Entail.session ~limits ~impl () in
  Alcotest.(check bool) "first query fits" true (decided session first);
  match Entail.implies session ~hyps:[] second with
  | Entail.Unknown b ->
    Alcotest.(check string) "resource" "obligation nodes" b.Entail.resource;
    Alcotest.(check int) "limit" cap b.Entail.limit
  | Entail.Entailed | Entail.Not_entailed _ ->
    Alcotest.failf "the second query fit in a %d-node session after the first" cap

(* --- Shortest counterexample ------------------------------------------------ *)

let test_shortest_counterexample () =
  (* impl = a.open* ; hyps = [F a.open] ; goal = F a.close: the shortest
     trace satisfying the hypothesis is [a.open], and BFS must find it. *)
  let a_open = Symbol.intern "a.open" in
  let impl =
    Nfa.create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
      ~transitions:[ (0, a_open, 0) ] ()
  in
  match
    implies ~limits ~impl
      ~hyps:[ Ltlf.finally (Ltlf.atom_name "a.open") ]
      (Ltlf.finally (Ltlf.atom_name "a.close"))
  with
  | Entail.Not_entailed tr ->
    Alcotest.(check int) "length-minimal" 1 (Trace.length tr)
  | Entail.Entailed | Entail.Unknown _ -> Alcotest.fail "expected Not_entailed"

let test_budget_degrades_to_unknown () =
  let a_open = Symbol.intern "a.open" in
  let impl =
    Nfa.create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
      ~transitions:[ (0, a_open, 0) ] ()
  in
  let expect_unknown ~limits ?fuel ~resource ~limit () =
    match
      implies ~limits ?fuel ~impl
        ~hyps:[ Ltlf.finally (Ltlf.atom_name "a.open") ]
        (Ltlf.finally (Ltlf.atom_name "a.close"))
    with
    | Entail.Unknown b ->
      Alcotest.(check int) "reported limit" limit b.Entail.limit;
      Alcotest.(check string) "resource name" resource b.Entail.resource
    | Entail.Entailed | Entail.Not_entailed _ ->
      Alcotest.failf "expected Unknown (%s %d)" resource limit
  in
  expect_unknown ~limits ~fuel:1 ~resource:"entailment configurations" ~limit:1 ();
  (* Two nodes are the constants, so the first literal exceeds the guard. *)
  expect_unknown ~limits:(Limits.make ~max_regex_size:2 ()) ~resource:"obligation nodes"
    ~limit:2 ()

(* --- Claim tables --------------------------------------------------------------- *)

(* ε-NFAs over the shared alphabet, with the empty, ε-only and universal
   languages drawn on purpose. *)
let eps_nfa_gen : Nfa.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let random =
    int_range 1 4 >>= fun n ->
    let state = int_range 0 (n - 1) in
    list_size (int_range 0 10) (triple state (oneofl alphabet) state) >>= fun transitions ->
    list_size (int_range 0 3) (pair state state) >>= fun epsilons ->
    list_size (int_range 0 n) state >>= fun accept ->
    return (Nfa.create ~num_states:n ~start:[ 0 ] ~accept ~transitions ~epsilons ())
  in
  frequency
    [
      (1, return Nfa.empty_language);
      (1, return Nfa.eps_language);
      (1, return (Nfa.universal alphabet_set));
      (7, random);
    ]

(* A formula list, then implication questions (hypothesis indices, goal
   index) and witness questions (indices) over it. *)
let table_case_gen =
  let open QCheck2.Gen in
  eps_nfa_gen >>= fun impl ->
  list_size (int_range 1 4) (ltl_gen_over alphabet) >>= fun formulas ->
  let index = int_range 0 (List.length formulas - 1) in
  list_size (int_range 1 4) (pair (list_size (int_range 0 3) index) index) >>= fun questions ->
  list_size (int_range 1 3) (list_size (int_range 1 3) index) >>= fun witnesses ->
  return (impl, formulas, questions, witnesses)

let table_case_print (impl, formulas, questions, witnesses) =
  let indices is = String.concat "," (List.map string_of_int is) in
  Printf.sprintf "impl(%s, eps=[%s])\n  formulas: %s\n  implies: %s\n  witnesses: %s"
    (nfa_print impl)
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) (Nfa.epsilons impl)))
    (String.concat " | " (List.mapi (fun i f -> Printf.sprintf "%d: %s" i (Ltlf.to_string f)) formulas))
    (String.concat "; " (List.map (fun (hyps, goal) -> Printf.sprintf "[%s] => %d" (indices hyps) goal) questions))
    (String.concat "; " (List.map (fun is -> Printf.sprintf "[%s]" (indices is)) witnesses))

(* Only a table that stayed in budget is tested: one that ran out asks
   each question per query. *)
let prop_table_matches_queries =
  qtest "a table answers each question as its own query" ~count:500 table_case_gen
    ~print:table_case_print (fun (impl, formulas, questions, witnesses) ->
      let table = Entail.table (Entail.session ~limits ~impl ()) formulas in
      QCheck2.assume (Entail.tabled table);
      let nth = List.nth formulas in
      List.for_all
        (fun (hyps, goal) ->
          match implies ~limits ~impl ~hyps:(List.map nth hyps) (nth goal) with
          | Entail.Unknown _ -> true
          | verdict -> Entail.table_implies table ~hyps goal = verdict)
        questions
      && List.for_all
           (fun is ->
             match joint_witness ~limits ~impl (List.map nth is) with
             | Error _ -> true
             | witness -> Entail.table_witness table is = witness)
           witnesses)

let () =
  Alcotest.run "entail"
    [
      ( "differential",
        [ prop_matches_oracle; prop_same_counterexample_no_hyps; prop_same_counterexample ] );
      ( "soundness",
        [
          prop_counterexample_sound;
          prop_counterexample_replays;
          prop_entailed_bounded;
          prop_joint_witness_sound;
        ] );
      ( "session",
        [
          prop_session_history_free;
          Alcotest.test_case "node cap spans the session" `Quick test_session_node_cap;
          prop_table_matches_queries;
        ] );
      ( "unit",
        [
          Alcotest.test_case "shortest counterexample" `Quick
            test_shortest_counterexample;
          Alcotest.test_case "budget degrades to Unknown" `Quick
            test_budget_degrades_to_unknown;
        ] );
    ]
