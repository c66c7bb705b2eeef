open Testutil

let a = Regex.sym_of_name "a"
let b = Regex.sym_of_name "b"
let c = Regex.sym_of_name "c"
let ab_star = Regex.star (Regex.seq a b)
let paper_regex = Infer.infer Ir_examples.paper_loop

(* --- NFA basics -------------------------------------------------------------- *)

let test_nfa_symbol () =
  let nfa = Nfa.symbol (sym "a") in
  Alcotest.(check bool) "accepts a" true (Nfa.accepts nfa (tr [ "a" ]));
  Alcotest.(check bool) "rejects empty" false (Nfa.accepts nfa []);
  Alcotest.(check bool) "rejects aa" false (Nfa.accepts nfa (tr [ "a"; "a" ]))

let test_nfa_eps_closure () =
  let nfa =
    Nfa.create ~num_states:4 ~start:[ 0 ] ~accept:[ 3 ]
      ~transitions:[ (1, sym "a", 2) ]
      ~epsilons:[ (0, 1); (2, 3) ]
      ()
  in
  Alcotest.(check bool) "accepts via eps" true (Nfa.accepts nfa (tr [ "a" ]));
  Alcotest.(check int) "closure of start" 2
    (States.Set.cardinal (Nfa.initial_config nfa))

let test_nfa_eps_cycle () =
  (* ε-cycles must not loop the closure computation. *)
  let nfa =
    Nfa.create ~num_states:3 ~start:[ 0 ] ~accept:[ 2 ]
      ~transitions:[ (1, sym "a", 2) ]
      ~epsilons:[ (0, 1); (1, 0) ]
      ()
  in
  Alcotest.(check bool) "accepts" true (Nfa.accepts nfa (tr [ "a" ]))

let test_nfa_union () =
  let nfa = Nfa.union (Nfa.symbol (sym "a")) (Nfa.symbol (sym "b")) in
  Alcotest.(check bool) "a" true (Nfa.accepts nfa (tr [ "a" ]));
  Alcotest.(check bool) "b" true (Nfa.accepts nfa (tr [ "b" ]));
  Alcotest.(check bool) "ab" false (Nfa.accepts nfa (tr [ "a"; "b" ]))

let test_nfa_concat () =
  let nfa = Nfa.concat (Nfa.symbol (sym "a")) (Nfa.symbol (sym "b")) in
  Alcotest.(check bool) "ab" true (Nfa.accepts nfa (tr [ "a"; "b" ]));
  Alcotest.(check bool) "a" false (Nfa.accepts nfa (tr [ "a" ]))

let test_nfa_star () =
  let nfa = Nfa.star (Nfa.symbol (sym "a")) in
  Alcotest.(check bool) "empty" true (Nfa.accepts nfa []);
  Alcotest.(check bool) "aaa" true (Nfa.accepts nfa (tr [ "a"; "a"; "a" ]))

let test_nfa_shortest () =
  let nfa = Thompson.of_regex (Regex.seq (Regex.star a) (Regex.seq b c)) in
  Alcotest.(check (option trace)) "bc" (Some (tr [ "b"; "c" ])) (Nfa.shortest_accepted nfa)

let test_nfa_shortest_with_states () =
  let nfa = Thompson.of_regex (Regex.seq a b) in
  match Nfa.shortest_accepted_with_states nfa with
  | None -> Alcotest.fail "expected a witness"
  | Some (trace_found, path) ->
    Alcotest.check trace "trace" (tr [ "a"; "b" ]) trace_found;
    Alcotest.(check int) "path length = trace length + 1" 3 (List.length path)

let test_nfa_map_symbols_projection () =
  (* Erase b: language of (ab)* projects to a*. *)
  let nfa = Thompson.of_regex ab_star in
  let projected =
    Nfa.map_symbols (fun s -> if Symbol.equal s (sym "a") then Some s else None) nfa
  in
  Alcotest.(check bool) "aa accepted" true (Nfa.accepts projected (tr [ "a"; "a" ]));
  Alcotest.(check bool) "b gone" false (Nfa.accepts projected (tr [ "b" ]))

let test_nfa_self_loops () =
  let nfa = Nfa.add_self_loops (Symbol.Set.singleton (sym "x")) (Nfa.symbol (sym "a")) in
  Alcotest.(check bool) "xax accepted" true (Nfa.accepts nfa (tr [ "x"; "a"; "x" ]));
  Alcotest.(check bool) "bare x rejected" false (Nfa.accepts nfa (tr [ "x" ]))

let test_nfa_trim () =
  let nfa =
    Nfa.create ~num_states:5 ~start:[ 0 ] ~accept:[ 2 ]
      ~transitions:[ (0, sym "a", 2); (0, sym "a", 3); (4, sym "b", 2) ]
      ()
  in
  let trimmed = Nfa.trim nfa in
  (* States 1 (isolated), 3 (dead end), 4 (unreachable) disappear. *)
  Alcotest.(check int) "two live states" 2 (Nfa.num_states trimmed);
  Alcotest.(check bool) "language preserved" true (Nfa.accepts trimmed (tr [ "a" ]))

let test_nfa_trim_empty () =
  let nfa = Nfa.create ~num_states:3 ~start:[ 0 ] ~accept:[] ~transitions:[] () in
  Alcotest.(check bool) "empty language" true (Nfa.is_empty (Nfa.trim nfa))

let test_nfa_reverse () =
  let nfa = Thompson.of_regex (Regex.seq a b) in
  Alcotest.(check bool) "reverse accepts ba" true (Nfa.accepts (Nfa.reverse nfa) (tr [ "b"; "a" ]))

(* --- Constructions agree ------------------------------------------------------ *)

let constructions_agree r =
  let thompson = Thompson.of_regex r in
  let glushkov = Glushkov.of_regex r in
  let words = Enumerate.words_upto ~max_len:4 r in
  let words_t = Nfa.words_upto ~max_len:4 thompson in
  let words_g = Nfa.words_upto ~max_len:4 glushkov in
  Trace.Set.equal words words_t && Trace.Set.equal words words_g

let test_constructions_on_paper_regex () =
  Alcotest.(check bool) "paper loop regex" true (constructions_agree paper_regex)

let test_glushkov_eps_free () =
  let nfa = Glushkov.of_regex (Regex.star (Regex.alt a (Regex.seq b c))) in
  Alcotest.(check int) "no epsilons" 0 (List.length (Nfa.epsilons nfa))

let prop_constructions_agree =
  qtest "thompson & glushkov match enumeration" ~count:100 default_regex_gen
    ~print:regex_print constructions_agree

(* --- Determinization / DFA ----------------------------------------------------- *)

let dfa_of r = Determinize.determinize (Thompson.of_regex r)

let test_determinize_preserves () =
  let dfa = dfa_of ab_star in
  Alcotest.(check bool) "abab" true (Dfa_oracle.accepts dfa (tr [ "a"; "b"; "a"; "b" ]));
  Alcotest.(check bool) "empty" true (Dfa_oracle.accepts dfa []);
  Alcotest.(check bool) "aba" false (Dfa_oracle.accepts dfa (tr [ "a"; "b"; "a" ]))

let test_determinize_explicit_alphabet () =
  let dfa = Determinize.determinize ~alphabet:[ sym "a"; sym "b"; sym "z" ] (Nfa.symbol (sym "a")) in
  Alcotest.(check bool) "z rejected not error" false (Dfa_oracle.accepts dfa (tr [ "z" ]))

let test_dfa_complement () =
  let dfa = Dfa_oracle.complement (dfa_of ab_star) in
  Alcotest.(check bool) "empty now rejected" false (Dfa_oracle.accepts dfa []);
  Alcotest.(check bool) "aba accepted" true (Dfa_oracle.accepts dfa (tr [ "a"; "b"; "a" ]))

let test_dfa_product_ops () =
  let d1 = dfa_of (Regex.star (Regex.alt a b)) in
  let d2 =
    Determinize.determinize ~alphabet:[ sym "a"; sym "b" ] (Thompson.of_regex (Regex.star a))
  in
  let inter = Dfa_oracle.intersect d1 d2 in
  Alcotest.(check bool) "aa in both" true (Dfa_oracle.accepts inter (tr [ "a"; "a" ]));
  Alcotest.(check bool) "ab only in first" false (Dfa_oracle.accepts inter (tr [ "a"; "b" ]));
  let diff = Dfa_oracle.difference d1 d2 in
  Alcotest.(check bool) "ab in difference" true (Dfa_oracle.accepts diff (tr [ "a"; "b" ]));
  Alcotest.(check bool) "aa not in difference" false (Dfa_oracle.accepts diff (tr [ "a"; "a" ]))

let test_dfa_alphabet_mismatch_rejected () =
  let d1 = dfa_of a in
  let d2 = dfa_of b in
  Alcotest.check_raises "different alphabets"
    (Invalid_argument "Dfa: boolean operation on different alphabets") (fun () ->
      ignore (Dfa_oracle.intersect d1 d2))

let test_dfa_shortest_counterexample () =
  let impl = dfa_of (Regex.star (Regex.alt a b)) in
  let spec =
    Determinize.determinize ~alphabet:[ sym "a"; sym "b" ] (Thompson.of_regex (Regex.star a))
  in
  Alcotest.(check (option trace)) "shortest divergence" (Some (tr [ "b" ]))
    (Dfa_oracle.counterexample_inclusion impl spec)

let test_dfa_restrict_alphabet () =
  let dfa = dfa_of a in
  let wider = Dfa_oracle.restrict_alphabet ~alphabet:[ sym "a"; sym "q" ] dfa in
  Alcotest.(check bool) "a still accepted" true (Dfa_oracle.accepts wider (tr [ "a" ]));
  Alcotest.(check bool) "q rejected" false (Dfa_oracle.accepts wider (tr [ "q" ]))

(* --- Minimization --------------------------------------------------------------- *)

let test_minimize_paper_regex () =
  let dfa = dfa_of paper_regex in
  let min_h = Minimize.minimize_hopcroft dfa in
  let min_m = Minimize.minimize_moore dfa in
  Alcotest.(check bool) "equivalent to source" true (Dfa_oracle.equivalent dfa min_h);
  Alcotest.(check bool) "hopcroft = moore (isomorphic)" true (Minimize.isomorphic min_h min_m);
  Alcotest.(check bool) "no bigger than source" true
    (Dfa.num_states min_h <= States.Set.cardinal (Dfa.reachable_states dfa))

let test_minimize_collapses () =
  (* a + b over {a, b}: minimal DFA has 3 states (start, accept, sink). *)
  let dfa = dfa_of (Regex.alt a b) in
  let minimized = Minimize.minimize dfa in
  Alcotest.(check int) "three states" 3 (Dfa.num_states minimized)

let prop_minimizers_agree =
  qtest "hopcroft and moore give isomorphic DFAs" ~count:80 default_regex_gen
    ~print:regex_print (fun r ->
      let dfa = dfa_of r in
      let h = Minimize.minimize_hopcroft dfa in
      let m = Minimize.minimize_moore dfa in
      Minimize.isomorphic h m && Dfa_oracle.equivalent h dfa)

let prop_minimize_idempotent =
  qtest "minimize is idempotent" ~count:80 default_regex_gen ~print:regex_print
    (fun r ->
      let m = Minimize.minimize (dfa_of r) in
      Dfa.num_states (Minimize.minimize m) = Dfa.num_states m)

(* --- State elimination (round-trip) -------------------------------------------- *)

let test_state_elim_roundtrip_paper () =
  let nfa = Thompson.of_regex paper_regex in
  let back = State_elim.to_regex nfa in
  Alcotest.(check bool) "round-trip equivalent" true (Equiv.equivalent paper_regex back)

let prop_state_elim_roundtrip =
  qtest "regex -> NFA -> regex preserves language" ~count:60 default_regex_gen
    ~print:regex_print (fun r ->
      Equiv.equivalent r (State_elim.to_regex (Thompson.of_regex r)))

(* --- Language-level checks ------------------------------------------------------- *)

let test_language_inclusion () =
  let impl = Thompson.of_regex (Regex.star (Regex.seq a b)) in
  let spec = Thompson.of_regex (Regex.star (Regex.alt a b)) in
  Alcotest.(check bool) "(ab)* ⊆ (a+b)*" true (Language.included ~impl ~spec ());
  Alcotest.(check (option trace)) "reverse direction fails on shortest"
    (Some (tr [ "a" ]))
    (Language.inclusion_counterexample ~impl:spec ~spec:impl ())

let test_language_equivalence () =
  let n1 = Thompson.of_regex (Regex.alt a (Regex.seq a b)) in
  let n2 = Thompson.of_regex (Regex.seq a (Regex.opt b)) in
  Alcotest.(check bool) "factored form equivalent" true (Language.equivalent n1 n2)

let test_language_intersect () =
  let n1 = Thompson.of_regex (Regex.star (Regex.alt a b)) in
  let n2 = Thompson.of_regex (Regex.seq a (Regex.star b)) in
  let inter = Language.intersect n1 n2 in
  Alcotest.(check bool) "abb" true (Nfa.accepts inter (tr [ "a"; "b"; "b" ]));
  Alcotest.(check bool) "ba" false (Nfa.accepts inter (tr [ "b"; "a" ]));
  Alcotest.(check int) "no epsilons" 0 (List.length (Nfa.epsilons inter))

let prop_language_counterexample_valid =
  qtest "inclusion counterexample is real" ~count:80
    QCheck2.Gen.(pair default_regex_gen default_regex_gen)
    ~print:(fun (r1, r2) -> regex_print r1 ^ " vs " ^ regex_print r2)
    (fun (r1, r2) ->
      let impl = Thompson.of_regex r1 in
      let spec = Thompson.of_regex r2 in
      match Language.inclusion_counterexample ~impl ~spec () with
      | None -> Equiv.included r1 r2
      | Some w -> Deriv.matches r1 w && not (Deriv.matches r2 w))

let prop_dfa_nfa_agree =
  qtest "DFA and NFA accept the same bounded language" ~count:80 default_regex_gen
    ~print:regex_print (fun r ->
      let nfa = Thompson.of_regex r in
      let dfa = Determinize.determinize nfa in
      Trace.Set.equal (Nfa.words_upto ~max_len:4 nfa) (Dfa_oracle.words_upto ~max_len:4 dfa))

(* --- Step tables vs their definitions ------------------------------------------

   [Nfa.step] answers from per-state rows of ε-closed successors, built on
   first use and kept in the automaton; [Tableau.to_nfa] decomposes each
   state once and filters the result per event. Each is checked against the
   direct definition, written out here. *)

let step_alphabet = List.map sym [ "a"; "b"; "c" ]

(* A random ε-NFA and a sequence of (configuration, symbol) queries on it.
   The configurations are arbitrary state sets, mostly not ε-closed; asking
   them in sequence makes later queries hit rows that earlier ones built. *)
let eps_nfa_queries_gen =
  let open QCheck2.Gen in
  int_range 1 6 >>= fun n ->
  let state = int_range 0 (n - 1) in
  list_size (int_range 0 12) (triple state (oneofl step_alphabet) state) >>= fun transitions ->
  list_size (int_range 0 6) (pair state state) >>= fun epsilons ->
  list_size (int_range 1 2) state >>= fun start ->
  list_size (int_range 0 2) state >>= fun accept ->
  list_size (int_range 1 12) (pair (list_size (int_range 0 n) state) (oneofl step_alphabet))
  >>= fun queries -> return ((n, transitions, epsilons, start, accept), queries)

let print_eps_nfa_queries ((n, transitions, epsilons, start, accept), queries) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "%d states, start={%s}, accept={%s}, delta=[%s], eps=[%s], queries=[%s]" n
    (ints start) (ints accept)
    (String.concat "; "
       (List.map (fun (p, x, q) -> Printf.sprintf "%d-%s->%d" p (Symbol.name x) q) transitions))
    (String.concat "; " (List.map (fun (p, q) -> Printf.sprintf "%d->%d" p q) epsilons))
    (String.concat "; "
       (List.map (fun (c, x) -> Printf.sprintf "{%s}/%s" (ints c) (Symbol.name x)) queries))

let prop_step_is_closure_of_successors =
  qtest "step = closure of the union of successors" ~count:300 eps_nfa_queries_gen
    ~print:print_eps_nfa_queries
    (fun ((num_states, transitions, epsilons, start, accept), queries) ->
      let nfa = Nfa.create ~num_states ~start ~accept ~transitions ~epsilons () in
      List.for_all
        (fun (states, x) ->
          let config = States.of_list states in
          let direct =
            States.Set.fold
              (fun q acc -> States.Set.union acc (Nfa.successors nfa q x))
              config States.Set.empty
          in
          States.Set.equal (Nfa.step nfa config x) (Nfa.eps_closure nfa direct))
        queries)

module Fset = Set.Make (Ltlf)

(* The tableau's successors of an obligation set on one event, expanded for
   that event alone: a literal the event falsifies kills its branch on the
   spot, and every surviving branch yields the set of its carried
   next-obligations (with the same end-of-trace guards as the tableau). *)
let reference_successors obligations event =
  let rec go pending nexts =
    match pending with
    | [] -> [ Fset.of_list nexts ]
    | f :: rest -> (
      match (f : Ltlf.t) with
      | True -> go rest nexts
      | False -> []
      | Atom x -> if Symbol.equal x event then go rest nexts else []
      | Not (Atom x) -> if Symbol.equal x event then [] else go rest nexts
      | Next g -> go rest (Ltlf.conj (Ltlf.finally Ltlf.tt) g :: nexts)
      | Wnext g -> go rest (Ltlf.disj (Ltlf.globally Ltlf.ff) g :: nexts)
      | And (x, y) -> go (x :: y :: rest) nexts
      | Or (x, y) -> go (x :: rest) nexts @ go (y :: rest) nexts
      | Globally x -> go (x :: Ltlf.Wnext f :: rest) nexts
      | Finally x -> go (x :: rest) nexts @ go (Ltlf.Next f :: rest) nexts
      | Until (x, y) -> go (y :: rest) nexts @ go (x :: Ltlf.Next f :: rest) nexts
      | Wuntil (x, y) -> go (y :: rest) nexts @ go (x :: Ltlf.Wnext f :: rest) nexts
      | Not _ -> invalid_arg "reference_successors: not in negation normal form")
  in
  (* A set of carried obligations is a state only once: dedupe here, since
     the per-event pruning above makes no duplicate-free promise. *)
  go (Fset.elements obligations) [] |> List.sort_uniq Fset.compare

(* Breadth-first interning in the tableau's order: states in discovery
   order, events in symbol order, successors in set order. *)
let reference_tableau ~alphabet f =
  let alphabet = List.sort_uniq Symbol.compare alphabet in
  let index = Hashtbl.create 16 in
  let order = ref [] in
  let queue = Queue.create () in
  let intern s =
    let key = Fset.elements s in
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index key i;
      order := s :: !order;
      Queue.add s queue;
      i
  in
  let start = intern (Fset.singleton (Nnf.nnf f)) in
  let transitions = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.take queue in
    let src = Hashtbl.find index (Fset.elements s) in
    List.iter
      (fun event ->
        List.iter
          (fun succ -> transitions := (src, event, intern succ) :: !transitions)
          (reference_successors s event))
      alphabet
  done;
  let states = Array.of_list (List.rev !order) in
  let accept =
    List.filter
      (fun i -> Fset.for_all (fun o -> Ltlf.holds o []) states.(i))
      (List.init (Array.length states) Fun.id)
  in
  Nfa.create ~num_states:(Array.length states) ~start:[ start ] ~accept
    ~transitions:!transitions ()

let prop_tableau_matches_per_event_expansion =
  qtest "tableau = per-event expansion" ~count:300 (ltl_gen_over step_alphabet) ~print:Ltlf.to_string (fun f ->
      let got = Tableau.to_nfa ~alphabet:step_alphabet f in
      let want = reference_tableau ~alphabet:step_alphabet f in
      Nfa.num_states got = Nfa.num_states want
      && States.Set.equal (Nfa.start got) (Nfa.start want)
      && States.Set.equal (Nfa.accept got) (Nfa.accept want)
      && Nfa.transitions got = Nfa.transitions want)

(* --- Intersection product size ------------------------------------------------

   [Language.intersect] makes one state per distinct reachable pair of
   non-empty configurations. Equal state sets can be built with different
   tree shapes, so the count here compares them with [States.Set.compare]. *)

let nfa_gen =
  let open QCheck2.Gen in
  int_range 1 6 >>= fun n ->
  let state = int_range 0 (n - 1) in
  list_size (int_range 0 14) (triple state (oneofl step_alphabet) state) >>= fun transitions ->
  list_size (int_range 0 4) (pair state state) >>= fun epsilons ->
  list_size (int_range 1 2) state >>= fun start ->
  list_size (int_range 0 2) state >>= fun accept ->
  return (Nfa.create ~num_states:n ~start ~accept ~transitions ~epsilons ())

(* Accepts every trace over [step_alphabet]. *)
let universal = Nfa.universal (Symbol.Set.of_list step_alphabet)

module Config_pairs = Set.Make (struct
  type t = States.Set.t * States.Set.t

  let compare (a1, a2) (b1, b2) =
    match States.Set.compare a1 b1 with
    | 0 -> States.Set.compare a2 b2
    | c -> c
end)

let reachable_pairs n1 n2 =
  let syms = Symbol.Set.elements (Symbol.Set.inter (Nfa.alphabet n1) (Nfa.alphabet n2)) in
  let successors (c1, c2) =
    List.filter_map
      (fun x ->
        let d1 = Nfa.step n1 c1 x and d2 = Nfa.step n2 c2 x in
        if States.Set.is_empty d1 || States.Set.is_empty d2 then None else Some (d1, d2))
      syms
  in
  let rec go seen = function
    | [] -> Config_pairs.cardinal seen
    | p :: rest when Config_pairs.mem p seen -> go seen rest
    | p :: rest -> go (Config_pairs.add p seen) (successors p @ rest)
  in
  go Config_pairs.empty [ (Nfa.initial_config n1, Nfa.initial_config n2) ]

let prop_intersect_interns_each_pair_once =
  qtest "intersect: one state per distinct reachable pair" ~count:500
    QCheck2.Gen.(pair nfa_gen (oneof [ return universal; nfa_gen ]))
    ~print:(fun (n1, n2) -> Format.asprintf "%a@.and@.%a" Nfa.pp n1 Nfa.pp n2)
    (fun (n1, n2) -> Nfa.num_states (Language.intersect n1 n2) = reachable_pairs n1 n2)

(* --- Id-keyed products vs the set-keyed oracle ------------------------------------

   The products step through each automaton's configuration table and key
   on packed ints; [Automata_oracle] keeps the set-keyed searches they
   replaced. Every answer must match, whatever order the tables were
   filled in (each pair is asked several questions in a row), and the
   inclusion search, which drops successors whose implementation side is
   empty, must explore no more configurations than the oracle. The
   inclusion witness must also be the one [Dfa_oracle]'s difference of the
   two determinized automata gives. *)

let language_gen =
  QCheck2.Gen.(
    oneof
      [
        return Nfa.empty_language;
        return Nfa.eps_language;
        return universal;
        nfa_gen;
        nfa_gen;
        nfa_gen;
      ])

(* [f]'s answer and the configurations it charged to the ledger. *)
let charged f =
  let limits = Limits.make () in
  let before = Limits.snapshot limits in
  let answer = f limits in
  ( answer,
    Option.value ~default:0
      (List.assoc_opt "language-product configurations" (Limits.consumed limits ~before)) )

let same_dfa d1 d2 =
  let states = List.init (Dfa.num_states d1) Fun.id in
  Dfa.num_states d1 = Dfa.num_states d2
  && Dfa.start d1 = Dfa.start d2
  && Dfa.alphabet d1 = Dfa.alphabet d2
  && List.for_all
       (fun q ->
         Dfa.is_accept d1 q = Dfa.is_accept d2 q
         && List.for_all (fun x -> Dfa.next d1 q x = Dfa.next d2 q x) (Dfa.alphabet d1))
       states

let prop_products_match_oracle =
  qtest "id-keyed products = set-keyed oracle" ~count:500
    QCheck2.Gen.(triple language_gen language_gen bool)
    ~print:(fun (n1, n2, wide) ->
      Format.asprintf "%a@.and@.%a@.wide alphabet: %b" Nfa.pp n1 Nfa.pp n2 wide)
    (fun (n1, n2, wide) ->
      let alphabet =
        if wide then
          Some (Symbol.Set.add (sym "d") (Symbol.Set.union (Nfa.alphabet n1) (Nfa.alphabet n2)))
        else None
      in
      let incl, configs =
        charged (fun limits -> Language.inclusion_counterexample ~limits ?alphabet ~impl:n1 ~spec:n2 ())
      in
      let oracle_incl, oracle_configs =
        Automata_oracle.inclusion_counterexample ?alphabet ~impl:n1 ~spec:n2 ()
      in
      let equiv, equiv_configs =
        charged (fun limits -> Language.equivalence_counterexample ~limits n1 n2)
      in
      let oracle_equiv, oracle_equiv_configs = Automata_oracle.equivalence_counterexample n1 n2 in
      (* The same inclusion question over the two complete DFAs. *)
      let common =
        Symbol.Set.elements
          (Option.value alphabet ~default:(Symbol.Set.union (Nfa.alphabet n1) (Nfa.alphabet n2)))
      in
      let d1 = Determinize.determinize ~alphabet:common n1 in
      let d2 = Determinize.determinize ~alphabet:common n2 in
      incl = oracle_incl
      && Dfa_oracle.counterexample_inclusion d1 d2 = incl
      && Nfa.shortest_accepted (Dfa_oracle.to_nfa (Dfa_oracle.difference d1 d2)) = incl
      && Dfa_oracle.is_empty (Dfa_oracle.intersect d1 (Dfa_oracle.complement d2))
         = Option.is_none incl
      && configs <= oracle_configs
      && Language.included ?alphabet ~impl:n1 ~spec:n2 () = Option.is_none oracle_incl
      && equiv = oracle_equiv
      && equiv_configs = oracle_equiv_configs
      && Language.equivalent n1 n2 = Option.is_none oracle_equiv
      && same_dfa (Determinize.determinize n1) (Automata_oracle.determinize n1)
      && same_dfa
           (Determinize.determinize ~alphabet:(step_alphabet @ [ sym "d" ]) n2)
           (Automata_oracle.determinize ~alphabet:(step_alphabet @ [ sym "d" ]) n2)
      && Nfa.shortest_accepted n2
         = Nfa.shortest_accepted (Dfa_oracle.to_nfa (Automata_oracle.determinize n2)))

(* --- The exploration kernel ------------------------------------------------------ *)

let int_key : int Explore.key =
  (module struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

(* A chain 0 -> 1 -> ... -> n-1. *)
let chain n k emit = if k < n - 1 then emit () (k + 1)

let test_explore_fuel_per_key () =
  let run budget =
    Explore.graph int_key ~fuel:(Limits.fuel ~resource:"widgets" budget) ~start:0
      ~step:(chain 10) ()
  in
  Alcotest.(check int) "a budget of n keys suffices" 10 (Array.length (run 10).keys);
  match run 9 with
  | _ -> Alcotest.fail "expected n-1 to run out"
  | exception Limits.Budget_exceeded { resource; limit } ->
    Alcotest.(check string) "the caller's resource" "widgets" resource;
    Alcotest.(check int) "the caller's limit" 9 limit

let test_explore_discovery_order () =
  (* Children emitted right first: ids follow emission, not key order. *)
  let g =
    Explore.graph int_key ~start:0
      ~step:(fun k emit ->
        if (2 * k) + 2 < 7 then begin
          emit "r" ((2 * k) + 2);
          emit "l" ((2 * k) + 1)
        end)
      ()
  in
  Alcotest.(check (array int)) "keys in discovery order" [| 0; 2; 1; 6; 5; 4; 3 |] g.keys;
  Alcotest.(check (list (pair string int))) "edges of the start, as emitted"
    [ ("r", 1); ("l", 2) ]
    g.succs.(0)

let test_explore_shortlex_witness () =
  (* Two bad traces of length two, [b; a] and [a; b]; symbols emitted in
     order. *)
  let edges = function
    | "s" -> [ ("a", "y"); ("b", "x") ]
    | "x" -> [ ("a", "bad1") ]
    | "y" -> [ ("b", "bad2") ]
    | _ -> []
  in
  let search test =
    Explore.witness
      (module String : Explore.KEY with type t = string)
      ~test
      ~goal:(fun k -> String.length k > 3)
      ~start:"s"
      ~step:(fun k emit -> List.iter (fun (l, k') -> emit l k') (edges k))
      ()
  in
  Alcotest.(check (option (list string))) "on dequeue" (Some [ "a"; "b" ])
    (search Explore.On_dequeue);
  Alcotest.(check (option (list string))) "on discovery" (Some [ "a"; "b" ])
    (search Explore.On_discovery)

let test_explore_memo_hits () =
  (* A diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. Key 3 is reached twice. *)
  let counts = Explore.counts () in
  let g =
    Explore.graph int_key ~counts ~fuel:(Limits.fuel ~resource:"diamond" 4) ~start:0
      ~step:(fun k emit ->
        match k with
        | 0 -> emit () 1; emit () 2
        | 1 | 2 -> emit () 3
        | _ -> ())
      ()
  in
  Alcotest.(check int) "states" 4 counts.states;
  Alcotest.(check int) "memo hits" 1 counts.memo_hits;
  Alcotest.(check int) "graph size" 4 (Array.length g.keys);
  Alcotest.(check (list int)) "both edges land on one id" [ 3; 3 ]
    (List.map snd (g.succs.(1) @ g.succs.(2)))

(* --- Array constructions = list constructions ----------------------------------

   Every automaton the library builds comes straight out of edge arrays.
   {!Automata_oracle} keeps the constructions as they were, over automata
   held as lists, each result one [create_ref] from transition,
   ε-transition and label lists; the two must build the same automaton,
   field by field. Operands are random ε-NFAs over random sub-alphabets of
   five symbols (so alphabets overlap, are disjoint or are empty), with
   shuffled and duplicated transitions, labels on some states, and results
   fed back in as operands. Each operand is built twice from the same
   lists: by {!Nfa.create} for the array side and by [create_ref] for the
   oracle. *)

let pool = List.map sym [ "a"; "b"; "c"; "d"; "e" ]

type raw = {
  n : int;
  start : int list;
  accept : int list;
  transitions : (int * Symbol.t * int) list;
  epsilons : (int * int) list;
  labels : (int * string) list;
}

let show_raw r =
  Printf.sprintf "n=%d start=[%s] accept=[%s] transitions=[%s] epsilons=[%s] labels=[%s]" r.n
    (String.concat ";" (List.map string_of_int r.start))
    (String.concat ";" (List.map string_of_int r.accept))
    (String.concat ";" (List.map (fun (p, s, q) -> Printf.sprintf "%d-%s-%d" p (Symbol.name s) q) r.transitions))
    (String.concat ";" (List.map (fun (p, q) -> Printf.sprintf "%d-%d" p q) r.epsilons))
    (String.concat ";" (List.map (fun (q, l) -> Printf.sprintf "%d:%s" q l) r.labels))

let sub_alphabet_gen =
  QCheck2.Gen.(map (List.sort_uniq Symbol.compare) (list_size (int_range 0 5) (oneofl pool)))

(* Transitions and ε-edges in random order, some of them repeated. *)
let raw_gen =
  let open QCheck2.Gen in
  let with_repeats l =
    if l = [] then return l
    else
      let* again = list_size (int_range 0 4) (oneofl l) in
      shuffle_l (l @ again)
  in
  let* n = int_range 1 6 in
  let* alphabet = sub_alphabet_gen in
  let state = int_range 0 (n - 1) in
  let* transitions =
    if alphabet = [] then return []
    else list_size (int_range 0 14) (triple state (oneofl alphabet) state) >>= with_repeats
  in
  let* epsilons =
    frequency [ (1, return []); (2, list_size (int_range 1 4) (pair state state) >>= with_repeats) ]
  in
  let* start = list_size (int_range 0 2) state in
  let* accept = list_size (int_range 0 3) state in
  let* labels = list_size (int_range 0 3) (pair state (oneofl [ "x"; "y"; "z" ])) in
  return { n; start; accept; transitions; epsilons; labels }

let nfa_of r =
  Nfa.create ~labels:r.labels ~num_states:r.n ~start:r.start ~accept:r.accept ~transitions:r.transitions
    ~epsilons:r.epsilons ()

let ref_of r =
  Automata_oracle.create_ref ~labels:r.labels ~num_states:r.n ~start:r.start ~accept:r.accept
    ~transitions:r.transitions ~epsilons:r.epsilons ()

(* The builder fed directly: states in two blocks, ε-edges and labels
   interleaved with the edges. *)
let built_of r =
  let b = Nfa.Builder.create () in
  let first = Nfa.Builder.add_states b (r.n / 2) in
  let second = Nfa.Builder.add_states b (r.n - (r.n / 2)) in
  assert (first = 0 && second = r.n / 2 && Nfa.Builder.num_states b = r.n);
  List.iter (fun (q, l) -> Nfa.Builder.label b q l) r.labels;
  let rec feed ts es =
    match (ts, es) with
    | [], [] -> ()
    | (p, s, q) :: ts, _ ->
      Nfa.Builder.edge b p s q;
      (match es with (p, q) :: es -> Nfa.Builder.epsilon b p q; feed ts es | [] -> feed ts [])
    | [], (p, q) :: es ->
      Nfa.Builder.epsilon b p q;
      feed [] es
  in
  feed r.transitions r.epsilons;
  Nfa.Builder.finish b ~start:r.start ~accept:r.accept

let prop_builder_matches_create_ref =
  qtest "Builder.finish = create_ref" ~count:1000 raw_gen ~print:show_raw (fun r ->
      let want = ref_of r in
      Automata_oracle.matches (built_of r) want && Automata_oracle.matches (nfa_of r) want)

let labelled_gen = QCheck2.Gen.map (fun r -> (nfa_of r, ref_of r)) raw_gen
let show_pair (_, o) = Format.asprintf "%a" Automata_oracle.pp o

(* A symbol map that renames, merges and erases. *)
let symbol_map_gen =
  let open QCheck2.Gen in
  map
    (fun choices sym -> List.assoc sym choices)
    (flatten_l
       (List.map
          (fun x ->
            map
              (fun choice -> (x, choice))
              (frequency [ (2, return (Some x)); (2, map Option.some (oneofl pool)); (1, return None) ]))
          pool))

(* An explored graph whose labels index a sorted alphabet, duplicate and
   unsorted edges included. *)
let indexed_graph_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* alphabet = sub_alphabet_gen in
  let symbols = Nfa.sort_symbols (Array.of_list alphabet) in
  let* succs =
    if alphabet = [] then return (Array.make n [])
    else
      map Array.of_list
        (list_repeat n
           (list_size (int_range 0 4) (pair (int_range 0 (Array.length symbols - 1)) (int_range 0 (n - 1)))))
  in
  let* accepting = list_repeat n bool in
  return (symbols, { Explore.keys = Array.of_list accepting; succs })

let constructions_gen =
  QCheck2.Gen.(
    map
      (fun ((a, b), (rename, loops, graph)) -> (a, b, rename, loops, graph))
      (pair (pair labelled_gen labelled_gen) (triple symbol_map_gen sub_alphabet_gen indexed_graph_gen)))

let prop_constructions_match_oracle =
  qtest "array constructions = list oracle" ~count:500 constructions_gen
    ~print:(fun (x, y, _, loops, _) ->
      Printf.sprintf "A = %s\nB = %s\nloops = %s" (show_pair x) (show_pair y)
        (String.concat "," (List.map Symbol.name loops)))
    (fun ((x, ox), (y, oy), rename, loops, (symbols, graph)) ->
      let module O = Automata_oracle in
      let loops = Symbol.Set.of_list loops in
      let even s = if Symbol.to_int s mod 2 = 0 then Some s else None in
      let both = O.matches in
      let u = Nfa.union x y and k = Nfa.concat x y and s = Nfa.star x in
      let ou = O.union ox oy and ok = O.concat ox oy and os = O.star ox in
      both u ou && both k ok && both s os
      && both (Nfa.map_symbols rename x) (O.map_symbols rename ox)
      && both (Nfa.map_symbols even k) (O.map_symbols even ok)
      && both (Nfa.universal loops) (O.universal loops)
      && both (Nfa.add_self_loops loops x) (O.add_self_loops loops ox)
      && both (Nfa.add_self_loops loops s) (O.add_self_loops loops os)
      && both (Nfa.reverse k) (O.reverse ok)
      && both (Nfa.trim x) (O.trim ox)
      && both (Nfa.trim k) (O.trim ok)
      && both (Nfa.star (Nfa.union s k)) (O.star (O.union os ok))
      && both (Nfa.concat (Nfa.map_symbols rename s) u) (O.concat (O.map_symbols rename os) ou)
      && both (Nfa.of_graph ~symbols ~accepting:Fun.id graph) (O.of_graph ~symbols ~accepting:Fun.id graph))

let prop_live_symbols =
  qtest "live_symbols = alphabet of trim" ~count:500
    QCheck2.Gen.(pair labelled_gen labelled_gen)
    ~print:(fun (x, y) -> show_pair x ^ "\n" ^ show_pair y)
    (fun ((x, ox), (y, oy)) ->
      let module O = Automata_oracle in
      List.for_all
        (fun (nfa, o) ->
          Symbol.Set.equal (Nfa.live_symbols nfa) (Nfa.alphabet (Nfa.trim nfa))
          && Symbol.Set.equal (Nfa.live_symbols nfa) (O.trim o).alphabet)
        [ (x, ox); (y, oy); (Nfa.concat x y, O.concat ox oy); (Nfa.star x, O.star ox); (Nfa.union x y, O.union ox oy) ])

let prop_glushkov_matches_oracle =
  qtest "glushkov = list oracle" ~count:300 default_regex_shuffle_gen ~print:regex_print (fun r ->
      Automata_oracle.matches (Glushkov.of_regex r) (Automata_oracle.glushkov r)
      && ((not (Regex.shuffle_free r))
         || Automata_oracle.matches (Glushkov.of_regex_classic r) (Automata_oracle.glushkov_classic r)))

(* The class expansion, full and per field, over random async composites:
   each body's automaton is copied in, and a projection erases as it
   copies. Its boundary states carry no labels, so a projection is
   compared without them and must have none. *)
let prop_expansion_matches_oracle =
  qtest "class expansion = list oracle" ~count:200 async_composite_gen
    ~print:(fun m -> Format.asprintf "%a" Model.pp m)
    (fun model ->
      Automata_oracle.matches (Usage.expanded_nfa model) (Automata_oracle.expanded_nfa model)
      && List.for_all
           (fun field ->
             let got = Usage.projected_nfa model ~field in
             Automata_oracle.matches ~labels:false got (Automata_oracle.projected_nfa model ~field)
             && List.for_all (fun q -> Nfa.label got q = None) (List.init (Nfa.num_states got) Fun.id))
           model.Model.declared_subsystems)

let () =
  Alcotest.run "automata"
    [
      ( "nfa",
        [
          Alcotest.test_case "symbol" `Quick test_nfa_symbol;
          Alcotest.test_case "eps closure" `Quick test_nfa_eps_closure;
          Alcotest.test_case "eps cycle" `Quick test_nfa_eps_cycle;
          Alcotest.test_case "union" `Quick test_nfa_union;
          Alcotest.test_case "concat" `Quick test_nfa_concat;
          Alcotest.test_case "star" `Quick test_nfa_star;
          Alcotest.test_case "shortest accepted" `Quick test_nfa_shortest;
          Alcotest.test_case "shortest with states" `Quick test_nfa_shortest_with_states;
          Alcotest.test_case "projection" `Quick test_nfa_map_symbols_projection;
          Alcotest.test_case "self loops" `Quick test_nfa_self_loops;
          Alcotest.test_case "trim" `Quick test_nfa_trim;
          Alcotest.test_case "trim empty" `Quick test_nfa_trim_empty;
          Alcotest.test_case "reverse" `Quick test_nfa_reverse;
        ] );
      ( "constructions",
        [
          Alcotest.test_case "paper regex" `Quick test_constructions_on_paper_regex;
          Alcotest.test_case "glushkov eps-free" `Quick test_glushkov_eps_free;
          prop_constructions_agree;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "determinize preserves" `Quick test_determinize_preserves;
          Alcotest.test_case "explicit alphabet" `Quick test_determinize_explicit_alphabet;
          Alcotest.test_case "complement" `Quick test_dfa_complement;
          Alcotest.test_case "product ops" `Quick test_dfa_product_ops;
          Alcotest.test_case "alphabet mismatch" `Quick test_dfa_alphabet_mismatch_rejected;
          Alcotest.test_case "shortest counterexample" `Quick test_dfa_shortest_counterexample;
          Alcotest.test_case "restrict alphabet" `Quick test_dfa_restrict_alphabet;
          prop_dfa_nfa_agree;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "paper regex" `Quick test_minimize_paper_regex;
          Alcotest.test_case "collapses" `Quick test_minimize_collapses;
          prop_minimizers_agree;
          prop_minimize_idempotent;
        ] );
      ( "state-elim",
        [
          Alcotest.test_case "paper round-trip" `Quick test_state_elim_roundtrip_paper;
          prop_state_elim_roundtrip;
        ] );
      ( "language",
        [
          Alcotest.test_case "inclusion" `Quick test_language_inclusion;
          Alcotest.test_case "equivalence" `Quick test_language_equivalence;
          Alcotest.test_case "intersect" `Quick test_language_intersect;
          prop_language_counterexample_valid;
        ] );
      ( "step tables",
        [ prop_step_is_closure_of_successors; prop_tableau_matches_per_event_expansion ] );
      ("intersect", [ prop_intersect_interns_each_pair_once ]);
      ("products", [ prop_products_match_oracle ]);
      ( "arrays",
        [
          prop_builder_matches_create_ref;
          prop_constructions_match_oracle;
          prop_live_symbols;
          prop_glushkov_matches_oracle;
          prop_expansion_matches_oracle;
        ] );
      ( "explore",
        [
          Alcotest.test_case "fuel charged once per key" `Quick test_explore_fuel_per_key;
          Alcotest.test_case "ids in discovery order" `Quick test_explore_discovery_order;
          Alcotest.test_case "shortlex-least witness" `Quick test_explore_shortlex_witness;
          Alcotest.test_case "rediscovery is a memo hit" `Quick test_explore_memo_hits;
        ] );
    ]
