(* Per-construction benchmark: one row per reachable-configuration
   exploration in the automata, LTL and regex layers, on fixed inputs —

     determinize       subset construction of a chain composite's expanded NFA
     language product  equivalence check of that NFA against its own DFA
                       (equal languages, so the whole product is explored)
     intersect         product NFA of the same pair
     lifted inclusion  SY112's search: a shuffle expansion against a
                       subsystem protocol lifted to its 37 symbols (safe,
                       so the whole product is explored)
     shuffle product   k two-step tasks interleaved (3^k configurations)
     progression       LTLf progression DFA of a claim conjunction
     tableau           tableau NFA of the same claim conjunction
     entail product    an entailed claim over the chain composite (no
                       counterexample, so the product is explored in full)
     derivative closure  Brzozowski derivatives of a shuffle of stars

   and one row per construction of an automaton the check and lint paths
   build, each recording its states and edges (ε-edges included) and its
   median time:

     class expansion      Usage.expanded_nfa of the chain composite
     gather expansion     the same of a composite whose one operation
                          gathers 7 valve calls twice (two 7-task shuffles)
     projected expansion  Usage.projected_nfa of the chain composite on
                          its valve field

   Each row records the median wall time over repeated runs and the number
   of states/configurations the construction interned. Every run gets its
   automata built afresh, untimed, so it starts from empty configuration
   tables. The counts come from the fuel each construction charges under
   its own resource name (one unit per new configuration), read back from
   the budget's ledger; the derivative closure is unbudgeted and counts
   its result instead. The
   inputs do not depend on the mode, so the counts are the same in smoke
   and full runs; --smoke takes fewer timing samples, and fails when a
   row's count (and a construction row's edge count) differs from the
   tracked BENCH_automata.json (counts do not depend on the host).

   Emits BENCH_automata.json and a human summary.

   Run: dune exec bench/bench_automata.exe [--smoke] *)

let smoke = Array.exists (String.equal "--smoke") Sys.argv
let reps = if smoke then 3 else 31
let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

(* Each sample times [f] on inputs [fresh] built outside the timed
   region: an automaton keeps the configuration table its searches fill,
   so a sample on a reused automaton would time table reads only. *)
let median_ms ~fresh f =
  let samples =
    List.init reps (fun _ ->
        let x = fresh () in
        let t0 = Clock.now () in
        ignore (Sys.opaque_identity (f x));
        (Clock.now () -. t0) *. 1000.)
    |> List.sort Float.compare
  in
  List.nth samples (reps / 2)

(* Fuel one run of [f] charges under [resource]. *)
let interned resource f =
  let limits = Limits.make () in
  let before = Limits.snapshot limits in
  ignore (f limits);
  Option.value ~default:0 (List.assoc_opt resource (Limits.consumed limits ~before))

type row = { name : string; input : string; ms : float; count : int; edges : int option }

let row name input ~resource ~fresh f =
  {
    name;
    input;
    ms = median_ms ~fresh (fun x -> f (Limits.make ()) x);
    count = interned resource (fun limits -> f limits (fresh ()));
    edges = None;
  }

(* A construction row: the automaton [build] makes, its size, and the
   median time to make it. *)
let construction name input build =
  let states, edges = Nfa.count_states_and_transitions (build ()) in
  { name; input; ms = median_ms ~fresh:ignore build; count = states; edges = Some edges }

(* --- Fixed inputs -------------------------------------------------------------- *)

let chain_ops = 24

let chain_model =
  let result = Pipeline.verify_source_exn (Sources.valve ^ Synthetic.chain_composite chain_ops) in
  Option.get (Pipeline.find_model result.Pipeline.models "Chain")

let chain () = Usage.expanded_nfa chain_model

let gather_tasks = 7

let gather_model =
  let result = Pipeline.verify_source_exn (Sources.valve ^ Synthetic.gather_composite gather_tasks) in
  Option.get (Pipeline.find_model result.Pipeline.models "Bank")

(* The chain and its DFA, each with an empty configuration table. *)
let chain_pair () = (chain (), Dfa_oracle.to_nfa (Determinize.determinize (chain ())))

let tasks = 7

let task_nfas () =
  List.init tasks (fun i ->
      let s fmt = Printf.ksprintf Regex.sym_of_name fmt in
      Glushkov.of_regex (Regex.seq (s "a%d" i) (s "b%d" i)))

let claim_alphabet = List.map Symbol.intern [ "a.open"; "a.close"; "b.open"; "b.close" ]

let claim =
  Ltl_parser.parse
    "G (a.open -> X ((!b.open) U a.close)) && F a.open && F b.open && (!b.open) W a.close"

let entail_hyps = [ Ltl_parser.parse "G (v.open -> X v.close)" ]
let entail_goal = Ltl_parser.parse "G (v.open -> F v.close)"

let deriv_width = 6

(* step0 … step19, then log.begin, five tasks v_i.test · v_i.open ·
   v_i.close forked together, and log.end: the tasks never touch the log,
   so the shuffle is safe, and the search explores every interleaving
   (4^5 positions) against the log protocol (log.begin · log.end)* lifted
   with self-loops on the other 35 symbols. *)
let lifted_tasks = 5

let lifted () =
  let s name = Regex.sym_of_name name in
  let task i =
    Regex.seq_list (List.map (fun op -> s (Printf.sprintf "v%d.%s" i op)) [ "test"; "open"; "close" ])
  in
  let impl =
    Glushkov.of_regex
      (Regex.seq_list
         (List.init 20 (fun i -> s (Printf.sprintf "step%d" i))
         @ [ s "log.begin"; Regex.shuffle_list (List.init lifted_tasks task); s "log.end" ]))
  in
  let protocol = Glushkov.of_regex (Regex.star (Regex.seq (s "log.begin") (s "log.end"))) in
  let alphabet = Symbol.Set.union (Nfa.alphabet impl) (Nfa.alphabet protocol) in
  let others = Symbol.Set.diff alphabet (Nfa.alphabet protocol) in
  (impl, Nfa.add_self_loops others protocol, alphabet)

let lifted_symbols =
  let _, _, alphabet = lifted () in
  Symbol.Set.cardinal alphabet

(* (c_0 d_0)* ∥ … ∥ (c_5 d_5)*: each component is either between pairs or
   inside one, so 2^6 derivatives. *)
let deriv_input =
  let s fmt = Printf.ksprintf Regex.sym_of_name fmt in
  Regex.shuffle_list
    (List.init deriv_width (fun i -> Regex.star (Regex.seq (s "c%d" i) (s "d%d" i))))

let () =
  Printf.printf "automata: per-construction exploration%s\n\n"
    (if smoke then " [smoke]" else "");
  let rows =
    [
      row "determinize" (Printf.sprintf "chain_composite %d" chain_ops)
        ~resource:"determinization states" ~fresh:chain (fun limits nfa ->
          Determinize.determinize ~limits nfa);
      row "language product" (Printf.sprintf "chain_composite %d vs its DFA" chain_ops)
        ~resource:"language-product configurations" ~fresh:chain_pair (fun limits (nfa, dfa) ->
          match Language.equivalence_counterexample ~limits nfa dfa with
          | None -> ()
          | Some _ -> die "language product: an NFA and its DFA disagree");
      row "intersect" (Printf.sprintf "chain_composite %d x its DFA" chain_ops)
        ~resource:"intersection-product configurations" ~fresh:chain_pair
        (fun limits (nfa, dfa) -> Language.intersect ~limits nfa dfa);
      row "lifted inclusion"
        (Printf.sprintf "%d-task shuffle vs lifted protocol, %d symbols" lifted_tasks
           lifted_symbols)
        ~resource:"language-product configurations" ~fresh:lifted
        (fun limits (impl, spec, alphabet) ->
          match Language.inclusion_counterexample ~limits ~alphabet ~impl ~spec () with
          | None -> ()
          | Some _ -> die "lifted inclusion: the safe shuffle has a counterexample");
      row "shuffle product" (Printf.sprintf "%d two-step tasks" tasks)
        ~resource:"shuffle-product configurations" ~fresh:task_nfas (fun limits nfas ->
          Shuffle_nfa.product ~limits nfas);
      row "progression" "4-claim conjunction, 4 events" ~resource:"progression obligations"
        ~fresh:ignore (fun limits () -> Progression.to_dfa ~limits ~alphabet:claim_alphabet claim);
      row "tableau" "4-claim conjunction, 4 events" ~resource:"tableau states" ~fresh:ignore
        (fun limits () -> Tableau.to_nfa ~limits ~alphabet:claim_alphabet claim);
      row "entail product" (Printf.sprintf "chain_composite %d, entailed claim" chain_ops)
        ~resource:"entailment configurations" ~fresh:chain (fun limits nfa ->
          match
            Entail.implies (Entail.session ~limits ~impl:nfa ()) ~hyps:entail_hyps entail_goal
          with
          | Entail.Entailed -> ()
          | v -> die "entail product: expected entailed, got %a" Entail.pp_verdict v);
      (let closure () = Deriv.derivative_closure deriv_input in
       {
         name = "derivative closure";
         input = Printf.sprintf "shuffle of %d starred pairs" deriv_width;
         ms = median_ms ~fresh:ignore closure;
         count = List.length (closure ());
         edges = None;
       });
      construction "class expansion" (Printf.sprintf "chain_composite %d" chain_ops) chain;
      construction "gather expansion"
        (Printf.sprintf "%d-task gather composite" gather_tasks)
        (fun () -> Usage.expanded_nfa gather_model);
      construction "projected expansion"
        (Printf.sprintf "chain_composite %d on v" chain_ops)
        (fun () -> Usage.projected_nfa chain_model ~field:"v");
    ]
  in
  Printf.printf "  %-20s %-36s %10s %10s %10s\n" "construction" "input" "states" "edges" "ms";
  List.iter
    (fun r ->
      Printf.printf "  %-20s %-36s %10d %10s %10.3f\n" r.name r.input r.count
        (match r.edges with Some e -> string_of_int e | None -> "")
        r.ms)
    rows;
  (* The smoke gate: every row's count must equal the tracked file's,
     read before this run overwrites it. *)
  if smoke then begin
    let tracked =
      match Jsonl.parse (In_channel.with_open_bin "BENCH_automata.json" In_channel.input_all) with
      | Ok j -> Option.value ~default:[] (Option.bind (Jsonl.member "rows" j) Jsonl.to_list)
      | Error msg -> die "FAIL: BENCH_automata.json does not parse: %s" msg
      | exception Sys_error msg -> die "FAIL: no tracked BENCH_automata.json: %s" msg
    in
    let tracked_row name =
      List.find_opt (fun r -> Jsonl.mem_str "construction" r = Some name) tracked
    in
    List.iter
      (fun r ->
        match tracked_row r.name with
        | None -> die "FAIL: %s has no row in the tracked BENCH_automata.json" r.name
        | Some t -> (
          (match Jsonl.mem_int "states" t with
          | Some n when n = r.count -> ()
          | n ->
            die "FAIL: %s interned %d states, the tracked file says %s" r.name r.count
              (Option.fold ~none:"none" ~some:string_of_int n));
          match r.edges with
          | None -> ()
          | Some e -> (
            match Jsonl.mem_int "edges" t with
            | Some n when n = e -> ()
            | n ->
              die "FAIL: %s built %d edges, the tracked file says %s" r.name e
                (Option.fold ~none:"none" ~some:string_of_int n))))
      rows
  end;
  let row r =
    let edges = match r.edges with Some e -> [ ("edges", Jsonl.int e) ] | None -> [] in
    Jsonl.Obj
      ([ ("construction", Jsonl.Str r.name); ("input", Jsonl.Str r.input); ("states", Jsonl.int r.count) ]
      @ edges
      @ [ ("ms", Bench_json.fixed 3 r.ms) ])
  in
  Bench_json.write "BENCH_automata.json"
    Jsonl.(Obj [ ("benchmark", Str "automata"); ("reps", int reps);
                 ("rows", Arr (List.map row rows)) ]);
  Printf.printf "\nwrote BENCH_automata.json\n"
