(* Per-construction benchmark: one row per reachable-configuration
   exploration in the automata, LTL and regex layers, on fixed inputs —

     determinize       subset construction of a chain composite's expanded NFA
     language product  equivalence check of that NFA against its own DFA
                       (equal languages, so the whole product is explored)
     intersect         product NFA of the same pair
     shuffle product   k two-step tasks interleaved (3^k configurations)
     progression       LTLf progression DFA of a claim conjunction
     tableau           tableau NFA of the same claim conjunction
     entail product    an entailed claim over the chain composite (no
                       counterexample, so the product is explored in full)
     derivative closure  Brzozowski derivatives of a shuffle of stars

   Each row records the median wall time over repeated runs and the number
   of states/configurations the construction interned. The counts come from
   the fuel each construction charges under its own resource name (one unit
   per new configuration), read back from the budget's ledger; the
   derivative closure is unbudgeted and counts its result instead. The
   inputs do not depend on the mode, so the counts are the same in smoke
   and full runs; --smoke only takes fewer timing samples.

   Emits BENCH_automata.json and a human summary.

   Run: dune exec bench/bench_automata.exe [--smoke] *)

let smoke = Array.exists (String.equal "--smoke") Sys.argv
let reps = if smoke then 3 else 31
let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let median_ms f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Clock.now () in
        ignore (Sys.opaque_identity (f ()));
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

type row = { name : string; input : string; ms : float; count : int }

let row name input ~resource f =
  { name; input; ms = median_ms (fun () -> f (Limits.make ())); count = interned resource f }

(* --- Fixed inputs -------------------------------------------------------------- *)

let chain_ops = 24

let chain =
  let result = Pipeline.verify_source_exn (Sources.valve ^ Sources.chain_composite chain_ops) in
  Usage.expanded_nfa (Option.get (Pipeline.find_model result "Chain"))

let chain_dfa = Dfa.to_nfa (Determinize.determinize chain)
let tasks = 7

let task_nfas =
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
        ~resource:"determinization states" (fun limits ->
          Determinize.determinize ~limits chain);
      row "language product" (Printf.sprintf "chain_composite %d vs its DFA" chain_ops)
        ~resource:"language-product configurations" (fun limits ->
          match Language.equivalence_counterexample ~limits chain chain_dfa with
          | None -> ()
          | Some _ -> die "language product: an NFA and its DFA disagree");
      row "intersect" (Printf.sprintf "chain_composite %d x its DFA" chain_ops)
        ~resource:"intersection-product configurations" (fun limits ->
          Language.intersect ~limits chain chain_dfa);
      row "shuffle product" (Printf.sprintf "%d two-step tasks" tasks)
        ~resource:"shuffle-product configurations" (fun limits ->
          Shuffle_nfa.product ~limits task_nfas);
      row "progression" "4-claim conjunction, 4 events" ~resource:"progression obligations"
        (fun limits -> Progression.to_dfa ~limits ~alphabet:claim_alphabet claim);
      row "tableau" "4-claim conjunction, 4 events" ~resource:"tableau states" (fun limits ->
          Tableau.to_nfa ~limits ~alphabet:claim_alphabet claim);
      row "entail product" (Printf.sprintf "chain_composite %d, entailed claim" chain_ops)
        ~resource:"entailment configurations" (fun limits ->
          match
            Entail.implies (Entail.session ~limits ~impl:chain ()) ~hyps:entail_hyps entail_goal
          with
          | Entail.Entailed -> ()
          | v -> die "entail product: expected entailed, got %a" Entail.pp_verdict v);
      (let closure () = Deriv.derivative_closure deriv_input in
       {
         name = "derivative closure";
         input = Printf.sprintf "shuffle of %d starred pairs" deriv_width;
         ms = median_ms closure;
         count = List.length (closure ());
       });
    ]
  in
  Printf.printf "  %-20s %-36s %10s %10s\n" "construction" "input" "states" "ms";
  List.iter
    (fun r -> Printf.printf "  %-20s %-36s %10d %10.3f\n" r.name r.input r.count r.ms)
    rows;
  let row r =
    Jsonl.(Obj [ ("construction", Str r.name); ("input", Str r.input); ("states", int r.count);
                 ("ms", Bench_json.fixed 3 r.ms) ])
  in
  Bench_json.write "BENCH_automata.json"
    Jsonl.(Obj [ ("benchmark", Str "automata"); ("reps", int reps);
                 ("rows", Arr (List.map row rows)) ]);
  Printf.printf "\nwrote BENCH_automata.json\n"
