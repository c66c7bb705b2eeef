(* Shuffle benchmark: the on-the-fly product ([Shuffle_nfa] via
   [Glushkov.of_regex]) vs the eager interleaving expansion
   ([Interleave.expand] + the classic position construction), over the
   k-task family

     r_k  =  (a_1 · b_1) ∥ (a_2 · b_2) ∥ … ∥ (a_k · b_k)

   — k two-step protocols running concurrently, the automaton shape behind
   every [create_task]/[gather] lowering. All 2k symbols are distinct, so
   the expansion is an alternation of exactly (2k)!/2^k literal words
   (multinomial schedules), while the reachable product configurations
   number 3^k (each branch is before/between/after its two steps). Both
   are exponential, but 3^k loses to (2k)!/2^k by a factorial margin: the
   expansion is over a 50k-alternative budget from k = 5, where the
   product still has 243 configurations.

   Emits BENCH_shuffle.json and a human summary. Full mode enforces the
   acceptance criteria: the expansion must blow its budget on at least one
   instance, and the product must stay definitive (build within limits) on
   at least [definitive_floor] of those instances. Small instances are
   differentially checked: both automata must accept exactly the same
   words up to length 2k.

   A second family, distinct subsystems, times [Usage.check] on the
   composite

     k sequential [vI.open()] calls, then k spawned [vI.close()] tasks,

   over k distinct [Valve] fields. Its behavior is
   [v1.open · … · vk.open · (v1.close ∥ … ∥ vk.close)]. The unprojected
   search (one full expansion, then each field's spec lifted over every
   other symbol) walks the whole k-way shuffle once per field. The
   projected check ([Usage.check]) erases the other fields first, so each
   field sees a single task and no shuffle product at all. Both must give
   the same verdict. In both modes the run fails unless the projected
   configurations (language plus shuffle product) grow at most linearly
   in k: counts, not times, so the floor holds on any host.

   Run: dune exec bench/bench_shuffle.exe [--smoke] *)

let smoke = Array.exists (String.equal "--smoke") Sys.argv
let definitive_floor = 0.90

(* Alternatives the eager expansion may enumerate; (2k)!/2^k crosses this
   between k = 4 (2 520) and k = 5 (113 400). *)
let expand_budget = 50_000

(* Product-side budget: generous — 3^k configurations stays under it
   through k = 9. *)
let limits = Limits.make ~max_configs:30_000 ()
let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt
let sym fmt = Printf.ksprintf Symbol.intern fmt

let task i = Regex.seq (Regex.sym (sym "a%d" i)) (Regex.sym (sym "b%d" i))

let family k =
  let rec go i = if i = k then task i else Regex.shuffle (task i) (go (i + 1)) in
  go 1

(* (2k)!/2^k: the number of schedules of k two-step tasks, hence the
   number of alternatives [Interleave.expand] must write out. *)
let schedules k =
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  fact (2 * k) / (1 lsl k)

let timed f =
  let t0 = Clock.now () in
  let x = f () in
  (x, (Clock.now () -. t0) *. 1000.)

type leg = Built of { states : int; ms : float } | Budget of { needed : int }

type row = { k : int; fly : leg; expansion : leg; checked : bool }

let leg_states = function Built b -> Some b.states | Budget _ -> None

let run_instance k =
  let r = family k in
  let max_len = 2 * k in
  let fly =
    match timed (fun () -> Glushkov.of_regex ~limits r) with
    | nfa, ms -> Built { states = Nfa.num_states nfa; ms }
    | exception Limits.Budget_exceeded { limit; _ } -> Budget { needed = limit }
  in
  let needed = schedules k in
  let expansion =
    if needed > expand_budget then Budget { needed }
    else
      let nfa, ms =
        timed (fun () -> Glushkov.of_regex_classic (Interleave.expand ~max_len r))
      in
      Built { states = Nfa.num_states nfa; ms }
  in
  (* Differential check where both legs built: the two automata recognize
     the same bounded language (every schedule, nothing else). *)
  let checked =
    match (fly, expansion) with
    | Built _, Built _ when k <= 4 ->
      let fly_nfa = Glushkov.of_regex ~limits r in
      let exp_nfa = Glushkov.of_regex_classic (Interleave.expand ~max_len r) in
      let a = Nfa.words_upto ~max_len fly_nfa in
      let b = Nfa.words_upto ~max_len exp_nfa in
      if not (Trace.Set.equal a b) then die "k=%d: product and expansion disagree" k;
      (* every word of L(r_k) is one complete schedule of length 2k — the
         language has no prefix closure, so the cardinal is exact *)
      if Trace.Set.cardinal a <> needed then
        die "k=%d: %d words, expected %d schedules" k (Trace.Set.cardinal a) needed;
      true
    | _ -> false
  in
  { k; fly; expansion; checked }

(* --- Distinct subsystems ---------------------------------------------------- *)

let valve_source =
  {|@sys
class Valve:
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

let bank_source k =
  let fields = List.init k (fun i -> Printf.sprintf "v%d" (i + 1)) in
  let lines f = String.concat "" (List.map (fun v -> "        " ^ f v ^ "\n") fields) in
  Printf.sprintf
    "import asyncio\n\n%s\n@sys([%s])\nclass Bank:\n    def __init__(self):\n%s\n\
    \    @op_initial_final\n    async def cycle(self):\n%s%s        return [\"cycle\"]\n"
    valve_source
    (String.concat ", " (List.map (Printf.sprintf "%S") fields))
    (lines (Printf.sprintf "self.%s = Valve()"))
    (lines (Printf.sprintf "self.%s.open()"))
    (lines (Printf.sprintf "asyncio.create_task(self.%s.close())"))

(* The check without projection: one full expansion, then per field the
   inclusion against the spec lifted over every non-field symbol. The
   number of fields that fail. *)
let unprojected ~env (model : Model.t) =
  let impl = Usage.expanded_nfa ~limits model in
  List.length
    (List.filter
       (fun field ->
         let subsystem_class = Option.get (Model.subsystem_class model field) in
         let spec = Option.get (Usage.subsystem_spec_nfa ~env ~field ~subsystem_class) in
         let alphabet = Symbol.Set.union (Nfa.alphabet impl) (Nfa.alphabet spec) in
         let other =
           Symbol.Set.filter
             (fun s ->
               match Symbol.split_scope s with
               | Some (scope, _) -> scope <> field
               | None -> true)
             alphabet
         in
         Language.inclusion_counterexample ~limits ~alphabet ~impl
           ~spec:(Nfa.add_self_loops other spec) ()
         <> None)
       model.Model.declared_subsystems)

let projected ~env model = List.length (Usage.check ~limits ~env model)

type search = { language : int; shuffle : int; search_ms : float; failing : int }

(* The configurations one run interns, then the best of five untimed-Obs
   runs for the wall time. *)
let measure f =
  let counter key = Option.value ~default:0 (List.assoc_opt key (Obs.counters ())) in
  Obs.enable ~fake_clock:false ();
  let failing = f () in
  let language = counter "language.configs" and shuffle = counter "shuffle.configs" in
  Obs.disable ();
  let search_ms =
    List.fold_left min infinity (List.init 5 (fun _ -> snd (timed f)))
  in
  { language; shuffle; search_ms; failing }

type bank_row = { bank_k : int; proj : search; full : search }

let run_bank k =
  let result = Pipeline.verify_source_exn (bank_source k) in
  let env = Pipeline.find_model result.Pipeline.models in
  let model = Option.get (Pipeline.find_model result.Pipeline.models "Bank") in
  let proj = measure (fun () -> projected ~env model) in
  let full = measure (fun () -> unprojected ~env model) in
  if proj.failing <> full.failing then
    die "bank k=%d: projected check fails %d fields, unprojected %d" k proj.failing
      full.failing;
  { bank_k = k; proj; full }

(* Linear growth: configs(k) / k never exceeds its value at the smallest k. *)
let linear_floor rows =
  match rows with
  | [] -> true
  | first :: _ ->
    let per_field r = float_of_int (r.proj.language + r.proj.shuffle) /. float_of_int r.bank_k in
    List.for_all (fun r -> per_field r <= per_field first) rows

let () =
  let sizes = if smoke then [ 2; 4 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Printf.printf "shuffle: k-task family, k in {%s}%s\n\n"
    (String.concat "," (List.map string_of_int sizes))
    (if smoke then " [smoke]" else "");
  let rows = List.map run_instance sizes in
  Printf.printf "  %3s  %-26s %-30s %s\n" "k" "on-the-fly product" "eager expansion"
    "checked";
  let show = function
    | Built b -> Printf.sprintf "%d states, %.2f ms" b.states b.ms
    | Budget b -> Printf.sprintf "over budget (%d needed)" b.needed
  in
  List.iter
    (fun r ->
      Printf.printf "  %3d  %-26s %-30s %s\n" r.k (show r.fly) (show r.expansion)
        (if r.checked then "=" else "-"))
    rows;
  let exhausted = List.filter (fun r -> leg_states r.expansion = None) rows in
  let answered = List.filter (fun r -> leg_states r.fly <> None) exhausted in
  let ratio =
    if exhausted = [] then 1.0
    else float_of_int (List.length answered) /. float_of_int (List.length exhausted)
  in
  Printf.printf
    "\n  expansion over budget on %d/%d instances; product definitive on %d of \
     those (%.0f%%, floor %.0f%%%s)\n"
    (List.length exhausted) (List.length rows) (List.length answered) (ratio *. 100.)
    (definitive_floor *. 100.)
    (if smoke then ", not enforced in smoke mode" else "");
  if (not smoke) && exhausted = [] then
    die "FAIL: no instance exhausted the expansion; the family is not adversarial";
  if (not smoke) && ratio < definitive_floor then
    die "FAIL: definitive ratio %.2f is below the %.2f floor" ratio definitive_floor;
  let bank_sizes = if smoke then [ 4; 6 ] else [ 4; 5; 6; 7; 8 ] in
  Printf.printf "\ndistinct subsystems: k valves, k in {%s}\n\n"
    (String.concat "," (List.map string_of_int bank_sizes));
  let banks = List.map run_bank bank_sizes in
  Printf.printf "  %3s  %-36s %-36s\n" "k" "projected (Usage.check)" "unprojected search";
  let show_search s =
    Printf.sprintf "%d lang + %d shuffle, %.3f ms" s.language s.shuffle s.search_ms
  in
  List.iter
    (fun b -> Printf.printf "  %3d  %-36s %-36s\n" b.bank_k (show_search b.proj) (show_search b.full))
    banks;
  let linear = linear_floor banks in
  Printf.printf "\n  projected configurations linear in k: %b\n" linear;
  if not linear then die "FAIL: projected configurations grow faster than linearly in k";
  let ms = Bench_json.fixed 3 in
  let leg_json = function
    | Built b -> Jsonl.(Obj [ ("states", int b.states); ("ms", ms b.ms) ])
    | Budget b -> Jsonl.(Obj [ ("over_budget", Bool true); ("needed", int b.needed) ])
  in
  let row_json r =
    Jsonl.(Obj [ ("k", int r.k); ("schedules", int (schedules r.k)); ("fly", leg_json r.fly);
                 ("expansion", leg_json r.expansion); ("checked", Bool r.checked) ])
  in
  let search_json s =
    Jsonl.(Obj [ ("language_configs", int s.language); ("shuffle_configs", int s.shuffle);
                 ("ms", ms s.search_ms); ("failing_fields", int s.failing) ])
  in
  let bank_json b =
    Jsonl.(Obj [ ("k", int b.bank_k); ("projected", search_json b.proj);
                 ("unprojected", search_json b.full) ])
  in
  Bench_json.write "BENCH_shuffle.json"
    Jsonl.(
      Obj
        [ ("benchmark", Str "shuffle"); ("max_configs", int limits.Limits.max_configs);
          ("expand_budget", int expand_budget); ("instances", Arr (List.map row_json rows));
          ("expansion_exhausted", int (List.length exhausted));
          ("fly_definitive_of_exhausted", int (List.length answered));
          ("definitive_ratio", Bench_json.fixed 3 ratio);
          ("definitive_floor", Num definitive_floor); ("floor_enforced", Bool (not smoke));
          ("distinct_subsystems", Arr (List.map bank_json banks));
          ("projected_configs_linear", Bool linear) ]);
  Printf.printf "\nwrote BENCH_shuffle.json\n"
