(* The static-analysis pass: rule registry, suppression scanner, engine
   determinism (same bytes for any -j level and any input order), exit
   codes, and the three renderers. *)

let valve_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

    @op_initial
    def test(self):
        return ["open"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]
|}

let dead_op_source =
  {|
@sys
class Tank:
    def __init__(self):
        self.pump = Pin(1, OUT)

    @op_initial_final
    def fill(self):
        self.pump.on()
        return ["fill"]

    @op_final
    def drain(self):
        self.pump.off()
        return []
|}

let unsat_source =
  valve_source
  ^ {|
@claim("F (a.open && a.close)")
@sys(["a"])
class Rig:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def cycle(self):
        self.a.open()
        return []
|}

(* A satisfiable claim: SY103 must search for a trace that meets it. *)
let claim_source =
  valve_source
  ^ {|
@claim("F a.open")
@sys(["a"])
class Rig:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def cycle(self):
        self.a.test()
        self.a.open()
        self.a.close()
        return []
|}

let broken_source = "class Broken:\n    def m(self:\n        return []\n"

(* A spawned task races the method body: the sequential schedule
   begin·begin·end is fine, but preempting after the second begin strands
   the Log mid-session. *)
let racy_async_source =
  {|import asyncio

@sys
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


@sys(["log"])
class App:
    def __init__(self):
        self.log = Log()

    @op_initial_final
    async def run(self):
        asyncio.create_task(self.log.begin())
        self.log.begin()
        self.log.end()
        return []
|}

(* Same shape, but [begin] is initial-final and self-looping: every
   interleaving of the two begins is accepted, so there is no race. *)
let race_free_async_source =
  {|import asyncio

@sys
class Log:
    def __init__(self):
        self.pin = Pin(1, OUT)

    @op_initial_final
    def begin(self):
        self.pin.on()
        return ["begin"]


@sys(["log"])
class App:
    def __init__(self):
        self.log = Log()

    @op_initial_final
    async def run(self):
        asyncio.create_task(self.log.begin())
        self.log.begin()
        return []
|}

let corpus_dir =
  lazy
    (let dir = Filename.temp_file "shelley_lint" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     let write name contents =
       let path = Filename.concat dir name in
       let oc = open_out_bin path in
       output_string oc contents;
       close_out oc;
       path
     in
     [
       write "ok.py" valve_source;
       write "dead.py" dead_op_source;
       write "unsat.py" unsat_source;
       write "broken.py" broken_source;
       write "race.py" racy_async_source;
       write "race_free.py" race_free_async_source;
     ])

let codes (r : Lint.file_result) = List.map (fun d -> d.Lint.rule) r.Lint.findings

(* First-occurrence textual replace, for deriving source variants. *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* --- Registry -------------------------------------------------------------- *)

let test_registry_codes_unique () =
  let cs = List.map (fun (r : Rules.t) -> r.Rules.code) Rules.all in
  Alcotest.(check int)
    "codes are unique" (List.length cs)
    (List.length (List.sort_uniq compare cs));
  List.iter
    (fun (r : Rules.t) ->
      match Rules.find_code r.Rules.code with
      | Some r' -> Alcotest.(check string) "find_code roundtrip" r.Rules.name r'.Rules.name
      | None -> Alcotest.failf "find_code misses %s" r.Rules.code)
    Rules.all;
  Alcotest.(check bool) "unknown code" true (Rules.find_code "SY999" = None)

(* The satellite contract: 'check' renders exactly Validate.diagnostics, so
   the two surfaces can never drift apart in wording. *)
let test_validate_routed_through_registry () =
  let cls = Mpy_parser.parse_class dead_op_source in
  let model = (Extract.extract_class cls).Extract.model in
  let from_diags =
    List.map
      (fun ((rule : Rules.t), line, msg) ->
        Report.structural ?line rule.Rules.severity ~class_name:model.Model.name msg)
      (Validate.diagnostics model)
  in
  Alcotest.(check (list string))
    "check = registry-routed diagnostics"
    (List.map Report.to_string (Validate.check model))
    (List.map Report.to_string from_diags)

(* --- Suppression scanner --------------------------------------------------- *)

let test_suppression_scanner () =
  let src =
    "x = 1  # shelley: disable=SY101,SY006\n# shelley: disable\n"
    ^ "   # shelley: disable=SY001\n# shelley:disable=SY002\n# unrelated\n"
  in
  match Mpy_parser.suppressions src with
  | [ a; b; c; d ] ->
    Alcotest.(check (list string)) "trailing codes" [ "SY101"; "SY006" ] a.Mpy_parser.sup_codes;
    Alcotest.(check bool) "trailing is not standalone" false a.Mpy_parser.sup_standalone;
    Alcotest.(check (list string)) "bare disable = all codes" [] b.Mpy_parser.sup_codes;
    Alcotest.(check bool) "standalone" true b.Mpy_parser.sup_standalone;
    Alcotest.(check int) "line numbers are 1-based" 3 c.Mpy_parser.sup_line;
    Alcotest.(check (list string)) "no space after colon" [ "SY002" ] d.Mpy_parser.sup_codes
  | sups -> Alcotest.failf "expected 4 suppressions, got %d" (List.length sups)

let test_suppression_silences () =
  (* dead_op_source: the SY006/SY101 pair sits on drain's def line. *)
  let lines = String.split_on_char '\n' dead_op_source in
  let with_comment =
    List.map
      (fun l ->
        if l = "    def drain(self):" then l ^ "  # shelley: disable=SY006,SY101" else l)
      lines
    |> String.concat "\n"
  in
  let plain = Lint.lint_source ~file:"t.py" dead_op_source in
  let silenced = Lint.lint_source ~file:"t.py" with_comment in
  Alcotest.(check (list string)) "plain findings" [ "SY006"; "SY101" ] (codes plain);
  Alcotest.(check (list string)) "all silenced" [] (codes silenced);
  Alcotest.(check int) "kept as suppressed" 2 (List.length silenced.Lint.suppressed);
  Alcotest.(check int) "exit 0 once suppressed" 0 (Lint.file_exit_code silenced)

let test_unknown_suppression_code () =
  let src = dead_op_source ^ "# shelley: disable=SY999\n" in
  let r = Lint.lint_source ~file:"t.py" src in
  Alcotest.(check bool) "SY012 reported" true (List.mem "SY012" (codes r))

(* --- SY112: interleaving races --------------------------------------------- *)

let test_sy112_fires () =
  let r = Lint.lint_source ~file:"race.py" racy_async_source in
  Alcotest.(check (list string)) "only SY112" [ "SY112" ] (codes r);
  let d = List.hd r.Lint.findings in
  Alcotest.(check bool) "witness schedule in message" true
    (Testutil.contains d.Lint.message "schedule [run, log.begin, log.end, log.begin]");
  Alcotest.(check bool) "names the subsystem" true
    (Testutil.contains d.Lint.message "subsystem 'log'");
  Alcotest.(check int) "warnings exit 0" 0 (Lint.file_exit_code r)

let test_sy112_race_free () =
  let r = Lint.lint_source ~file:"race_free.py" race_free_async_source in
  Alcotest.(check (list string)) "no findings" [] (codes r)

let test_sy112_needs_par () =
  (* Strip the spawn: the same protocol violation is now a plain sequential
     bug — the checker's (SY-less) verdict, not a race. *)
  let sequential =
    String.concat "\n"
      (List.filter
         (fun l -> not (Testutil.contains l "create_task"))
         (String.split_on_char '\n' racy_async_source))
  in
  let r = Lint.lint_source ~file:"seq.py" sequential in
  Alcotest.(check bool) "no SY112 without Par" true (not (List.mem "SY112" (codes r)))

let test_sy112_sequential_failure_owned_by_checker () =
  (* The body misuses the protocol even without preemption (a second [end]
     straight after the first): every schedule fails, so there is no *race*
     to report. *)
  let always_bad =
    replace ~sub:"        self.log.begin()\n        self.log.end()"
      ~by:"        self.log.end()\n        self.log.end()" racy_async_source
  in
  let r = Lint.lint_source ~file:"bad.py" always_bad in
  Alcotest.(check bool) "no SY112 when sequential schedules fail too" true
    (not (List.mem "SY112" (codes r)))

let test_sy112_suppression () =
  let with_comment =
    replace ~sub:"class App:" ~by:"class App:  # shelley: disable=SY112"
      racy_async_source
  in
  let r = Lint.lint_source ~file:"race.py" with_comment in
  Alcotest.(check (list string)) "silenced" [] (codes r);
  Alcotest.(check int) "kept as suppressed" 1 (List.length r.Lint.suppressed)

let test_sy112_fuel () =
  (* A one-configuration budget cannot even seed the shuffle product: the
     rule degrades to a budget diagnostic (exit 3), never a wrong verdict. *)
  let thresholds = { Lint_semantic.default_thresholds with Lint_semantic.race_fuel = 1 } in
  let r = Lint.lint_source ~thresholds ~file:"race.py" racy_async_source in
  Alcotest.(check bool) "no SY112 under starvation" true (not (List.mem "SY112" (codes r)));
  Alcotest.(check int) "budget exit code" 3 (Lint.file_exit_code r)

(* --- Per-class reuse of the expanded automata ---------------------------------

   A composite over [n] Log fields: a spawned task races [l1] (an SY112
   finding, so the race rule also expands the sequentialized model), a
   gather forks the others, and two claims feed SY102–SY104. *)
let hub_source n =
  let fields = List.init n (fun i -> Printf.sprintf "l%d" (i + 1)) in
  let rest = List.tl fields in
  let self_call meth f = Printf.sprintf "self.%s.%s()" f meth in
  let lines l = String.concat "" (List.map (Printf.sprintf "        %s\n") l) in
  Printf.sprintf
    {|import asyncio

@sys
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


@claim("F l2.begin")
@claim("(!l2.end) W l2.begin")
@sys([%s])
class Hub:
    def __init__(self):
%s
    @op_initial_final
    async def run(self):
        asyncio.create_task(self.l1.begin())
        self.l1.begin()
        self.l1.end()
        await asyncio.gather(%s)
%s        return []
|}
    (String.concat ", " (List.map (Printf.sprintf "%S") fields))
    (lines (List.map (Printf.sprintf "self.%s = Log()") fields))
    (String.concat ", " (List.map (self_call "begin") rest))
    (lines (List.map (self_call "end") rest))

(* [usage.expand] spans opened while linting the source, each with the
   name of the span it opened in. *)
let expansion_parents source =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let r, profile = Obs.in_unit ~name:"hub.py" (fun () -> Lint.lint_source ~file:"hub.py" source) in
  let events = match profile with Some p -> p.Obs.events | None -> [] in
  let _, parents =
    List.fold_left
      (fun (stack, parents) (e : Obs.event) ->
        if not e.Obs.ev_begin then (List.tl stack, parents)
        else
          let parents =
            if e.Obs.ev_name = "usage.expand" then
              (match stack with p :: _ -> p | [] -> "") :: parents
            else parents
          in
          (e.Obs.ev_name :: stack, parents))
      ([], []) events
  in
  (r, parents)

let test_one_expansion_per_class () =
  (* One expansion for the claim rules and the race rule's witness alike,
     built in the class's own span — never one per field or per rule. *)
  List.iter
    (fun n ->
      let r, parents = expansion_parents (hub_source n) in
      Alcotest.(check bool)
        (Printf.sprintf "%d fields: SY112 on l1" n)
        true (List.mem "SY112" (codes r));
      Alcotest.(check (list string))
        (Printf.sprintf "%d fields: one expansion, opened by the claim sessions" n)
        [ "lint.claim-sessions" ] parents)
    [ 3; 4; 6 ]

let test_race_witness_without_claims () =
  (* Without claims the race rule builds the expansion itself, once. *)
  let without_claims =
    String.concat "\n"
      (List.filter
         (fun l -> not (String.starts_with ~prefix:"@claim" l))
         (String.split_on_char '\n' (hub_source 4)))
  in
  let r, parents = expansion_parents without_claims in
  Alcotest.(check bool) "SY112 on l1" true (List.mem "SY112" (codes r));
  Alcotest.(check (list string)) "one expansion, in the race rule"
    [ "lint.interleaved-protocol-race" ] parents

let test_expansion_charges_each_budget () =
  (* One build answers every budget: a budget below the costliest shuffle
     product it drew runs out, naming its own limit, exactly as its own
     build would; a looser one after a build that ran out builds again. *)
  let model =
    Option.get
      (Pipeline.find_model (Pipeline.verify_source_exn (hub_source 3)).Pipeline.models "Hub")
  in
  let runs_out ~limit expansion =
    match expansion (Limits.make ~max_configs:limit ()) with
    | _ -> None
    | exception Limits.Budget_exceeded { resource; limit } -> Some (resource, limit)
  in
  let own_build ~limit = runs_out ~limit (fun limits -> Usage.expanded_nfa ~limits model) in
  let ledger = Limits.make () in
  let reference = Usage.expanded_nfa ~limits:ledger model in
  let peak = Limits.peak ledger ~resource:"shuffle-product configurations" in
  Alcotest.(check bool) "the hub forks" true (peak > 1);
  let shared = Lint_semantic.expansion model in
  Alcotest.(check bool) "built under the default budget" true
    (Language.equivalent reference (shared Limits.default));
  List.iter
    (fun limit ->
      Alcotest.(check (option (pair string int)))
        (Printf.sprintf "charged under max_configs %d" limit)
        (own_build ~limit) (runs_out ~limit shared))
    [ 1; peak - 1; peak; peak + 1 ];
  let starved = Lint_semantic.expansion model in
  Alcotest.(check (option (pair string int)))
    "first built under 1" (own_build ~limit:1) (runs_out ~limit:1 starved);
  Alcotest.(check bool) "rebuilt under a looser budget" true
    (Language.equivalent reference (starved Limits.default))

let test_shared_expansion_budget_per_rule () =
  (* The shared claim automaton cannot be built under this budget: each rule
     that needs it still reports its own SY090, worded as before. *)
  let limits = Limits.make ~max_configs:2 () in
  let r = Lint.lint_source ~limits ~file:"hub.py" (hub_source 4) in
  let budget_lines =
    List.filter_map
      (fun (d : Lint.diagnostic) -> if d.Lint.rule = "SY090" then Some d.Lint.message else None)
      r.Lint.findings
  in
  List.iter
    (fun (code, name) ->
      let want =
        Printf.sprintf
          "lint rule %s (%s) exceeded its budget: shuffle-product configurations (limit 2)"
          code name
      in
      Alcotest.(check bool) (code ^ ": " ^ String.concat " | " budget_lines) true
        (List.mem want budget_lines))
    [ ("SY102", "vacuous-claim"); ("SY103", "unsatisfiable-claim"); ("SY104", "redundant-claim") ];
  Alcotest.(check int) "budget exit code" 3 (Lint.file_exit_code r)

(* --- Shortcuts against the search-only oracles ----------------------------------

   The claim sweep settles a claim the usage language alone entails with one
   query, and SY112 skips a field whose projections keep no shuffle.
   {!Lint_oracle} keeps both analyses as they ran before, every question
   searched. Over random async composites (operation bodies from
   {!Prog_gen} with [Par] nodes over the fields' calls) and random claim
   sets, the two must agree wherever the oracle's queries stay in budget. *)

let print_model m = Format.asprintf "%a" Model.pp m
let hub_class = lazy (Mpy_parser.parse_class "class Hub:\n    def m(self):\n        return []\n")

let ctx_of model =
  Lint_semantic.make_ctx ~limits:Limits.default ~thresholds:Lint_semantic.default_thresholds
    ~env:(Lazy.force Testutil.protocol_env) ~cls:(Lazy.force hub_class) ~model

let show_verdict = function
  | Lint_semantic.Kept -> "kept"
  | Redundant by -> "redundant [" ^ String.concat "; " by ^ "]"
  | Subsumed by -> "subsumed [" ^ String.concat "; " by ^ "]"
  | Undecided -> "undecided"

let show_analysis (a : Lint_semantic.claim_analysis) =
  Printf.sprintf "{%s} contradictions {%s} core {%s} undecided %d"
    (String.concat "; " (List.map (fun (c, v) -> c ^ ": " ^ show_verdict v) a.verdicts))
    (String.concat "; "
       (List.map
          (fun (c : Lint_semantic.contradiction) ->
            Printf.sprintf "%s / %s on [%s]" c.claim_a c.claim_b (Trace.to_string c.witness))
          a.contradictions))
    (String.concat "; " a.core) a.undecided

(* The sweep answers a subsumption question whose hypotheses hold a pair
   no trace satisfies with no search ([lint.claims.unsat_hypotheses]). The
   property counts the cases where it did, and fails if there were none:
   then the planted pairs no longer reach it. *)
let test_claims_match_oracle =
  let settled = ref 0 and cases = ref 0 in
  let name, speed, run =
    Testutil.qtest ~count:300 "claim sweep = search-only oracle" Testutil.async_composite_gen
      ~print:print_model (fun model ->
        let fuel = Lint_semantic.default_thresholds.Lint_semantic.entail_fuel in
        let limits = Limits.default in
        let oracle =
          Lint_oracle.analyze_claims ~fuel ~sessions:(Lint_semantic.sessions ~limits model) model
        in
        QCheck2.assume (oracle.Lint_semantic.undecided = 0);
        Obs.enable ();
        let got =
          Fun.protect ~finally:Obs.disable (fun () ->
              let got = Lint_semantic.analyze_claims ~fuel ~limits model in
              incr cases;
              if List.mem_assoc "lint.claims.unsat_hypotheses" (Obs.counters ()) then
                incr settled;
              got)
        in
        if got <> oracle then
          QCheck2.Test.fail_reportf "got %s\noracle %s" (show_analysis got) (show_analysis oracle);
        true)
  in
  ( name,
    speed,
    fun () ->
      settled := 0;
      cases := 0;
      run ();
      Printf.printf "unsatisfiable hypotheses settled questions in %d of %d cases\n" !settled
        !cases;
      if !settled = 0 then Alcotest.failf "no case of %d was settled by an unsatisfiable pair" !cases )

(* Ex falso under a tight budget: the full subsumption query of the third
   claim runs out of fuel, but the table and the search for the pair
   ['G !a.open', 'F a.open'] do not, so the claim is subsumed. The
   search-only sweep gives the question up and finds the claim redundant
   instead, from the model table. *)
let ex_falso_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

    @op_initial_final
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["open"]

@claim("G !a.open")
@claim("F a.open")
@claim("F (a.close && X X X X X a.close)")
@sys(["a"])
class Rig:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def fire(self):
        self.a.open()
        return []
|}

let test_unsat_pair_under_tight_fuel () =
  let model =
    Option.get
      (Pipeline.find_model (Pipeline.verify_source_exn ex_falso_source).Pipeline.models "Rig")
  in
  let fuel = 8 and limits = Limits.default in
  let third (a : Lint_semantic.claim_analysis) =
    show_verdict (List.assoc "F (a.close && X X X X X a.close)" a.Lint_semantic.verdicts)
  in
  let pair = [ "G !a.open"; "F a.open" ] in
  let oracle =
    Lint_oracle.analyze_claims ~fuel ~sessions:(Lint_semantic.sessions ~limits model) model
  in
  Alcotest.(check bool) "the search-only sweep runs out" true (oracle.Lint_semantic.undecided > 0);
  Alcotest.(check string) "the search-only sweep"
    (show_verdict (Lint_semantic.Redundant pair)) (third oracle);
  Alcotest.(check string) "the sweep" (show_verdict (Lint_semantic.Subsumed pair))
    (third (Lint_semantic.analyze_claims ~fuel ~limits model))

let test_race_matches_oracle =
  Testutil.qtest ~count:400 "SY112 = search-only oracle" Testutil.async_composite_gen ~print:print_model
    (fun model ->
      match Lint_oracle.race (ctx_of model) with
      | exception Limits.Budget_exceeded _ -> QCheck2.assume_fail ()
      | oracle ->
        let got = Lint_semantic.(List.assoc Rules.interleaved_protocol_race rules) (ctx_of model) in
        if got <> oracle then
          QCheck2.Test.fail_reportf "got [%s], oracle [%s]"
            (String.concat "; " (List.map snd got))
            (String.concat "; " (List.map snd oracle));
        true)

let test_shuffle_free_lemma =
  Testutil.qtest ~count:400 "no shuffle in a projection: same verdict sequentialized"
    Testutil.async_composite_gen ~print:print_model (fun model ->
      let env = Lazy.force Testutil.protocol_env in
      let sequential = Lint_semantic.sequentialize_model model in
      List.for_all
        (fun (field, subsystem_class) ->
          Usage.interleaves model ~field
          || Usage.holds ~env model ~field ~subsystem_class
             = Usage.holds ~env sequential ~field ~subsystem_class)
        model.Model.subsystem_fields)

(* --- Exit codes ------------------------------------------------------------ *)

let test_exit_codes () =
  let code src = Lint.file_exit_code (Lint.lint_source ~file:"t.py" src) in
  Alcotest.(check int) "clean file" 0 (code valve_source);
  Alcotest.(check int) "warnings only" 0 (code dead_op_source);
  Alcotest.(check int) "error finding" 1 (code unsat_source);
  Alcotest.(check int) "syntax error" 2 (code broken_source);
  Alcotest.(check int) "unreadable file" 2
    (Lint.file_exit_code (Lint.lint_path "definitely/not/a/file.py"));
  let tiny = Limits.make ~max_configs:1 () in
  let blown = Lint.lint_source ~limits:tiny ~file:"t.py" claim_source in
  Alcotest.(check int) "blown rule budget" 3 (Lint.file_exit_code blown);
  Alcotest.(check (list string))
    "the claim search is what ran out"
    [
      "lint rule SY103 (unsatisfiable-claim) exceeded its budget: entailment \
       configurations (limit 1)";
    ]
    (List.filter_map
       (fun (d : Lint.diagnostic) -> if d.Lint.rule = "SY090" then Some d.Lint.message else None)
       blown.Lint.findings);
  Alcotest.(check int) "aggregate = max" 2
    (Lint.exit_code
       [
         Lint.lint_source ~file:"a.py" valve_source;
         Lint.lint_source ~file:"b.py" broken_source;
       ])

(* --- Determinism ----------------------------------------------------------- *)

(* Random annotated classes: operation graphs with possibly-dangling
   returns, duplicate names, claims from a pool, and suppression comments —
   enough variety to drive every rule family through the engine. About a
   third of the operations [match] on a call and return a different
   next-list per arm; their 2–3 exits make the usage NFA nondeterministic. *)
let gen_source =
  let open QCheck2.Gen in
  let op_pool = [| "go"; "stop"; "ping"; "reset" |] in
  let claim_pool =
    [| "F a.open"; "a.open || !a.open"; "F (a.open && a.close)"; "(!a.open) W a.close" |]
  in
  let nexts = list_size (int_range 0 2) (oneofa [| "go"; "stop"; "missing" |]) in
  let* n_ops = int_range 1 4 in
  let* ops =
    list_repeat n_ops
      (let* name = oneofa op_pool in
       let* deco = oneofa [| "@op"; "@op_initial"; "@op_final"; "@op_initial_final" |] in
       let* call = bool in
       let* exits =
         frequency [ (2, map (fun n -> [ n ]) nexts); (1, list_size (int_range 2 3) nexts) ]
       in
       let* suppress = bool in
       return (name, deco, call, exits, suppress))
  in
  let* with_claim = bool in
  let* claim = oneofa claim_pool in
  let header = if with_claim then [ Printf.sprintf {|@claim("%s")|} claim ] else [] in
  let return_ indent nexts =
    Printf.sprintf "%sreturn [%s]" indent
      (String.concat ", " (List.map (Printf.sprintf "\"%s\"") nexts))
  in
  let body =
    List.concat_map
      (fun (name, deco, call, exits, suppress) ->
        let sup = if suppress then "  # shelley: disable=SY101,SY006,SY007" else "" in
        Printf.sprintf "    %s" deco
        :: Printf.sprintf "    def %s(self):%s" name sup
        ::
        (match exits with
        | [ nexts ] ->
          [
            (if call then "        self.a.open()" else "        self.idle = 1");
            return_ "        " nexts;
          ]
        | arms ->
          let last = List.length arms - 1 in
          "        match self.a.test():"
          :: List.concat
               (List.mapi
                  (fun i nexts ->
                    [
                      Printf.sprintf "            case %s:"
                        (if i = last then "_" else if i = 0 then {|["open"]|} else {|["close"]|});
                      (if i = 0 && call then "                self.a.open()"
                       else Printf.sprintf "                self.idle = %d" i);
                      return_ "                " nexts;
                    ])
                  arms)))
      ops
  in
  return
    (String.concat "\n"
       (valve_source
        :: (header
           @ [ {|@sys(["a"])|}; "class Rig:"; "    def __init__(self):";
               "        self.a = Valve()"; ]
           @ body))
    ^ "\n")

let test_lint_source_deterministic =
  QCheck2.Test.make ~count:60 ~name:"lint_source is a pure function of the source"
    gen_source (fun src ->
      let a = Lint.lint_source ~file:"gen.py" src in
      let b = Lint.lint_source ~file:"gen.py" src in
      String.equal (Lint_render.json [ a ]) (Lint_render.json [ b ])
      && String.equal (Lint_render.sarif [ a ]) (Lint_render.sarif [ b ]))

(* --- SY101 against the per-operation product ------------------------------- *)

(* The reference: the usage DFA (subset construction) intersected with
   Σ*·op·Σ*, once per operation. *)
let dead_by_product (model : Model.t) =
  let dfa = Determinize.determinize (Depgraph.usage_nfa model) in
  let alphabet = Dfa.alphabet dfa in
  List.filter_map
    (fun (op : Model.operation) ->
      let sym = Model.entry_symbol op in
      let dead =
        (not (Dfa_oracle.mem_alphabet dfa sym))
        ||
        let contains =
          Dfa.create ~alphabet ~num_states:2 ~start:0 ~accept:[ 1 ]
            ~next:(fun s x -> if s = 1 || Symbol.equal x sym then 1 else s)
        in
        Dfa_oracle.is_empty (Dfa_oracle.intersect dfa contains)
      in
      if dead then Some op.Model.op_line else None)
    model.Model.operations

let sy101 =
  List.assq Rules.dead_operation Lint_semantic.rules

(* SY101 determinizes nothing, so the subset-construction budget cannot
   change a finding: even one state leaves every answer as it was. *)
let test_sy101_needs_no_state_budget () =
  let one_state = Limits.make ~max_states:1 () in
  List.iter
    (fun (label, src) ->
      let findings limits =
        Lint_render.json [ Lint.lint_source ?limits ~file:"t.py" src ]
      in
      Alcotest.(check string) label (findings None) (findings (Some one_state)))
    [ ("dead operation", dead_op_source); ("composite", claim_source) ]

(* Does some state step on one symbol to two states? ([Nfa.create] drops
   duplicate transitions.) *)
let nondeterministic nfa =
  let transitions = Nfa.transitions nfa in
  let steps = List.sort_uniq compare (List.map (fun (src, sym, _) -> (src, sym)) transitions) in
  List.length steps < List.length transitions

(* SY101 reads the trimmed usage NFA; the reference determinizes. The
   property counts the classes whose usage NFA is nondeterministic and
   fails if there were none: then the comparison would only ever be made
   on automata that are already DFAs. *)
let test_sy101_matches_product =
  let branching = ref 0 and cases = ref 0 in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"SY101 agrees with the per-operation product"
         ~print:Fun.id gen_source (fun src ->
           let program, _ = Mpy_parser.parse_program_tolerant src in
           List.for_all
             (fun cls ->
               match Extract.extract_class cls with
               | exception _ -> true
               | e ->
                 let model = e.Extract.model in
                 let ctx =
                   Lint_semantic.make_ctx ~limits:Limits.default
                     ~thresholds:Lint_semantic.default_thresholds ~env:(fun _ -> None) ~cls
                     ~model
                 in
                 let usable =
                   model.Model.operations <> [] && Model.initial_ops model <> []
                   && Model.final_ops model <> []
                 in
                 incr cases;
                 if usable && nondeterministic (Depgraph.usage_nfa model) then incr branching;
                 List.map fst (sy101 ctx)
                 = List.map Option.some (if usable then dead_by_product model else []))
             program.Mpy_ast.prog_classes))
  in
  ( name,
    speed,
    fun () ->
      branching := 0;
      cases := 0;
      run ();
      Printf.printf "nondeterministic usage NFA in %d of %d classes\n" !branching !cases;
      if !branching = 0 then
        Alcotest.failf "no class of %d had a nondeterministic usage NFA" !cases )

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  let tagged = List.map (fun x -> (Random.State.bits st, x)) l in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged)

(* The `shelley lint -j N` contract: per-file results depend only on the
   file, and aggregation follows input order — any jobs count and any
   input order render the same bytes per path. *)
let test_lint_files_deterministic =
  QCheck2.Test.make ~count:12 ~name:"lint -j N / shuffled inputs deterministic"
    QCheck2.Gen.(pair (int_range 1 4) int)
    (fun (jobs, seed) ->
      let paths = Lazy.force corpus_dir in
      let baseline = Checker.lint_files ~jobs:1 paths in
      let shuffled = shuffle seed paths in
      let got = Checker.lint_files ~jobs shuffled in
      List.iter2
        (fun path (r : Lint.file_result) -> assert (String.equal path r.Lint.lint_file))
        shuffled got;
      List.for_all
        (fun (r : Lint.file_result) ->
          let b =
            List.find
              (fun (b : Lint.file_result) ->
                String.equal b.Lint.lint_file r.Lint.lint_file)
              baseline
          in
          String.equal (Lint_render.text [ b ]) (Lint_render.text [ r ])
          && Lint.file_exit_code b = Lint.file_exit_code r)
        got)

(* --- check --lint ---------------------------------------------------------- *)

let test_check_lint_additive () =
  let paths = Lazy.force corpus_dir in
  let off = Checker.check_files ~jobs:1 paths in
  let off' = Checker.check_files ~jobs:1 ~lint:false paths in
  List.iter2
    (fun (a : Checker.verdict) (b : Checker.verdict) ->
      Alcotest.(check string) "lint:false output is classic" a.Checker.output
        b.Checker.output;
      Alcotest.(check int) "lint:false code is classic" a.Checker.code b.Checker.code)
    off off';
  let on = Checker.check_files ~jobs:1 ~lint:true paths in
  let find name l =
    List.find (fun (v : Checker.verdict) -> Filename.basename v.Checker.path = name) l
  in
  (* A clean file stays silent with linting on... *)
  Alcotest.(check string) "ok.py stays silent" ""
    (find "ok.py" off).Checker.output;
  Alcotest.(check string) "ok.py stays silent with --lint" ""
    (find "ok.py" on).Checker.output;
  (* ...a file with only semantic findings gains a block but keeps code 0
     (warnings), and an error-severity finding raises the code. *)
  Alcotest.(check string) "dead.py silent without lint" ""
    (find "dead.py" off).Checker.output;
  Alcotest.(check bool) "dead.py gains the SY101 line" true
    (Testutil.contains (find "dead.py" on).Checker.output "SY101");
  Alcotest.(check int) "warnings do not fail" 0 (find "dead.py" on).Checker.code;
  Alcotest.(check bool) "no SY006 duplication (check has no counterpart printed)" true
    (not (Testutil.contains (find "dead.py" on).Checker.output "SY00"));
  Alcotest.(check int) "unsat.py keeps its failure code" 1
    (find "unsat.py" on).Checker.code;
  Alcotest.(check bool) "unsat.py gains SY103" true
    (Testutil.contains (find "unsat.py" on).Checker.output "SY103")

(* Source text of a random async composite over 2–3 Log/Gate fields: each
   operation calls, spawns ([create_task]) and gathers the fields' calls,
   and the class carries 0–4 claims from {!Testutil.claim_gen}. *)
let async_source_gen =
  let open QCheck2.Gen in
  let* classes = list_size (int_range 2 3) (oneofl [ "Log"; "Gate" ]) in
  let fields = List.mapi (fun i c -> (Printf.sprintf "f%d" (i + 1), c)) classes in
  let calls =
    List.concat_map
      (fun (f, c) -> List.map (fun m -> f ^ "." ^ m) (List.assoc c Testutil.protocol_calls))
      fields
  in
  let call = map (Printf.sprintf "self.%s()") (oneofl calls) in
  let stmt =
    oneof
      [
        call;
        map (Printf.sprintf "asyncio.create_task(%s)") call;
        map2 (Printf.sprintf "await asyncio.gather(%s, %s)") call call;
      ]
  in
  let* nops = int_range 1 3 in
  let names = List.init nops (Printf.sprintf "op%d") in
  let op i name =
    let* body = list_size (int_range 1 3) stmt in
    let* final = bool in
    let+ next = list_size (int_range 0 2) (oneofl names) in
    let kind = if i = 0 then "op_initial_final" else if final then "op_final" else "op" in
    Printf.sprintf "    @%s\n    async def %s(self):\n%s        return [%s]\n" kind name
      (String.concat "" (List.map (Printf.sprintf "        %s\n") body))
      (String.concat ", " (List.map (Printf.sprintf "%S") next))
  in
  let* ops = flatten_l (List.mapi op names) in
  let+ claims = list_size (int_range 0 4) (Testutil.claim_gen (List.map Symbol.intern calls)) in
  Printf.sprintf "import asyncio\n\n%s\n%s@sys([%s])\nclass Hub:\n    def __init__(self):\n%s\n%s"
    Testutil.protocol_source
    (String.concat ""
       (List.map (fun f -> Printf.sprintf "@claim(\"%s\")\n" (Ltlf.to_string f)) claims))
    (String.concat ", " (List.map (fun (f, _) -> Printf.sprintf "%S" f) fields))
    (String.concat ""
       (List.map (fun (f, c) -> Printf.sprintf "        self.%s = %s()\n" f c) fields))
    (String.concat "\n" ops)

(* [check --lint] is plain [check] plus the lint pass over the same parse:
   its block is the classic block followed by exactly the {!Checker.lint_only}
   lines a standalone lint prints, and its code is the larger of the two. *)
let test_check_lint_composes =
  let path = lazy (Filename.temp_file "shelley_check_lint" ".py") in
  Testutil.qtest ~count:150 "check --lint = check + lint_only lines"
    QCheck2.Gen.(oneof [ gen_source; async_source_gen ])
    ~print:Fun.id (fun source ->
      let path = Lazy.force path in
      let oc = open_out_bin path in
      output_string oc source;
      close_out oc;
      let one = function
        | [ v ] -> v
        | _ -> assert false
      in
      let classic = one (Checker.check_files [ path ]) in
      let both = one (Checker.check_files ~lint:true [ path ]) in
      let lint = one (Checker.lint_files [ path ]) in
      let lint =
        { lint with Lint.findings = List.filter Checker.lint_only lint.Lint.findings }
      in
      let expected =
        if lint.Lint.findings = [] then classic.Checker.output
        else
          (if classic.Checker.output = "" then Printf.sprintf "== %s ==\n" path
           else classic.Checker.output)
          ^ String.concat ""
              (List.map (fun d -> Lint_render.text_line d ^ "\n") lint.Lint.findings)
          ^ "\n"
      in
      let code = max classic.Checker.code (Lint.file_exit_code lint) in
      if both.Checker.output <> expected then
        QCheck2.Test.fail_reportf "check --lint printed\n%s\nexpected\n%s" both.Checker.output
          expected
      else if both.Checker.code <> code then
        QCheck2.Test.fail_reportf "check --lint exits %d, expected %d" both.Checker.code code
      else true)

(* One parse and one extraction per file, whichever passes read it. *)
let test_check_lint_parses_once () =
  let paths = Lazy.force corpus_dir in
  let path = List.find (fun p -> Filename.basename p = "race.py") paths in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let v = List.hd (Checker.check_files ~lint:true [ path ]) in
  let counters = (Option.get v.Checker.profile).Obs.counters in
  let classes =
    List.length (Mpy_parser.parse_program racy_async_source).Mpy_ast.prog_classes
  in
  Alcotest.(check (option int)) "parse.classes" (Some classes)
    (List.assoc_opt "parse.classes" counters);
  Alcotest.(check (option int)) "models.extracted" (Some classes)
    (List.assoc_opt "models.extracted" counters)

(* --- Renderers ------------------------------------------------------------- *)

let test_text_line () =
  let d rule line cls =
    {
      Lint.rule;
      rule_name = "x";
      severity = Report.Warning;
      file = "f.py";
      line;
      class_name = cls;
      message = "msg";
    }
  in
  Alcotest.(check string) "full form" "f.py:3: warning SY101 [C]: msg"
    (Lint_render.text_line (d "SY101" 3 "C"));
  Alcotest.(check string) "no line, no class" "f.py: warning SY011: msg"
    (Lint_render.text_line (d "SY011" 0 ""))

let test_json_escaping () =
  let r =
    {
      Lint.lint_file = "f.py";
      findings =
        [
          {
            Lint.rule = "SY020";
            rule_name = "annotation-error";
            severity = Report.Error;
            file = "f.py";
            line = 1;
            class_name = "C";
            message = "quote \" backslash \\ tab \t end";
          };
        ];
      suppressed = [];
    }
  in
  let js = Lint_render.json [ r ] in
  Alcotest.(check bool) "escaped quote" true
    (Testutil.contains js {|quote \" backslash \\ tab \t end|});
  let sarif = Lint_render.sarif [ r ] in
  Alcotest.(check bool) "sarif carries the class prefix" true
    (Testutil.contains sarif {|[C] quote \"|})

(* The lint JSON and SARIF are real JSON: a message with a quote, a
   backslash, control characters and a non-ASCII operator parses back to
   itself. *)
let test_json_sarif_parse_back () =
  let message = "quote \" backslash \\ bell \007 backspace \b a \xe2\x88\xa5 b" in
  let d =
    {
      Lint.rule = "SY112";
      rule_name = "interleaving-race";
      severity = Report.Warning;
      file = "f.py";
      line = 3;
      class_name = "C";
      message;
    }
  in
  let r = { Lint.lint_file = "f.py"; findings = [ d ]; suppressed = [ d ] } in
  let parse text =
    match Jsonl.parse text with
    | Ok j -> j
    | Error msg -> Alcotest.failf "does not parse: %s\n%s" msg text
  in
  let rec path j = function
    | [] -> j
    | `K k :: rest -> path (Option.get (Jsonl.member k j)) rest
    | `I i :: rest -> path (List.nth (Option.get (Jsonl.to_list j)) i) rest
  in
  let text j steps = Option.get (Jsonl.to_str (path j steps)) in
  let js = parse (Lint_render.json [ r ]) in
  Alcotest.(check string) "json finding message" message
    (text js [ `K "files"; `I 0; `K "findings"; `I 0; `K "message" ]);
  Alcotest.(check string) "json suppressed message" message
    (text js [ `K "files"; `I 0; `K "suppressed"; `I 0; `K "message" ]);
  let sarif = parse (Lint_render.sarif [ r ]) in
  List.iter
    (fun i ->
      Alcotest.(check string) "sarif message" ("[C] " ^ message)
        (text sarif [ `K "runs"; `I 0; `K "results"; `I i; `K "message"; `K "text" ]))
    [ 0; 1 ]

let test_sarif_shape () =
  let results =
    [
      Lint.lint_source ~file:"dead.py" dead_op_source;
      Lint.lint_source ~file:"broken.py" broken_source;
    ]
  in
  let s = Lint_render.sarif results in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "sarif contains %s" needle) true
        (Testutil.contains s needle))
    [
      {|"version": "2.1.0"|};
      {|"name": "shelley"|};
      {|"id": "SY101"|};
      {|"ruleId": "SY101"|};
      {|"level": "warning"|};
      {|"uri": "dead.py"|};
      {|"startLine":|};
      {|"ruleId": "SY010"|};
    ];
  (* every diagnostic's rule is in the registry, so every result carries a
     ruleIndex into tool.driver.rules *)
  let occurrences needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one ruleIndex per result"
    (occurrences {|"ruleId"|} s)
    (occurrences {|"ruleIndex"|} s)

let test_format_of_string () =
  Alcotest.(check bool) "text" true (Lint_render.format_of_string "text" = Ok Lint_render.Text);
  Alcotest.(check bool) "json" true (Lint_render.format_of_string "json" = Ok Lint_render.Json);
  Alcotest.(check bool) "sarif" true
    (Lint_render.format_of_string "sarif" = Ok Lint_render.Sarif);
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Lint_render.format_of_string "yaml"))

let () =
  Alcotest.run "lint"
    [
      ( "registry",
        [
          Alcotest.test_case "codes unique, find_code total" `Quick
            test_registry_codes_unique;
          Alcotest.test_case "check routed through registry" `Quick
            test_validate_routed_through_registry;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "scanner" `Quick test_suppression_scanner;
          Alcotest.test_case "silences findings" `Quick test_suppression_silences;
          Alcotest.test_case "unknown code reported" `Quick test_unknown_suppression_code;
        ] );
      ( "sy112-interleaving-race",
        [
          Alcotest.test_case "fires with witness schedule" `Quick test_sy112_fires;
          Alcotest.test_case "race-free async passes" `Quick test_sy112_race_free;
          Alcotest.test_case "needs a Par node" `Quick test_sy112_needs_par;
          Alcotest.test_case "sequential failures owned by checker" `Quick
            test_sy112_sequential_failure_owned_by_checker;
          Alcotest.test_case "suppression honored" `Quick test_sy112_suppression;
          Alcotest.test_case "fuel starvation degrades to exit 3" `Quick test_sy112_fuel;
        ] );
      ( "expansion-reuse",
        [
          Alcotest.test_case "one expansion per class" `Quick test_one_expansion_per_class;
          Alcotest.test_case "race witness without claims" `Quick
            test_race_witness_without_claims;
          Alcotest.test_case "one build, each budget charged" `Quick
            test_expansion_charges_each_budget;
          Alcotest.test_case "budget reported per rule" `Quick
            test_shared_expansion_budget_per_rule;
        ] );
      ( "shortcuts-vs-oracle",
        [
          test_claims_match_oracle;
          Alcotest.test_case "unsatisfiable pair under a tight budget" `Quick
            test_unsat_pair_under_tight_fuel;
          test_race_matches_oracle;
          test_shuffle_free_lemma;
        ] );
      ("exit-codes", [ Alcotest.test_case "contract" `Quick test_exit_codes ]);
      ( "sy101-dead-operation",
        [
          test_sy101_matches_product;
          Alcotest.test_case "no state budget" `Quick test_sy101_needs_no_state_budget;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_lint_source_deterministic;
          QCheck_alcotest.to_alcotest test_lint_files_deterministic;
        ] );
      ( "check-lint",
        [
          Alcotest.test_case "strictly additive" `Quick test_check_lint_additive;
          test_check_lint_composes;
          Alcotest.test_case "one parse per file" `Quick test_check_lint_parses_once;
        ] );
      ( "render",
        [
          Alcotest.test_case "text line forms" `Quick test_text_line;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "json and sarif parse back" `Quick test_json_sarif_parse_back;
          Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
          Alcotest.test_case "format parsing" `Quick test_format_of_string;
        ] );
    ]
