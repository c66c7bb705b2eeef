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

(* [usage.expand] spans opened while linting the source. *)
let expansions source =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let r, profile = Obs.in_unit ~name:"hub.py" (fun () -> Lint.lint_source ~file:"hub.py" source) in
  let events = match profile with Some p -> p.Obs.events | None -> [] in
  (r, List.length (List.filter (fun e -> e.Obs.ev_begin && e.Obs.ev_name = "usage.expand") events))

let test_one_expansion_per_class () =
  (* One expansion for the claim rules, one interleaved and one
     sequentialized for the race rule — never one per field. *)
  List.iter
    (fun n ->
      let r, expanded = expansions (hub_source n) in
      Alcotest.(check bool)
        (Printf.sprintf "%d fields: SY112 on l1" n)
        true (List.mem "SY112" (codes r));
      Alcotest.(check bool)
        (Printf.sprintf "%d fields: at most 3 expansions (got %d)" n expanded)
        true (expanded <= 3))
    [ 3; 4; 6 ]

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

(* --- Exit codes ------------------------------------------------------------ *)

let test_exit_codes () =
  let code src = Lint.file_exit_code (Lint.lint_source ~file:"t.py" src) in
  Alcotest.(check int) "clean file" 0 (code valve_source);
  Alcotest.(check int) "warnings only" 0 (code dead_op_source);
  Alcotest.(check int) "error finding" 1 (code unsat_source);
  Alcotest.(check int) "syntax error" 2 (code broken_source);
  Alcotest.(check int) "unreadable file" 2
    (Lint.file_exit_code (Lint.lint_path "definitely/not/a/file.py"));
  let tiny = Limits.make ~max_states:2 ~max_configs:2 () in
  Alcotest.(check int) "blown rule budget" 3
    (Lint.file_exit_code (Lint.lint_source ~limits:tiny ~file:"t.py" unsat_source));
  Alcotest.(check int) "aggregate = max" 2
    (Lint.exit_code
       [
         Lint.lint_source ~file:"a.py" valve_source;
         Lint.lint_source ~file:"b.py" broken_source;
       ])

(* --- Determinism ----------------------------------------------------------- *)

(* Random annotated classes: operation graphs with possibly-dangling
   returns, duplicate names, claims from a pool, and suppression comments —
   enough variety to drive every rule family through the engine. *)
let gen_source =
  let open QCheck2.Gen in
  let op_pool = [| "go"; "stop"; "ping"; "reset" |] in
  let claim_pool =
    [| "F a.open"; "a.open || !a.open"; "F (a.open && a.close)"; "(!a.open) W a.close" |]
  in
  let* n_ops = int_range 1 4 in
  let* ops =
    list_repeat n_ops
      (let* name = oneofa op_pool in
       let* deco = oneofa [| "@op"; "@op_initial"; "@op_final"; "@op_initial_final" |] in
       let* call = bool in
       let* nexts = list_size (int_range 0 2) (oneofa [| "go"; "stop"; "missing" |]) in
       let* suppress = bool in
       return (name, deco, call, nexts, suppress))
  in
  let* with_claim = bool in
  let* claim = oneofa claim_pool in
  let header = if with_claim then [ Printf.sprintf {|@claim("%s")|} claim ] else [] in
  let body =
    List.concat_map
      (fun (name, deco, call, nexts, suppress) ->
        let ret =
          Printf.sprintf "        return [%s]"
            (String.concat ", " (List.map (Printf.sprintf "\"%s\"") nexts))
        in
        let sup = if suppress then "  # shelley: disable=SY101,SY006,SY007" else "" in
        [
          Printf.sprintf "    %s" deco;
          Printf.sprintf "    def %s(self):%s" name sup;
          (if call then "        self.a.open()" else "        self.idle = 1");
          ret;
        ])
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
          Alcotest.test_case "budget reported per rule" `Quick
            test_shared_expansion_budget_per_rule;
        ] );
      ("exit-codes", [ Alcotest.test_case "contract" `Quick test_exit_codes ]);
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_lint_source_deterministic;
          QCheck_alcotest.to_alcotest test_lint_files_deterministic;
        ] );
      ("check-lint", [ Alcotest.test_case "strictly additive" `Quick test_check_lint_additive ]);
      ( "render",
        [
          Alcotest.test_case "text line forms" `Quick test_text_line;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
          Alcotest.test_case "format parsing" `Quick test_format_of_string;
        ] );
    ]
