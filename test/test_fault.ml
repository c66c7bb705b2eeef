open Testutil

(* Fault-injection suite: malformed sources and adversarial automata inputs.
   The contract under test is the pipeline's, not any one check's — every
   input terminates with structured reports, and the only exceptions that
   may cross a module boundary are the typed ones ([Limits.Budget_exceeded],
   parser/lexer errors from the *strict* entry points). *)

(* --- Shared sources ---------------------------------------------------------- *)

let valve_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]
|}

(* --- Malformed-source corpus -------------------------------------------------- *)

(* Each entry is (name, source). Sources are deliberately broken in distinct
   ways: lexical faults, header faults, member faults, stray top level. *)
let malformed_corpus =
  [
    ("unterminated string", "class C:\n    def m(self):\n        s = \"oops\n");
    ("inconsistent dedent", "class C:\n    def m(self):\n            x()\n       y()\n");
    ("broken def signature", "class C:\n    def broken(:\n        return []\n");
    ("missing class colon", "class C\n    def m(self):\n        return []\n");
    ("garbage characters", "class C:\n    def m(self):\n        $ ? !\n");
    ("truncated class", "class C:\n");
    ("nested def", "class C:\n    def m(self):\n        def helper():\n            pass\n");
    ("decorator without class", "@sys\nx = 1\n");
    ("top-level def", "@op\ndef loose():\n    return []\n");
    ("stray dedent garbage", "class C:\n    def m(self):\n        return []\n  stray\n");
    ("missing paren", "class C:\n    def m(self):\n        self.p.on(\n");
    ("bad match case", "class C:\n    def m(self):\n        match x:\n            case : pass\n");
    ("empty input", "");
    ("whitespace only", "\n\n   \n");
  ]

(* Rendering a report must never raise either — diagnostics that crash the
   reporter are as bad as the fault they describe. *)
let well_formed (r : Report.t) = String.length (Report.to_string r) >= 0

let test_corpus_never_raises () =
  List.iter
    (fun (name, source) ->
      match Pipeline.verify_source source with
      | result ->
        Alcotest.(check bool)
          (name ^ ": reports render") true
          (List.for_all well_formed result.Pipeline.reports)
      | exception exn ->
        Alcotest.failf "%s: verify_source raised %s" name (Printexc.to_string exn))
    malformed_corpus

let test_corpus_brokenness_is_reported () =
  (* Everything before "empty input" is genuinely broken and must produce at
     least one syntax diagnostic; the trailing well-formed entries must not. *)
  List.iter
    (fun (name, source) ->
      let result = Pipeline.verify_source source in
      let has_syntax = List.exists Report.is_syntax_error result.Pipeline.reports in
      let expect_broken = name <> "empty input" && name <> "whitespace only" in
      Alcotest.(check bool) (name ^ ": syntax diagnostic") expect_broken has_syntax)
    malformed_corpus

(* The acceptance scenario: one broken class and one valid class in the same
   file yields the valid class's model plus a syntax diagnostic. *)
let test_partial_file_keeps_good_class () =
  (* NB: the injected fault must not open a bracket ("def m(self:"), or the
     lexer's implicit line joining swallows the layout tokens of everything
     after it and the good class is lost with it. *)
  let source =
    "class Broken:\n    def m(self)\n        return []\n\n" ^ valve_source
  in
  let result = Pipeline.verify_source source in
  Alcotest.(check bool) "syntax diagnostic present" true
    (List.exists Report.is_syntax_error result.Pipeline.reports);
  Alcotest.(check bool) "Valve model survives" true
    (Option.is_some (Pipeline.find_model result.Pipeline.models "Valve"))

(* A broken *member* costs only that member: the class and its other
   operations survive. *)
let test_broken_member_keeps_other_methods () =
  let source =
    "@sys\n\
     class Dev:\n\
    \    @op_initial_final\n\
    \    def ok(self):\n\
    \        return []\n\
    \    @op\n\
    \    def broken(self:\n\
    \        return []\n"
  in
  let result = Pipeline.verify_source source in
  Alcotest.(check bool) "diagnostic recorded" true
    (List.exists Report.is_syntax_error result.Pipeline.reports);
  match Pipeline.find_model result.Pipeline.models "Dev" with
  | None -> Alcotest.fail "class Dev lost entirely"
  | Some model ->
    Alcotest.(check bool) "ok operation survives" true
      (Option.is_some (Model.find_op model "ok"))

(* --- Adversarial determinization --------------------------------------------- *)

(* (a+b)* a (a+b)^n needs 2^n DFA states: the subset construction must stop
   at the budget, not run away. *)
let blowup_regex n =
  let a = Regex.sym_of_name "a" and b = Regex.sym_of_name "b" in
  let ab = Regex.alt a b in
  let tail = List.init n (fun _ -> ab) in
  Regex.seq_list (Regex.star ab :: a :: tail)

let test_determinize_blowup_hits_budget () =
  let nfa = Glushkov.of_regex (blowup_regex 40) in
  let limits = Limits.make ~max_states:256 () in
  match Determinize.determinize ~limits nfa with
  | _ -> Alcotest.fail "2^40 states fit in a 256-state budget?"
  | exception Limits.Budget_exceeded { resource; limit } ->
    Alcotest.(check int) "reported limit" 256 limit;
    Alcotest.(check bool) "resource named" true (String.length resource > 0)

let test_determinize_small_instance_fits () =
  let nfa = Glushkov.of_regex (blowup_regex 4) in
  let dfa = Determinize.determinize ~limits:(Limits.make ~max_states:256 ()) nfa in
  Alcotest.(check bool) "within budget" true (Dfa.num_states dfa <= 256)

(* Satellite: out-of-alphabet queries are a diagnosable Invalid_argument,
   not an assertion failure. *)
let test_determinize_foreign_symbol () =
  let dfa = Determinize.determinize (Glushkov.of_regex (blowup_regex 2)) in
  match Dfa.next dfa (Dfa.start dfa) (Symbol.intern "zzz-not-in-alphabet") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the symbol" true (contains msg "zzz-not-in-alphabet")

(* --- Adversarial language products -------------------------------------------- *)

let test_language_product_hits_budget () =
  let impl = Glushkov.of_regex (blowup_regex 40) in
  let spec = Glushkov.of_regex (blowup_regex 41) in
  let limits = Limits.make ~max_configs:500 () in
  match Language.inclusion_counterexample ~limits ~impl ~spec () with
  | _ -> Alcotest.fail "expected the product to exhaust its budget"
  | exception Limits.Budget_exceeded { limit; _ } ->
    Alcotest.(check int) "reported limit" 500 limit

(* Random regexes: determinization either finishes inside the budget or
   raises the typed exception — nothing else, and it always terminates. *)
let prop_determinize_total =
  qtest "determinize total under budget" ~count:150 default_regex_gen ~print:regex_print
    (fun r ->
      let limits = Limits.make ~max_states:200 () in
      match Determinize.determinize ~limits (Glushkov.of_regex r) with
      | dfa -> Dfa.num_states dfa <= 200 + 1
      | exception Limits.Budget_exceeded _ -> true)

(* --- Graceful degradation in the pipeline -------------------------------------- *)

let starved = Limits.make ~max_states:1 ~max_configs:1 ~max_regex_size:1 ()

(* A composite whose subsystem-usage check actually exercises the automata
   machinery — a subsystem-free class like Valve never spends any budget. *)
let sector_source =
  valve_source
  ^ "\n\
     @sys([\"a\"])\n\
     class Sector:\n\
    \    def __init__(self):\n\
    \        self.a = Valve()\n\
    \    @op_initial_final\n\
    \    def cycle(self):\n\
    \        match self.a.test():\n\
    \            case [\"open\"]:\n\
    \                self.a.open()\n\
    \                self.a.close()\n\
    \                return []\n\
    \            case [\"clean\"]:\n\
    \                self.a.clean()\n\
    \                return []\n"

let test_starved_pipeline_degrades () =
  match Pipeline.verify_source ~limits:starved sector_source with
  | exception exn ->
    Alcotest.failf "starved pipeline raised %s" (Printexc.to_string exn)
  | result ->
    Alcotest.(check bool) "models still extracted" true
      (Option.is_some (Pipeline.find_model result.Pipeline.models "Sector"));
    Alcotest.(check bool) "budget blowouts reported as Resource_limit" true
      (List.exists Report.is_resource_limit result.Pipeline.reports)

let test_generous_budget_verifies_sector () =
  (* The same source under the default budget passes outright — degradation
     is a property of the budget, not of the program. *)
  let result = Pipeline.verify_source sector_source in
  Alcotest.(check bool) "verified" true (Pipeline.verified result)

let test_starved_pipeline_runs_other_checks () =
  (* A structural error (unreachable op) must still be found even when the
     automata-backed checks blow their budget. *)
  let source =
    "@sys\n\
     class Lonely:\n\
    \    @op_initial_final\n\
    \    def go(self):\n\
    \        return []\n\
    \    @op\n\
    \    def orphan(self):\n\
    \        return []\n"
  in
  let result = Pipeline.verify_source ~limits:starved source in
  let structural =
    List.exists
      (function
        | Report.Structural _ -> true
        | _ -> false)
      result.Pipeline.reports
  in
  Alcotest.(check bool) "validate still reports" true structural

(* Fuzz: arbitrary bytes through the tolerant pipeline. The budget is starved
   so even adversarial accidental blowups stay cheap. *)
let fuzz_gen = QCheck2.Gen.(string_size ~gen:printable (int_range 0 300))

let prop_pipeline_total_on_garbage =
  qtest "verify_source total on garbage" ~count:300 fuzz_gen
    ~print:(fun s -> String.escaped s)
    (fun source ->
      let result = Pipeline.verify_source ~limits:starved source in
      List.for_all well_formed result.Pipeline.reports)

(* Mutation fuzz: chop the valve source at a random point and splice a random
   printable character in — close-to-valid inputs exercise recovery paths the
   pure-garbage fuzzer rarely reaches. *)
let mutation_gen =
  QCheck2.Gen.(
    pair (int_range 0 (String.length valve_source - 1)) printable)

let prop_pipeline_total_on_mutations =
  qtest "verify_source total on mutations" ~count:300 mutation_gen
    ~print:(fun (i, c) -> Printf.sprintf "cut at %d, insert %C" i c)
    (fun (i, c) ->
      let source =
        String.sub valve_source 0 i
        ^ String.make 1 c
        ^ String.sub valve_source i (String.length valve_source - i)
      in
      let result = Pipeline.verify_source ~limits:starved source in
      List.for_all well_formed result.Pipeline.reports)

(* --- Cache corruption ----------------------------------------------------------

   Every way an entry can rot on disk must classify as a miss (recompute),
   never a crash and never a wrong value — and each mode must tally its own
   counter so a rotting cache is visible in --stats. *)

let with_temp_cache f =
  let dir = Filename.temp_file "shelley_fault_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> rm dir)
    (fun () ->
      match Cache.open_dir (Filename.concat dir "c") with
      | Ok c -> f c
      | Error msg -> Alcotest.fail msg)

(* The on-disk layout pinned by cache.ml: DIR/<2-hex fanout>/<key>.entry. *)
let entry_path c key =
  Filename.concat (Filename.concat (Cache.dir c) (String.sub key 0 2)) (key ^ ".entry")

let overwrite path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let stable k = Option.value ~default:0 (List.assoc_opt k (Obs.stable_counters ()))

let observing f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let test_truncated_entry_is_miss () =
  with_temp_cache (fun c ->
      let key = Cache.key [ "truncation" ] in
      Cache.store c key (1, "payload", [ 2; 3 ]);
      let path = entry_path c key in
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len - 1);
      observing (fun () ->
          Alcotest.(check bool)
            "truncated payload is a miss" true
            ((Cache.find c key : (int * string * int list) option) = None);
          Alcotest.(check int) "counted as corrupt" 1 (stable "cache.corrupt_entries"));
      (* Cutting above the checksum line leaves no payload at all. *)
      Cache.store c key (1, "payload", [ 2; 3 ]);
      Unix.truncate path (String.length "shelley-cache 1");
      observing (fun () ->
          Alcotest.(check bool)
            "headerless stub is a miss" true
            ((Cache.find c key : (int * string * int list) option) = None));
      (* The slot is still usable: a later store recomputes and wins. *)
      Cache.store c key (9, "again", []);
      Alcotest.(check bool)
        "recompute re-stores over the wreck" true
        (Cache.find c key = Some (9, "again", ([] : int list))))

let test_wrong_version_is_evicted () =
  with_temp_cache (fun c ->
      let key = Cache.key [ "stale" ] in
      Cache.store c key 7;
      let path = entry_path c key in
      overwrite path "shelley-cache 999\nsomething\npayload";
      observing (fun () ->
          Alcotest.(check bool)
            "stale version is a miss" true
            ((Cache.find c key : int option) = None);
          Alcotest.(check int) "counted as stale" 1 (stable "cache.stale_evictions");
          Alcotest.(check int) "not counted as corrupt" 0 (stable "cache.corrupt_entries"));
      Alcotest.(check bool) "evicted on contact" false (Sys.file_exists path))

let test_undecodable_blob_is_miss () =
  with_temp_cache (fun c ->
      let key = Cache.key [ "garbage" ] in
      Cache.store c key 7;
      let path = entry_path c key in
      (* Valid header, valid checksum — over bytes Marshal cannot decode. The
         checksum passes, so this exercises the last line of defense. *)
      let payload = "certainly not a marshalled value" in
      overwrite path
        (Printf.sprintf "shelley-cache 1\n%s\n%s"
           (Digest.to_hex (Digest.string payload))
           payload);
      observing (fun () ->
          Alcotest.(check bool)
            "undecodable blob is a miss" true
            ((Cache.find c key : int option) = None);
          Alcotest.(check int) "counted as corrupt" 1 (stable "cache.corrupt_entries")))

let test_open_dir_on_regular_file_degrades () =
  let file = Filename.temp_file "shelley_fault_cache_file" "" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      match Cache.open_dir file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "open_dir accepted a regular file")

let test_read_only_dir_store_is_counted () =
  (* chmod does not bind root, so this scenario is untestable there (CI
     containers often run as root; the cram suite covers the degradation
     path for them via a file-as-directory cache). *)
  if Unix.geteuid () = 0 then ()
  else
    with_temp_cache (fun c ->
        Unix.chmod (Cache.dir c) 0o555;
        Fun.protect
          ~finally:(fun () -> Unix.chmod (Cache.dir c) 0o755)
          (fun () ->
            let key = Cache.key [ "readonly" ] in
            observing (fun () ->
                Cache.store c key 7;
                Alcotest.(check int)
                  "failure counted" 1
                  (Option.value ~default:0
                     (List.assoc_opt "cache.store_failures" (Obs.counters ())));
                Alcotest.(check bool)
                  "nothing stored" true
                  ((Cache.find c key : int option) = None))))

(* --- Supervisor-level fault injection -------------------------------------------

   The pool's own failure modes, driven through the same SHELLEY_FAULT seam
   as the checker faults: a corrupt result frame, a worker that wedges after
   a batch, and fork itself failing. The contract in every case is the
   supervisor's — the fault is classified against the one task it belongs
   to and nothing else in the run is corrupted. *)

let sup_config ?(jobs = 1) ?(max_restarts = 3) () =
  Supervisor.config ~jobs ~batch_size:2 ~max_restarts ~backoff_base:0.005
    ~backoff_cap:0.05 ~heartbeat_interval:0.3 ~grace:0.1 ()

let with_fault spec f =
  Supervisor.fault_injection := true;
  Unix.putenv "SHELLEY_FAULT" spec;
  Fun.protect
    ~finally:(fun () ->
      Supervisor.fault_injection := false;
      Unix.putenv "SHELLEY_FAULT" "")
    f

let with_sup_pool ?jobs ?max_restarts f body =
  let pool =
    Supervisor.create ~label:string_of_int (sup_config ?jobs ?max_restarts ()) f
  in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown pool) (fun () -> body pool)

let show_outcomes outcomes =
  List.map
    (function
      | Supervisor.Done n -> Printf.sprintf "Done %d" n
      | Supervisor.Timed_out { seconds; attempts } ->
        Printf.sprintf "Timed_out (%gs, attempt %d)" seconds attempts
      | Supervisor.Crashed { reason; attempts } ->
        Printf.sprintf "Crashed (%S, attempt %d)" reason attempts)
    outcomes
  |> String.concat "; "
  |> Printf.sprintf "[%s]"

(* The worker computes task 2's result but writes a corrupt frame in its
   place: that task alone is charged, the worker is condemned and the rest of
   the run completes on a fresh one. *)
let garbage_condemns_one_task spec =
  with_fault spec @@ fun () ->
  with_sup_pool (fun n -> n * 10) @@ fun pool ->
  match Supervisor.map pool [ 1; 2; 3; 4 ] with
  | [ Supervisor.Done 10; Crashed { reason; attempts = 1 }; Done 30; Done 40 ] ->
    Alcotest.(check string) "classified as protocol corruption"
      "garbage frame on result pipe" reason;
    Alcotest.(check bool) "condemned worker restarted" true
      ((Supervisor.stats pool).Supervisor.restarts >= 1)
  | outcomes -> Alcotest.failf "unexpected outcomes %s" (show_outcomes outcomes)

let test_garbage_frame_condemns_one_task () = garbage_condemns_one_task "garbage:2"

(* Task 1's valid result and task 2's corrupt frame arrive in one read: the
   valid prefix is settled first, so the garbage is charged to task 2, never
   to the batch-mate whose result preceded it. *)
let test_glued_garbage_spares_the_valid_prefix () =
  garbage_condemns_one_task "glued-garbage:2"

let test_wedged_worker_detected_and_replaced () =
  (* After finishing the batch that contains task 2 the worker stops reading
     its job pipe and ignores heartbeats. The supervisor must notice the
     missing dispatch ack, re-queue the unstarted batch untouched and finish
     the run on a replacement — no task is lost or miscounted. *)
  with_fault "wedge:2" @@ fun () ->
  with_sup_pool (fun n -> n * 10) @@ fun pool ->
  let expected = List.map (fun n -> Supervisor.Done (n * 10)) [ 1; 2; 3; 4; 5; 6 ] in
  let got = Supervisor.map pool [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check bool) "all tasks completed despite the wedge" true (got = expected);
  let st = Supervisor.stats pool in
  Alcotest.(check bool) "heartbeat miss detected" true (st.Supervisor.heartbeat_misses >= 1);
  Alcotest.(check bool) "wedged worker replaced" true (st.Supervisor.restarts >= 1)

let test_fork_failure_degrades_to_inline () =
  (* Every fork attempt fails; once each slot is written off the pool must
     fall back to in-process execution — the run still completes, correctly,
     with the degradation visible in the counters. *)
  with_fault "forkfail:99" @@ fun () ->
  with_sup_pool ~jobs:2 ~max_restarts:2 (fun n -> n + 1) @@ fun pool ->
  match Supervisor.map pool [ 1; 2; 3 ] with
  | [ Supervisor.Done 2; Done 3; Done 4 ] ->
    let st = Supervisor.stats pool in
    Alcotest.(check bool) "fork failures counted" true (st.Supervisor.fork_failures >= 1);
    Alcotest.(check int) "tasks ran in-process" 3 st.Supervisor.inline_tasks;
    Alcotest.(check int) "no workers live" 0 st.Supervisor.live_workers
  | outcomes -> Alcotest.failf "unexpected outcomes %s" (show_outcomes outcomes)

(* The acceptance scenario at the checker level: SIGKILL-ing a worker mid-run
   yields exactly one [Worker_crashed] unit; every other unit's block and
   code are byte-identical to an uninjected run. *)
let crash_corpus =
  lazy
    (let dir = Filename.temp_file "shelley_fault_sup" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     List.map
       (fun name ->
         let path = Filename.concat dir name in
         let oc = open_out_bin path in
         output_string oc valve_source;
         close_out oc;
         path)
       [ "v1.py"; "v2.py"; "v3.py"; "v4.py" ])

let test_worker_crash_leaves_other_units_byte_identical () =
  let paths = Lazy.force crash_corpus in
  let clean = Checker.check_files ~jobs:2 paths in
  let faulted =
    with_fault "crash:v2.py" @@ fun () -> Checker.check_files ~jobs:2 paths
  in
  List.iter2
    (fun (c : Checker.verdict) (f : Checker.verdict) ->
      if Filename.basename f.Checker.path = "v2.py" then begin
        Alcotest.(check int) "crashed unit maps to 3" 3 f.Checker.code;
        Alcotest.(check bool) "structured crash block" true
          (contains f.Checker.output "WORKER CRASHED");
        Alcotest.(check bool) "signal named" true
          (contains f.Checker.output "SIGKILL")
      end
      else begin
        Alcotest.(check string)
          (Filename.basename f.Checker.path ^ ": block byte-identical")
          c.Checker.output f.Checker.output;
        Alcotest.(check int)
          (Filename.basename f.Checker.path ^ ": code unchanged")
          c.Checker.code f.Checker.code
      end)
    clean faulted

(* --- Suite -------------------------------------------------------------------- *)

let () =
  Alcotest.run "fault"
    [
      ( "malformed sources",
        [
          Alcotest.test_case "corpus never raises" `Quick test_corpus_never_raises;
          Alcotest.test_case "brokenness reported" `Quick test_corpus_brokenness_is_reported;
          Alcotest.test_case "partial file keeps good class" `Quick
            test_partial_file_keeps_good_class;
          Alcotest.test_case "broken member keeps methods" `Quick
            test_broken_member_keeps_other_methods;
        ] );
      ( "adversarial automata",
        [
          Alcotest.test_case "determinize blowup hits budget" `Quick
            test_determinize_blowup_hits_budget;
          Alcotest.test_case "small instance fits" `Quick test_determinize_small_instance_fits;
          Alcotest.test_case "foreign symbol diagnosable" `Quick test_determinize_foreign_symbol;
          Alcotest.test_case "language product hits budget" `Quick
            test_language_product_hits_budget;
          prop_determinize_total;
        ] );
      ( "graceful degradation",
        [
          Alcotest.test_case "starved pipeline degrades" `Quick test_starved_pipeline_degrades;
          Alcotest.test_case "generous budget verifies" `Quick
            test_generous_budget_verifies_sector;
          Alcotest.test_case "other checks still run" `Quick
            test_starved_pipeline_runs_other_checks;
          prop_pipeline_total_on_garbage;
          prop_pipeline_total_on_mutations;
        ] );
      ( "supervisor faults",
        [
          Alcotest.test_case "garbage frame condemns one task" `Quick
            test_garbage_frame_condemns_one_task;
          Alcotest.test_case "glued garbage spares the valid prefix" `Quick
            test_glued_garbage_spares_the_valid_prefix;
          Alcotest.test_case "wedged worker detected and replaced" `Quick
            test_wedged_worker_detected_and_replaced;
          Alcotest.test_case "fork failure degrades to inline" `Quick
            test_fork_failure_degrades_to_inline;
          Alcotest.test_case "crash leaves other units byte-identical" `Quick
            test_worker_crash_leaves_other_units_byte_identical;
        ] );
      ( "cache corruption",
        [
          Alcotest.test_case "truncated entry is a miss" `Quick test_truncated_entry_is_miss;
          Alcotest.test_case "wrong version is evicted" `Quick test_wrong_version_is_evicted;
          Alcotest.test_case "undecodable blob is a miss" `Quick
            test_undecodable_blob_is_miss;
          Alcotest.test_case "open_dir on a file degrades" `Quick
            test_open_dir_on_regular_file_degrades;
          Alcotest.test_case "read-only store is counted" `Quick
            test_read_only_dir_store_is_counted;
        ] );
    ]
