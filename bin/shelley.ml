(* The shelley command-line tool: verify annotated MicroPython sources,
   inspect extracted models, render diagrams, and emit NuSMV translations.

   Subcommands:
     shelley check  FILE... [-j N] [--timeout S]   run the verification pipeline
     shelley lint   FILE... [--format text|json|sarif]   static analysis only
     shelley model  FILE [-c CLASS]    print extracted model(s)
     shelley viz    FILE [-c CLASS]    DOT diagram (--deps for the §3.1 graph)
     shelley nusmv  FILE -c CLASS      NuSMV translation (emission only)
     shelley smv    FILE [--run] [--cross-check]   NuSMV translation + driver
     shelley trace  FILE -c CLASS TR   check an operation trace against a model
     shelley infer  EXPR               behavior inference of an IR program

   Exit codes of 'shelley check' (the max across all FILEs):
     0  every file verified
     1  a verification failure (usage / claim / invocation / structural)
     2  a file could not be read or parsed cleanly
     3  a resource budget was exceeded — deterministic fuel
        (--max-states / --fuel), the per-file wall-clock deadline
        (--timeout), or a worker process that died checking the file *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Strict load, for the single-file inspection subcommands (model, viz, …):
   an unreadable or syntactically broken file is a hard error. 'check' has
   its own tolerant loop below. *)
let load ?extra_env path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | source -> (
    let result = Pipeline.verify_source ?extra_env source in
    match List.filter Report.is_syntax_error result.Pipeline.reports with
    | [] -> Ok result
    | d :: _ -> Error (Printf.sprintf "%s: %s" path (Report.to_string d)))

let select_models result = function
  | None -> Ok result.Pipeline.models
  | Some name -> (
    match Pipeline.find_model result name with
    | Some model -> Ok [ model ]
    | None ->
      Error
        (Printf.sprintf "class %s not found (classes: %s)" name
           (String.concat ", "
              (List.map (fun (m : Model.t) -> m.Model.name) result.Pipeline.models))))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 2

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write run metrics (per-unit totals, per-phase aggregates, all \
           counters) as JSON (schema shelley.metrics/1) to $(docv).")

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* The observability sinks of check, lint and claims. Requesting any sink
   turns the recorder on; the term evaluates to the flush the command calls
   after its run. Observability is strictly additive: stats go to stderr and
   metrics/trace to files, so the report stream on stdout stays
   byte-identical whether the recorder is on or off. *)
let obs_sinks =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print a per-phase timing and counter summary to standard error \
             after the run. Report output on standard output is unchanged. \
             Set SHELLEY_OBS_FAKE_CLOCK=1 to replace wall-clock readings \
             with a deterministic logical clock (for tests).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event file to $(docv): one timeline lane \
             per worker process, loadable in chrome://tracing or Perfetto.")
  in
  let start stats metrics_out trace_out =
    if stats || metrics_out <> None || trace_out <> None then Obs.enable ();
    fun () ->
      Option.iter (fun path -> write_file path (Obs.render_metrics_json ())) metrics_out;
      Option.iter (fun path -> write_file path (Obs.render_chrome_trace ())) trace_out;
      if stats then Obs.render_stats Format.err_formatter
  in
  Term.(const start $ stats $ metrics_out_arg $ trace_out)

(* The per-file budgets of check and lint. An absent flag keeps the
   {!Limits.default} field. *)
let limits_term =
  let exceeded =
    "reports a resource-limit finding for the affected check or rule \
     (RESOURCE LIMIT EXCEEDED in $(b,check), SY090 in $(b,lint)) and exits \
     3 while every other check still runs."
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            ("Budget for automaton states (determinization, progression, \
              tableau). Exceeding it " ^ exceeded))
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            ("Budget for product configurations explored by the language \
              checks (and the SY101/SY104 lint rules). Exceeding it " ^ exceeded))
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline per file. A file whose worker outlives it is \
             killed, retried once under a reduced fuel budget, and finally \
             reported as WALL-CLOCK DEADLINE EXCEEDED ($(b,check)) or one \
             SY090 finding ($(b,lint)), exit 3, while every other file still \
             completes.")
  in
  let make max_states max_configs deadline =
    Limits.make ?max_states ?max_configs ?deadline ()
  in
  Term.(const make $ max_states $ fuel $ timeout)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Width of the worker pool (N worker processes). $(b,check) and \
           $(b,lint) print results in input order, so the output is \
           byte-identical to a sequential run; $(b,serve) keeps one pool for \
           all requests.")

(* Test seam, deliberately opt-in: without this flag the checker ignores
   the SHELLEY_FAULT variable entirely, so an inherited/stale variable
   cannot sabotage a real run. *)
let fault_injection_arg =
  Arg.(
    value & flag
    & info [ "fault-injection" ]
        ~doc:
          "Testing only: arm the SHELLEY_FAULT fault-injection seam (worker \
           hangs, crashes, wedges, garbage frames, fork failures) in this \
           process and its workers.")

(* lint's and claims' --format. An unknown name is a usage error: the
   renderer's message on stderr, exit 2. *)
let format_term ~doc =
  let parse name =
    match Lint_render.format_of_string name with
    | Ok f -> f
    | Error msg ->
      prerr_endline msg;
      exit 2
  in
  Term.(
    const parse $ Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc))

(* Shared --cache argument: check and lint both accept a persistent result
   cache directory. An unusable directory degrades to an uncached run with a
   warning on stderr — caching is an optimization, never a precondition. *)
let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Reuse per-file results from the content-addressed cache in \
           $(docv) (created if missing). A file whose source, budgets and \
           configuration are unchanged replays its stored result instead of \
           being re-verified; any corrupted or stale entry is recomputed. \
           See 'shelley cache' for stats/gc/clear.")

let open_cache = function
  | None -> None
  | Some dir -> (
    match Cache.open_dir dir with
    | Ok c -> Some c
    | Error msg ->
      Printf.eprintf "warning: %s; continuing without a result cache\n%!" msg;
      None)

(* --- check ----------------------------------------------------------------- *)

let check_cmd =
  (* Deliberately [string], not [file]: cmdliner's [file] converter rejects a
     missing path during argument parsing (exit 124), aborting the whole run
     before any file is checked. 'check' promises per-file isolation, so an
     unreadable path must be reported in the loop (exit 2) with the other
     files still verified. *)
  let files = Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE") in
  let warnings =
    Arg.(value & flag & info [ "warnings"; "w" ] ~doc:"Also print warnings and infos.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Narrate usage counterexamples step by step.")
  in
  let using =
    Arg.(
      value
      & opt_all file []
      & info [ "using" ] ~docv:"MODEL.shelley"
          ~doc:"Pre-verified .shelley model files resolving substrate classes \
                not defined in the sources (separate verification). Repeatable.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Also run the static-analysis pass (see 'shelley lint') and \
             append its semantic findings (SY101–SY108, …) to each file's \
             report block. An error-severity finding fails the run (exit 1). \
             Without this flag the output is exactly the classic check \
             output.")
  in
  let run files warnings explain lint using limits jobs fault_injection cache_dir
      flush_obs =
    Checker.fault_injection := fault_injection;
    (* Validate --using up front: a broken model file is a usage error (exit
       2, one message), not N per-file failures. The workers rebuild the
       environment themselves from the validated paths. *)
    (match Model_io.env_of_files using with
    | Ok _ -> ()
    | Error msg ->
      prerr_endline msg;
      exit 2);
    let cache = open_cache cache_dir in
    (* The --using models shape verdicts, so their contents are key
       material: a re-exported substrate model invalidates every entry that
       was checked against the old one. env_of_files just read these files
       successfully; a racing deletion still only disables caching. *)
    let cache_extra =
      List.filter_map
        (fun path ->
          match Digest.file path with
          | d -> Some (Digest.to_hex d)
          | exception Sys_error _ -> None)
        using
    in
    (* One file never aborts the others: each gets its own exit code
       (0 verified, 1 verification failure, 2 unreadable/syntax error,
       3 resource limit / deadline / crashed worker) and the process exits
       with the maximum. Checker renders per-file blocks in the workers and
       replays them here in input order. *)
    let verdicts =
      Checker.check_files ~jobs ~limits ~warnings ~explain ~lint ~using ?cache
        ~cache_extra files
    in
    List.iter (fun (v : Checker.verdict) -> print_string v.Checker.output) verdicts;
    flush_obs ();
    let code = Checker.exit_code verdicts in
    if code = 0 then print_endline "OK: specification verified" else exit code
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Verify annotated MicroPython sources."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"every file verified.";
           Cmd.Exit.info 1 ~doc:"a verification failure was reported.";
           Cmd.Exit.info 2 ~doc:"a file could not be read or parsed cleanly.";
           Cmd.Exit.info 3
             ~doc:
               "a resource budget was exceeded: deterministic fuel, the \
                per-file wall-clock deadline, or a worker crash.";
         ])
    Term.(
      const run $ files $ warnings $ explain $ lint $ using $ limits_term $ jobs_arg
      $ fault_injection_arg $ cache_arg $ obs_sinks)

(* --- lint ------------------------------------------------------------------ *)

let lint_cmd =
  (* [string], not [file], for the same reason as 'check': an unreadable
     path must become a per-file SY011 diagnostic (exit 2), not an argument
     parse error that aborts the other files. *)
  let files = Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE") in
  let format =
    format_term
      ~doc:
        "Output format: $(b,text) (one 'file:line: severity CODE [Class]: \
         message' line per finding plus a summary), $(b,json) (the \
         shelley.lint/1 envelope, findings and suppressions per file), or \
         $(b,sarif) (SARIF 2.1.0, for code-scanning upload)."
  in
  let max_behavior_size =
    Arg.(
      value
      & opt int Lint_semantic.default_thresholds.Lint_semantic.max_behavior_size
      & info [ "max-behavior-size" ] ~docv:"N"
          ~doc:"SY108 threshold: flag operations whose inferred behavior \
                regex has more than N nodes.")
  in
  let max_star_height =
    Arg.(
      value
      & opt int Lint_semantic.default_thresholds.Lint_semantic.max_star_height
      & info [ "max-star-height" ] ~docv:"N"
          ~doc:"SY108 threshold: flag operations whose behavior regex nests \
                loops deeper than N.")
  in
  let entail_fuel =
    Arg.(
      value
      & opt int Lint_semantic.default_thresholds.Lint_semantic.entail_fuel
      & info [ "entail-fuel" ] ~docv:"N"
          ~doc:"Budget (product states) of each claim entailment query \
                behind SY104/SY109/SY110/SY111. A query that exceeds it \
                degrades to 'undecided' and reports nothing (counted as \
                entail.budget_exhausted in --stats).")
  in
  let race_fuel =
    Arg.(
      value
      & opt int Lint_semantic.default_thresholds.Lint_semantic.race_fuel
      & info [ "race-fuel" ] ~docv:"N"
          ~doc:"Budget (shuffle-product configurations) of the SY112 \
                interleaving-race re-check on classes with async (spawned) \
                behavior; clamped by --fuel.")
  in
  let run files format jobs limits max_behavior_size max_star_height entail_fuel race_fuel
      cache_dir flush_obs =
    let thresholds =
      { Lint_semantic.max_behavior_size; max_star_height; entail_fuel; race_fuel }
    in
    let cache = open_cache cache_dir in
    let results = Checker.lint_files ~jobs ~limits ~thresholds ?cache files in
    print_string (Lint_render.render format results);
    flush_obs ();
    let code = Lint.exit_code results in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of annotated MicroPython sources: structural \
          checks (SY001–SY007) plus semantic rules built on the \
          verification machinery (dead operations, vacuous / unsatisfiable \
          / redundant / subsumed / contradictory claims, claim-set \
          minimization, unused or escaping subsystems, unreachable code, \
          behavior blowup, interleaving races — SY101–SY112). Findings carry stable rule codes \
          and can be silenced inline with '# shelley: disable=SY101,...' \
          comments (end-of-line for that line, a standalone comment for \
          the next line)."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"no error-severity finding in any file.";
           Cmd.Exit.info 1 ~doc:"an error-severity finding is active.";
           Cmd.Exit.info 2 ~doc:"a file could not be read or parsed cleanly.";
           Cmd.Exit.info 3
             ~doc:
               "a lint rule exceeded its resource budget (SY090), or a \
                file's worker outlived the wall-clock deadline.";
         ])
    Term.(
      const run $ files $ format $ jobs_arg $ limits_term $ max_behavior_size
      $ max_star_height $ entail_fuel $ race_fuel $ cache_arg $ obs_sinks)

(* --- model ----------------------------------------------------------------- *)

(* The one source file the inspection subcommands (claims, model, viz, …)
   load strictly. *)
let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let class_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "class" ] ~docv:"CLASS" ~doc:"Restrict to one class.")

(* --- claims ----------------------------------------------------------------- *)

(* The entailment view of a specification's claim set: per-claim verdicts
   from the same greedy analysis the SY104/SY109–SY111 lint rules run, a
   contradiction list, and optionally the greedy minimal core. Text output
   is a narrated table; json/sarif reuse the lint renderers on the
   claim-related findings, so CI consumes the same envelopes as lint. *)
let claims_cmd =
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Also print the greedy minimal core of each claim set: a \
                subset that (with the usage language) still enforces every \
                claim.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Show the conflicting trace of each contradictory pair and \
                count entailment queries that ran out of budget.")
  in
  let format =
    format_term
      ~doc:
        "Output format: $(b,text), $(b,json) or $(b,sarif). The non-text \
         formats render the claim-related lint findings (SY102–SY104, \
         SY109–SY111) in the same envelopes as 'shelley lint'."
  in
  let entail_fuel =
    Arg.(
      value
      & opt int Lint_semantic.default_thresholds.Lint_semantic.entail_fuel
      & info [ "entail-fuel" ] ~docv:"N"
          ~doc:"Budget (product states) of each claim entailment query; an \
                exhausted query degrades to 'undecided'.")
  in
  let claim_codes = [ "SY102"; "SY103"; "SY104"; "SY109"; "SY110"; "SY111" ] in
  let run file cls minimize explain format entail_fuel flush_obs =
    let code =
      match format with
      | Lint_render.Json | Lint_render.Sarif ->
        (* Class selection is a text-mode refinement; the machine formats
           always cover the whole file, like lint. *)
        let result = Lint.lint_path ~thresholds:{ Lint_semantic.default_thresholds with
                                                  Lint_semantic.entail_fuel } file in
        let claim_only =
          {
            result with
            Lint.findings =
              List.filter (fun d -> List.mem d.Lint.rule claim_codes) result.Lint.findings;
            suppressed =
              List.filter
                (fun d -> List.mem d.Lint.rule claim_codes)
                result.Lint.suppressed;
          }
        in
        print_string (Lint_render.render format [ claim_only ]);
        if List.exists (fun d -> String.equal d.Lint.rule "SY110") claim_only.Lint.findings
        then 1
        else 0
      | Lint_render.Text ->
        let result = or_die (load file) in
        let models = or_die (select_models result cls) in
        let contradicted = ref false in
        List.iter
          (fun (m : Model.t) ->
            if m.Model.claims <> [] then begin
              Format.printf "== %s ==@." m.Model.name;
              let a =
                Lint_semantic.analyze_claims ~fuel:entail_fuel ~limits:Limits.default m
              in
              List.iter
                (fun (text, verdict) ->
                  match (verdict : Lint_semantic.claim_verdict) with
                  | Lint_semantic.Kept ->
                    Format.printf "claim '%s' — essential (in the minimal core)@." text
                  | Lint_semantic.Redundant [] ->
                    Format.printf
                      "claim '%s' — redundant: the usage language alone entails it@."
                      text
                  | Lint_semantic.Redundant subset ->
                    Format.printf
                      "claim '%s' — redundant: entailed by the usage language and %s@."
                      text
                      (String.concat ", " (List.map (Printf.sprintf "'%s'") subset))
                  | Lint_semantic.Subsumed subset ->
                    Format.printf "claim '%s' — subsumed on every trace by %s@." text
                      (String.concat ", " (List.map (Printf.sprintf "'%s'") subset))
                  | Lint_semantic.Undecided ->
                    Format.printf
                      "claim '%s' — undecided (entailment budget exhausted)@." text)
                a.Lint_semantic.verdicts;
              List.iter
                (fun (c : Lint_semantic.contradiction) ->
                  contradicted := true;
                  if explain then
                    Format.printf
                      "claims '%s' and '%s' are contradictory: %s satisfies the \
                       former but violates the latter@."
                      c.Lint_semantic.claim_a c.Lint_semantic.claim_b
                      (match c.Lint_semantic.witness with
                      | [] -> "the empty trace"
                      | w -> Printf.sprintf "trace [%s]" (Trace.to_string w))
                  else
                    Format.printf
                      "claims '%s' and '%s' are contradictory: no trace of %s \
                       satisfies both@."
                      c.Lint_semantic.claim_a c.Lint_semantic.claim_b m.Model.name)
                a.Lint_semantic.contradictions;
              if minimize then begin
                let total = List.length a.Lint_semantic.verdicts in
                let core = a.Lint_semantic.core in
                if List.length core = total then
                  Format.printf "minimal core: all %d claim(s) are essential@." total
                else
                  Format.printf "minimal core (%d of %d claims): %s@."
                    (List.length core) total
                    (match core with
                    | [] -> "(empty: the usage language already enforces every claim)"
                    | core ->
                      String.concat ", " (List.map (Printf.sprintf "'%s'") core))
              end;
              if explain && a.Lint_semantic.undecided > 0 then
                Format.printf "%d entailment quer%s ran out of budget (--entail-fuel)@."
                  a.Lint_semantic.undecided
                  (if a.Lint_semantic.undecided = 1 then "y" else "ies")
            end)
          models;
        if !contradicted then 1 else 0
    in
    flush_obs ();
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "claims"
       ~doc:
         "Analyze a specification's claim set with the entailment engine: \
          which claims are essential, which are redundant (the usage \
          language already enforces them) or subsumed by other claims, \
          which pairs are contradictory over the model, and — with \
          $(b,--minimize) — a greedy minimal core that still enforces the \
          whole set."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"no contradictory claim pair.";
           Cmd.Exit.info 1 ~doc:"a contradictory claim pair was found (SY110).";
           Cmd.Exit.info 2 ~doc:"the file could not be read or parsed.";
         ])
    Term.(
      const run $ file_arg $ class_arg $ minimize $ explain $ format $ entail_fuel
      $ obs_sinks)

let model_cmd =
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print model metrics instead of the model.")
  in
  let run file cls stats =
    let result = or_die (load file) in
    let models = or_die (select_models result cls) in
    if stats then begin
      print_endline Stats.header;
      List.iter (fun m -> Format.printf "%a@." Stats.pp_row (Stats.of_model m)) models
    end
    else List.iter (fun m -> Format.printf "%a@." Model.pp m) models
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Print the extracted Shelley model(s).")
    Term.(const run $ file_arg $ class_arg $ stats)

(* --- viz ------------------------------------------------------------------- *)

let viz_cmd =
  let deps =
    Arg.(
      value & flag
      & info [ "deps" ] ~doc:"Render the §3.1 dependency graph instead of the usage automaton.")
  in
  let expanded =
    Arg.(
      value & flag
      & info [ "expanded" ]
          ~doc:"Render the expanded composite automaton (operation entries + subsystem calls).")
  in
  let behavior =
    Arg.(
      value
      & opt (some string) None
      & info [ "behavior" ] ~docv:"OP"
          ~doc:"Render the control-flow behavior of one operation instead.")
  in
  let run file cls deps expanded behavior =
    let result = or_die (load file) in
    let models = or_die (select_models result cls) in
    List.iter
      (fun (m : Model.t) ->
        let dot =
          match behavior with
          | Some op_name -> (
            match Model.find_op m op_name with
            | Some op -> Dot.of_operation op
            | None ->
              prerr_endline
                (Printf.sprintf "class %s has no operation %s" m.Model.name op_name);
              exit 2)
          | None ->
            if deps then Dot.of_depgraph m
            else if expanded then
              Dot.of_nfa ~name:m.Model.name (Nfa.trim (Usage.expanded_nfa m))
            else Dot.of_model m
        in
        print_string dot)
      models
  in
  Cmd.v
    (Cmd.info "viz" ~doc:"Emit Graphviz (DOT) diagrams of models.")
    Term.(const run $ file_arg $ class_arg $ deps $ expanded $ behavior)

(* --- nusmv ----------------------------------------------------------------- *)

let nusmv_cmd =
  let run file cls =
    let result = or_die (load file) in
    let models = or_die (select_models result cls) in
    List.iter (fun m -> print_string (Nusmv.model_of_class m)) models
  in
  Cmd.v
    (Cmd.info "nusmv"
       ~doc:
         "Translate models to NuSMV (the paper's §5 back end; emission only — \
          see 'smv' for running the external checker).")
    Term.(const run $ file_arg $ class_arg)

(* --- smv ------------------------------------------------------------------- *)

let smv_cmd =
  let do_run =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:"Actually execute the external NuSMV binary on the emitted \
                model(s) and classify its verdict instead of printing the \
                translation.")
  in
  let cross =
    Arg.(
      value & flag
      & info [ "cross-check" ]
          ~doc:"With --run: compare the NuSMV claim verdict against the \
                native checker's and report any divergence (exit 1).")
  in
  let binary =
    Arg.(
      value
      & opt (some string) None
      & info [ "binary" ] ~docv:"PATH"
          ~doc:"NuSMV executable to use (default: search PATH for NuSMV, \
                then nusmv).")
  in
  let timeout =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock deadline for one NuSMV run; the process is killed \
                on expiry and the verdict is classified as a timeout (exit 3).")
  in
  let run file cls do_run cross binary timeout =
    let result = or_die (load file) in
    let models = or_die (select_models result cls) in
    if (not do_run) && not cross then
      List.iter (fun m -> print_string (Nusmv.model_of_class m)) models
    else begin
      (* The native claim verdict per class: any FAIL TO MEET REQUIREMENT
         report. This is the dimension §5 delegates to NuSMV, so it is the
         one --cross-check compares. *)
      let native_claims_ok name =
        not
          (List.exists
             (function
               | Report.Requirement_failure { class_name; _ } ->
                 String.equal class_name name
               | _ -> false)
             result.Pipeline.reports)
      in
      let code_of_model (m : Model.t) =
        let r = Nusmv_driver.run_text ?binary ~timeout (Nusmv.model_of_class m) in
        Format.printf "== %s ==@." m.Model.name;
        Format.printf "NuSMV: %a@." Nusmv_driver.pp_verdict r.Nusmv_driver.verdict;
        let code = Nusmv_driver.exit_code r.Nusmv_driver.verdict in
        if not cross then code
        else begin
          let native_ok = native_claims_ok m.Model.name in
          Format.printf "native claims: %s@."
            (if native_ok then "verified" else "failed");
          match r.Nusmv_driver.verdict with
          | Nusmv_driver.Verified _ | Nusmv_driver.Counterexample _ ->
            let nusmv_ok =
              match r.Nusmv_driver.verdict with
              | Nusmv_driver.Verified _ -> true
              | _ -> false
            in
            if Bool.equal nusmv_ok native_ok then begin
              Format.printf "cross-check: agreement@.";
              code
            end
            else begin
              Format.printf "cross-check: DIVERGENCE (native=%s, NuSMV=%s)@."
                (if native_ok then "verified" else "failed")
                (if nusmv_ok then "verified" else "failed");
              max code 1
            end
          | _ ->
            Format.printf "cross-check: skipped (no NuSMV verdict)@.";
            code
        end
      in
      let code = List.fold_left (fun acc m -> max acc (code_of_model m)) 0 models in
      if code <> 0 then exit code
    end
  in
  Cmd.v
    (Cmd.info "smv"
       ~doc:
         "NuSMV back end: emit the translation, or with --run execute the \
          external NuSMV on it (timeout-killed, output-classified), \
          optionally cross-checking its claim verdicts against the native \
          checker."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"emission only, or NuSMV verified every claim.";
           Cmd.Exit.info 1 ~doc:"NuSMV reported a counterexample, or --cross-check found a divergence.";
           Cmd.Exit.info 2 ~doc:"the input could not be loaded, or NuSMV rejected the emitted model.";
           Cmd.Exit.info 3 ~doc:"the NuSMV binary is missing, timed out, or crashed.";
         ])
    Term.(const run $ file_arg $ class_arg $ do_run $ cross $ binary $ timeout)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let cls =
    Arg.(
      required
      & opt (some string) None
      & info [ "c"; "class" ] ~docv:"CLASS" ~doc:"Class whose usage language to check.")
  in
  let trace_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Comma-separated operation names, e.g. 'test,open,close'.")
  in
  let run file cls trace_text =
    let result = or_die (load file) in
    let models = or_die (select_models result (Some cls)) in
    let model = List.hd models in
    let ops =
      String.split_on_char ',' trace_text
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let nfa = Depgraph.usage_nfa model in
    let trace = Trace.of_names ops in
    if Nfa.accepts nfa trace then
      Format.printf "VALID: %a is a complete usage of %s@." Trace.pp trace model.Model.name
    else begin
      Format.printf "INVALID: %a is not a complete usage of %s@." Trace.pp trace
        model.Model.name;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Check an operation trace against a class usage language.")
    Term.(const run $ file_arg $ cls $ trace_arg)

(* --- infer ----------------------------------------------------------------- *)

let infer_cmd =
  let doc = "Run the paper's behavior inference on the bundled example programs." in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Corpus program name (omit to list them).")
  in
  let run name =
    match name with
    | None ->
      List.iter
        (fun (name, p) -> Format.printf "%-28s %a@." name Prog.pp p)
        Ir_examples.corpus
    | Some name -> (
      match Ir_examples.find name with
      | p ->
        let d = Infer.denote p in
        Format.printf "program:   %a@." Prog.pp p;
        Format.printf "denote:    %a@." Infer.pp_denotation d;
        Format.printf "infer:     %a@." Regex.pp (Infer.infer p)
      | exception Not_found ->
        prerr_endline ("unknown program " ^ name);
        exit 2)
  in
  Cmd.v (Cmd.info "infer" ~doc) Term.(const run $ name_arg)

(* --- sample ---------------------------------------------------------------- *)

let sample_cmd =
  let cls =
    Arg.(
      required
      & opt (some string) None
      & info [ "c"; "class" ] ~docv:"CLASS" ~doc:"Class to sample usages of.")
  in
  let count =
    Arg.(value & opt int 5 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of samples.")
  in
  let length =
    Arg.(value & opt int 8 & info [ "l"; "length" ] ~docv:"LEN" ~doc:"Target trace length.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let run file cls count length seed =
    let result = or_die (load file) in
    let models = or_die (select_models result (Some cls)) in
    let model = List.hd models in
    let state =
      match seed with
      | Some s -> Random.State.make [| s |]
      | None -> Random.State.make_self_init ()
    in
    let samples =
      Sample.many ~state ~target_len:length ~count (Depgraph.usage_nfa model)
    in
    if samples = [] then begin
      prerr_endline "the class has no valid usage at all";
      exit 1
    end;
    List.iter
      (fun trace ->
        if trace = [] then print_endline "(empty usage)"
        else Format.printf "%a@." Trace.pp trace)
      samples
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Generate random valid usage traces of a class.")
    Term.(const run $ file_arg $ cls $ count $ length $ seed)

(* --- monitor --------------------------------------------------------------- *)

let monitor_cmd =
  let cls =
    Arg.(
      required
      & opt (some string) None
      & info [ "c"; "class" ] ~docv:"CLASS" ~doc:"Class whose protocol to monitor.")
  in
  let trace_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Comma-separated operations to feed the monitor.")
  in
  let run file cls trace_text =
    let result = or_die (load file) in
    let models = or_die (select_models result (Some cls)) in
    let model = List.hd models in
    let ops =
      String.split_on_char ',' trace_text
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let rec feed monitor = function
      | [] ->
        Format.printf "%a@." Monitor.pp monitor;
        if Monitor.may_stop monitor then print_endline "OK: legal stopping point"
        else begin
          print_endline "INCOMPLETE: stopping here violates the protocol";
          exit 1
        end
      | op :: rest -> (
        match Monitor.step monitor op with
        | Monitor.Continue monitor' ->
          Format.printf "%a@." Monitor.pp monitor';
          feed monitor' rest
        | Monitor.Reject { op; allowed } ->
          Format.printf "REJECTED '%s' (allowed: %s)@." op (String.concat ", " allowed);
          exit 1)
    in
    feed (Monitor.start model) ops
  in
  Cmd.v
    (Cmd.info "monitor" ~doc:"Replay a trace through the runtime monitor, step by step.")
    Term.(const run $ file_arg $ cls $ trace_arg)

(* --- watch ----------------------------------------------------------------- *)

let watch_cmd =
  let doc =
    "Monitor an LTLf claim along an event trace (four-valued RV verdicts after \
     every event)."
  in
  let claim =
    Arg.(
      required
      & opt (some string) None
      & info [ "claim" ] ~docv:"FORMULA" ~doc:"The LTLf claim, e.g. '(!a.open) W b.open'.")
  in
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Comma-separated events, e.g. 'a.test,a.open'.")
  in
  let run claim trace_text =
    let formula =
      match Ltl_parser.parse_result claim with
      | Ok f -> f
      | Error msg ->
        prerr_endline msg;
        exit 2
    in
    let events =
      String.split_on_char ',' trace_text
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map Symbol.intern
    in
    let alphabet =
      Symbol.Set.elements
        (Symbol.Set.union (Ltlf.atoms formula) (Symbol.Set.of_list events))
    in
    let trajectory = Ltl_monitor.verdict_trajectory ~alphabet formula events in
    List.iteri
      (fun i v ->
        let prefix = if i = 0 then "(start)" else Symbol.name (List.nth events (i - 1)) in
        Format.printf "%-16s %a@." prefix Ltl_monitor.pp_verdict v)
      trajectory;
    match List.rev trajectory with
    | Ltl_monitor.Definitely_false :: _ -> exit 1
    | _ -> ()
  in
  Cmd.v (Cmd.info "watch" ~doc) Term.(const run $ claim $ trace_arg)

(* --- lang ------------------------------------------------------------------ *)

let lang_cmd =
  let doc =
    "Compare two regular expressions (paper notation): equivalence, inclusion, \
     and a distinguishing trace if any."
  in
  let left = Arg.(required & pos 0 (some string) None & info [] ~docv:"REGEX1") in
  let right = Arg.(required & pos 1 (some string) None & info [] ~docv:"REGEX2") in
  let run left right =
    match Regex_parser.parse_result left, Regex_parser.parse_result right with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      exit 2
    | Ok r1, Ok r2 ->
      Format.printf "r1 = %a@.r2 = %a@." Regex.pp r1 Regex.pp r2;
      Format.printf "r1 ⊆ r2: %b@." (Equiv.included r1 r2);
      Format.printf "r2 ⊆ r1: %b@." (Equiv.included r2 r1);
      (match Equiv.counterexample r1 r2 with
      | None -> Format.printf "equivalent@."
      | Some w ->
        Format.printf "distinguished by: %s@."
          (if w = [] then "(the empty trace)" else Trace.to_string w);
        exit 1)
  in
  Cmd.v (Cmd.info "lang" ~doc) Term.(const run $ left $ right)

(* --- export ---------------------------------------------------------------- *)

let export_cmd =
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Directory for the .shelley model files.")
  in
  let run file cls out_dir =
    let result = or_die (load file) in
    let models = or_die (select_models result cls) in
    List.iter
      (fun (m : Model.t) ->
        let path = Filename.concat out_dir (m.Model.name ^ ".shelley") in
        Model_io.save ~path m;
        Printf.printf "wrote %s\n" path)
      models
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Extract models and write them as .shelley files (for separate \
          verification with 'check --using').")
    Term.(const run $ file_arg $ class_arg $ out_dir)

(* --- cache ----------------------------------------------------------------- *)

let cache_cmd =
  (* Maintenance acts on an existing cache: silently creating DIR here would
     turn a typo into an empty-looking cache, so a missing directory is an
     error — unlike 'check --cache', which creates its directory because a
     first (cold) run is the normal way a cache comes into being. *)
  let dir_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"The cache directory (as passed to --cache).")
  in
  let open_existing dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "error: no cache directory at %s\n%!" dir;
      exit 2
    end;
    match Cache.open_dir dir with
    | Ok c -> c
    | Error msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 2
  in
  let stats_cmd =
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "Emit the shelley.cache-stats/1 JSON object instead of the \
               human-readable table.")
    in
    let run dir json =
      let c = open_existing dir in
      let s = Cache.stats c in
      if json then print_string (Cache.stats_json s)
      else begin
        Printf.printf "cache directory: %s\n" (Cache.dir c);
        Printf.printf "live entries:    %d (%d bytes)\n" s.Cache.live_entries
          s.Cache.live_bytes;
        Printf.printf "stale entries:   %d\n" s.Cache.stale_entries;
        Printf.printf "corrupt entries: %d\n" s.Cache.corrupt_entries;
        Printf.printf "temp files:      %d\n" s.Cache.tmp_files
      end
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Scan the cache and classify every file: live entries, entries \
            written by another format version, corrupt entries, abandoned \
            temp files. Read-only.")
      Term.(const run $ dir_pos $ json)
  in
  let gc_cmd =
    let run dir =
      let c = open_existing dir in
      let r = Cache.gc c in
      Printf.printf "removed %d stale, %d corrupt, %d temp; kept %d live\n"
        r.Cache.gc_removed_stale r.Cache.gc_removed_corrupt r.Cache.gc_removed_tmp
        r.Cache.gc_kept
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Sweep everything a lookup would refuse to use — stale-version \
            entries, corrupt entries, abandoned temp files — and keep live \
            entries.")
      Term.(const run $ dir_pos)
  in
  let clear_cmd =
    let run dir =
      let c = open_existing dir in
      let n = Cache.clear c in
      Printf.printf "removed %d file%s\n" n (if n = 1 then "" else "s")
    in
    Cmd.v
      (Cmd.info "clear"
         ~doc:"Remove every entry and temp file. The directory itself is kept.")
      Term.(const run $ dir_pos)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and maintain a result cache directory (see 'shelley check \
          --cache').")
    [ stats_cmd; gc_cmd; clear_cmd ]

(* --- serve / client --------------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the verification daemon.")

let serve_cmd =
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Default per-file wall-clock deadline for requests that do \
                not set their own $(b,timeout) parameter.")
  in
  let idle_reap =
    Arg.(
      value & opt float 30.
      & info [ "idle-reap" ] ~docv:"SECONDS"
          ~doc:"Retire pool workers (and flush deferred cache stores) after \
                this much request silence; the next request respawns them.")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission queue bound: at most this many check/lint requests \
             wait for a worker; beyond it the daemon sheds with a \
             structured $(b,overloaded) error and a retry_after_ms hint.")
  in
  let max_conns =
    Arg.(
      value & opt int 512
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent connection bound (clamped below select's \
             FD_SETSIZE): a connection accepted beyond it is answered with \
             a retryable $(b,overloaded) error and closed immediately.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:
            "Largest request line accepted; an oversized frame gets a \
             structured $(b,frame_too_large) error and the connection is \
             closed.")
  in
  let read_deadline =
    Arg.(
      value & opt float 30.
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "A connection that starts a frame must finish it within this \
             long or it is reaped (slow-loris protection). Idle \
             connections with no partial frame are never reaped.")
  in
  let queue_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "queue-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Server-wide cap on how long a request may wait in the \
             admission queue before being answered $(b,expired); combined \
             with each request's own deadline_ms by taking the tighter.")
  in
  let max_worker_mem =
    Arg.(
      value & opt int 0
      & info [ "max-worker-mem" ] ~docv:"MIB"
          ~doc:
            "Cap each worker's address space (setrlimit RLIMIT_AS) so a \
             ballooning check fails as a classified resource-limit verdict \
             instead of a crash. 0 = uncapped.")
  in
  let metrics_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:
            "Rewrite the $(b,--metrics-out) snapshot atomically (temp file \
             + rename) every SECONDS while serving, so even a SIGKILLed \
             daemon leaves recent metrics behind. Requires \
             $(b,--metrics-out).")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per finished or refused work request: \
             seq, request id, client, method, outcome \
             (ok/error/shed/expired), ts_ms, queue_ms, exec_ms, and the \
             retry_after_ms hint on sheds.")
  in
  let health_window =
    Arg.(
      value & opt float 10.
      & info [ "health-window" ] ~docv:"SECONDS"
          ~doc:
            "Recency window for the $(b,health) verdict: sheds within the \
             window report $(b,overloaded), expiries or worker restarts \
             report $(b,degraded).")
  in
  let run socket jobs timeout idle_reap cache_dir metrics_out metrics_interval
      access_log health_window max_queue max_conns max_frame_bytes
      read_deadline queue_deadline max_worker_mem fault_injection =
    Checker.fault_injection := fault_injection;
    if metrics_interval <> None && metrics_out = None then begin
      prerr_endline "shelley serve: --metrics-interval requires --metrics-out";
      exit 2
    end;
    if metrics_out <> None then Obs.enable ();
    let cache = open_cache cache_dir in
    exit
      (Serve.serve ~socket ~jobs ?cache ?default_timeout:timeout ~idle_reap
         ?metrics_out ?metrics_interval ?access_log ~health_window ~max_queue
         ~max_conns ~max_frame_bytes ~read_deadline ?queue_deadline
         ~max_worker_mem ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived verification daemon: newline-delimited JSON-RPC \
          ($(b,check), $(b,lint), $(b,status), $(b,metrics), $(b,health), \
          $(b,shutdown)) over a Unix socket, multiplexing every request over \
          one supervised persistent worker pool with bounded admission (shed \
          + retry_after_ms when full), per-client fair scheduling, \
          queued-deadline expiry, frame size and read-deadline limits, and \
          per-worker memory caps. Live telemetry: per-request latency \
          histograms behind the $(b,metrics) RPC, a load-balancer-ready \
          $(b,health) verdict, an $(b,--access-log), and periodic atomic \
          $(b,--metrics-out) snapshots ($(b,--metrics-interval)). \
          SIGTERM/SIGINT drain gracefully: metrics are flushed before the \
          drain, in-flight requests finish, cache stores flush, workers are \
          reaped, exit 0. Refuses to start over the socket of a daemon that \
          is still alive."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"graceful shutdown (request or signal).";
           Cmd.Exit.info 2
             ~doc:
               "the socket could not be created, or a live daemon already \
                owns it.";
         ])
    Term.(
      const run $ socket_arg $ jobs_arg $ timeout $ idle_reap $ cache_arg
      $ metrics_out_arg $ metrics_interval $ access_log $ health_window
      $ max_queue $ max_conns $ max_frame_bytes $ read_deadline
      $ queue_deadline $ max_worker_mem $ fault_injection_arg)

let client_cmd =
  let meth =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("check", `Check);
                  ("lint", `Lint);
                  ("status", `Status);
                  ("metrics", `Metrics);
                  ("health", `Health);
                  ("shutdown", `Shutdown);
                ]))
          None
      & info [] ~docv:"METHOD"
          ~doc:
            "One of $(b,check), $(b,lint), $(b,status), $(b,metrics), \
             $(b,health), $(b,shutdown).")
  in
  let files = Arg.(value & pos_right 0 string [] & info [] ~docv:"FILE") in
  let warnings =
    Arg.(value & flag & info [ "warnings" ] ~doc:"check: include warning-level reports.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"check: narrate counterexamples.")
  in
  let lint =
    Arg.(value & flag & info [ "lint" ] ~doc:"check: also run the lint pass.")
  in
  let using =
    Arg.(
      value & opt_all string []
      & info [ "using" ] ~docv:"MODEL" ~doc:"check: model files to pre-load.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-file wall-clock deadline.")
  in
  let format =
    Arg.(
      value & opt (some string) None
      & info [ "format" ] ~docv:"FMT" ~doc:"lint: text, json or sarif.")
  in
  let retries =
    Arg.(
      value & opt int Serve.default_retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry budget when the daemon is unreachable or sheds with \
             $(b,overloaded): up to N retries under capped exponential \
             backoff with jitter, honoring the daemon's retry_after_ms \
             hint. 0 = fail fast.")
  in
  let priority =
    Arg.(
      value
      & opt (some int) None
      & info [ "priority" ] ~docv:"N"
          ~doc:
            "check/lint: scheduling priority in the daemon's admission \
             queue — higher dispatches sooner (default 0).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "check/lint: give up if the request would wait more than MS \
             milliseconds in the daemon's queue (answered $(b,expired), \
             exit 3).")
  in
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:
            "status/metrics/health: re-poll every SECONDS and print one \
             summary line per poll, with deltas against the previous poll \
             for the monotonic counters.")
  in
  let polls =
    Arg.(
      value & opt int 0
      & info [ "polls" ] ~docv:"N"
          ~doc:"With $(b,--watch): stop after N polls. 0 = poll forever.")
  in
  (* One --watch summary line: gauges first (health verdict, quantiles,
     queue occupancy), then the monotonic counters with their delta since
     the previous poll. *)
  let watch_render meth result prev =
    let get path =
      List.fold_left
        (fun acc k -> Option.bind acc (Jsonl.member k))
        (Some result) path
    in
    let int_at path =
      Option.map int_of_float (Option.bind (get path) Jsonl.to_num)
    in
    let counter_paths =
      match meth with
      | `Health -> [ ("shed", [ "shed" ]); ("expired", [ "expired" ]) ]
      | _ ->
        [
          ("requests", [ "requests" ]);
          ("errors", [ "errors" ]);
          ("shed", [ "load"; "shed" ]);
          ("expired", [ "load"; "expired" ]);
        ]
    in
    let counters =
      List.map
        (fun (name, path) -> (name, Option.value (int_at path) ~default:0))
        counter_paths
    in
    let delta (name, v) =
      match List.assoc_opt name prev with
      | Some p -> Printf.sprintf "%s=%d (%+d)" name v (v - p)
      | None -> Printf.sprintf "%s=%d" name v
    in
    let queue =
      let depth, cap =
        match meth with
        | `Health -> ([ "queue_depth" ], [ "max_queue" ])
        | _ -> ([ "load"; "queue_depth" ], [ "load"; "max_queue" ])
      in
      Printf.sprintf "queue=%d/%d"
        (Option.value (int_at depth) ~default:0)
        (Option.value (int_at cap) ~default:0)
    in
    let gauges =
      match meth with
      | `Health ->
        let verdict =
          Option.value (Option.bind (get [ "health" ]) Jsonl.to_str) ~default:"?"
        in
        let reasons =
          match Option.bind (get [ "reasons" ]) Jsonl.to_list with
          | Some rs -> List.filter_map Jsonl.to_str rs
          | None -> []
        in
        [
          Printf.sprintf "health=%s%s" verdict
            (if reasons = [] then ""
             else "[" ^ String.concat "," reasons ^ "]");
        ]
      | `Metrics ->
        let q name =
          match int_at [ "methods"; "check"; "exec_ms"; name ] with
          | Some v -> string_of_int v
          | None -> "-"
        in
        [ Printf.sprintf "check_exec_ms p50=%s p99=%s" (q "p50") (q "p99") ]
      | _ -> []
    in
    ( String.concat " " (gauges @ (queue :: List.map delta counters)),
      counters )
  in
  (* Send the request; return the response's result object, or report the
     failure on stderr and exit: unreachable or unparseable → 2, still
     overloaded after the retries → 4, an error response → its code. *)
  let call socket retries request =
    match Serve.client_request ~socket ~retries (Jsonl.to_string request) with
    | Error (`Unreachable (attempts, msg)) ->
      prerr_endline (Printf.sprintf "shelley client: %s (%d attempts)" msg attempts);
      exit 2
    | Error (`Overloaded (attempts, _)) ->
      prerr_endline
        (Printf.sprintf "shelley client: daemon still overloaded after %d attempts"
           attempts);
      exit 4
    | Ok line -> (
      match Jsonl.parse line with
      | Error msg ->
        prerr_endline ("shelley client: unparseable response: " ^ msg);
        exit 2
      | Ok resp -> (
        match Jsonl.mem_str "error" resp with
        | Some msg ->
          prerr_endline msg;
          exit
            (match Jsonl.mem_num "code" resp with
            | Some f -> int_of_float f
            | None -> 2)
        | None -> Jsonl.member "result" resp))
  in
  let run socket meth files warnings explain lint using timeout format retries
      priority deadline_ms watch polls =
    let params =
      let open Jsonl in
      let base =
        match meth with
        | `Check ->
          [
            ("files", Arr (List.map (fun f -> Str f) files));
            ("warnings", Bool warnings);
            ("explain", Bool explain);
            ("lint", Bool lint);
            ("using", Arr (List.map (fun f -> Str f) using));
          ]
        | `Lint -> (
          [ ("files", Arr (List.map (fun f -> Str f) files)) ]
          @ match format with Some f -> [ ("format", Str f) ] | None -> [])
        | `Status | `Metrics | `Health | `Shutdown -> []
      in
      base
      @ (match timeout with Some t -> [ ("timeout", Num t) ] | None -> [])
      @ (match priority with
        | Some p -> [ ("priority", Num (float_of_int p)) ]
        | None -> [])
      @
      match deadline_ms with Some ms -> [ ("deadline_ms", Num ms) ] | None -> []
    in
    let method_name =
      match meth with
      | `Check -> "check"
      | `Lint -> "lint"
      | `Status -> "status"
      | `Metrics -> "metrics"
      | `Health -> "health"
      | `Shutdown -> "shutdown"
    in
    let request =
      Jsonl.(
        Obj
          [
            ("id", Num 1.); ("method", Str method_name); ("params", Obj params);
          ])
    in
    (match (watch, meth) with
    | None, _ | Some _, (`Status | `Metrics | `Health) -> ()
    | Some _, _ ->
      prerr_endline "shelley client: --watch applies to status, metrics and health";
      exit 2);
    (match watch with
    | Some interval ->
      (* Re-poll, one summary line per poll; counters carry deltas. Any
         transport or protocol failure ends the watch with the usual exit
         codes. *)
      let rec poll i prev =
        let result = Option.value (call socket retries request) ~default:(Jsonl.Obj []) in
        let rendered, counters = watch_render meth result prev in
        print_endline rendered;
        flush stdout;
        if polls > 0 && i + 1 >= polls then ()
        else begin
          Unix.sleepf (Float.max 0.0 interval);
          poll (i + 1) counters
        end
      in
      poll 0 [];
      exit 0
    | None -> ());
    match call socket retries request with
    | None ->
      prerr_endline "shelley client: malformed response";
      exit 2
    | Some result -> (
      match Jsonl.mem_str "output" result with
      | Some output ->
        (* check / lint: replay the one-shot stdout byte-for-byte and exit
           with the one-shot code. *)
        print_string output;
        let code =
          match Jsonl.mem_num "code" result with
          | Some f -> int_of_float f
          | None -> 0
        in
        if code <> 0 then exit code
      | None ->
        (* status / metrics / health / shutdown: print the result object
           as one line. *)
        print_endline (Jsonl.to_string result))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,shelley serve) daemon and print \
          the response: check/lint replay the one-shot CLI's stdout and exit \
          code byte-for-byte; status/metrics/health/shutdown print the raw \
          JSON result. $(b,--watch SECS) re-polls status/metrics/health and \
          prints one summary line per poll with counter deltas. Connection \
          failures and $(b,overloaded) sheds are retried transparently (see \
          $(b,--retries)); shed-and-exhausted exits 4, distinct from \
          protocol failure (2)."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"request succeeded.";
           Cmd.Exit.info 2 ~doc:"connection or protocol failure.";
           Cmd.Exit.info 3
             ~doc:"the request expired in the daemon's queue (--deadline-ms).";
           Cmd.Exit.info 4
             ~doc:"the daemon was still shedding after the retry budget.";
         ])
    Term.(
      const run $ socket_arg $ meth $ files $ warnings $ explain $ lint $ using
      $ timeout $ format $ retries $ priority $ deadline_ms $ watch $ polls)

let main_cmd =
  let doc = "Shelley-style model inference and checking for MicroPython (DSN-W 2023)." in
  Cmd.group
    (Cmd.info "shelley" ~version:Cache.tool_version ~doc)
    [
      export_cmd;
      check_cmd;
      lint_cmd;
      claims_cmd;
      serve_cmd;
      client_cmd;
      cache_cmd;
      model_cmd;
      viz_cmd;
      nusmv_cmd;
      smv_cmd;
      trace_cmd;
      infer_cmd;
      sample_cmd;
      monitor_cmd;
      watch_cmd;
      lang_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
