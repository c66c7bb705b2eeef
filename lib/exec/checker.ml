type verdict = {
  path : string;
  output : string;
  code : int;
  profile : Obs.profile option;
}

(* Deliberate misbehavior for the fault-injection tests: a worker that hangs
   (until the deadline kills it) or dies by SIGKILL (as the OOM killer
   would), triggered by substring match on the checked path. Armed only by
   an explicit in-process opt-in ([fault_injection], set by the hidden
   --fault-injection flag or directly by tests): a stale SHELLEY_FAULT
   variable inherited from some test environment must never be able to
   sabotage a real verification run on its own. The ref itself lives in
   {!Supervisor} so the process-plumbing faults (garbage / wedge /
   forkfail) share the same master switch. *)
let fault_injection = Supervisor.fault_injection

let fault_hook path =
  List.iter
    (function
      | "hang" ->
        while true do
          Unix.sleepf 0.05
        done
      | "crash" -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | "slow" -> Unix.sleepf 1.0
      | "balloon" ->
        (* Allocate until the worker's RLIMIT_AS cap turns into a
           catchable Out_of_memory. Bounded at ~4 GiB so arming this in an
           uncapped process is a no-op rather than a host-wide memory
           grab. *)
        let hoard = ref [] in
        (try
           for _ = 1 to 256 do
             hoard := Bytes.create (16 * 1024 * 1024) :: !hoard
           done
         with Out_of_memory ->
           hoard := [];
           raise Out_of_memory);
        hoard := []
      | _ -> ())
    (Supervisor.faults_for path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Result caching ---------------------------------------------------------

   One cache entry = one fully rendered per-file result, wrapped in a variant
   so a key that somehow named the wrong mode's entry decodes to a visibly
   wrong constructor (treated as a miss) instead of a type confusion. Both
   constructors are marshal-safe by construction — the same property that
   lets them cross the worker pipe lets them live on disk. *)
type cache_payload =
  | Cached_check of {
      output : string;
      code : int;
    }
  | Cached_lint of Lint.file_result

let limits_key_parts ~states (l : Limits.t) =
  (* The wall-clock deadline is deliberately absent: it can prevent a
     verdict (and timed-out units are never stored), but it cannot change
     one, so results computed with and without --timeout share entries.
     [max_states] is read only by the lint pass (SY101's determinization),
     so a plain check does not key on it. *)
  (if states then [ Printf.sprintf "max_states=%d" l.Limits.max_states ] else [])
  @ [
      Printf.sprintf "max_configs=%d" l.Limits.max_configs;
      Printf.sprintf "max_regex_size=%d" l.Limits.max_regex_size;
    ]

(* The path is key material, not just the content: rendered blocks and lint
   findings embed it ("== path ==", "path:line:"), so two files with equal
   bytes at different paths must not share an entry — the second would
   replay the first one's header. A renamed file recomputes once; that is
   the cheap side of the trade. *)
let check_cache_key ?(limits = Limits.default) ?(warnings = false) ?(explain = false)
    ?(lint = false) ?(extra = []) ~path source =
  Cache.key
    ([
       "mode=check/1";
       "tool=" ^ Cache.tool_version;
       "semantics=" ^ Pipeline.semantics_version;
       "path=" ^ path;
       "src=" ^ Digest.to_hex (Digest.string source);
     ]
    @ limits_key_parts ~states:lint limits
    @ [
        Printf.sprintf "warnings=%b" warnings;
        Printf.sprintf "explain=%b" explain;
        Printf.sprintf "lint=%b" lint;
      ]
    @ (if lint then [ "rules=" ^ Rules.fingerprint ] else [])
    @ List.map (fun e -> "extra=" ^ e) extra)

let lint_cache_key ?(limits = Limits.default)
    ?(thresholds = Lint_semantic.default_thresholds) ?(extra = []) ~path source =
  Cache.key
    ([
       "mode=lint/1";
       "tool=" ^ Cache.tool_version;
       "semantics=" ^ Pipeline.semantics_version;
       "rules=" ^ Rules.fingerprint;
       "path=" ^ path;
       "src=" ^ Digest.to_hex (Digest.string source);
     ]
    @ limits_key_parts ~states:true limits
    @ [
        Printf.sprintf "max_behavior_size=%d" thresholds.Lint_semantic.max_behavior_size;
        Printf.sprintf "max_star_height=%d" thresholds.Lint_semantic.max_star_height;
        Printf.sprintf "entail_fuel=%d" thresholds.Lint_semantic.entail_fuel;
        Printf.sprintf "race_fuel=%d" thresholds.Lint_semantic.race_fuel;
      ]
    @ List.map (fun e -> "extra=" ^ e) extra)

(* [check --lint] appends only what plain [check] does not already say:
   the structural checks (SY001–SY007), syntax errors (SY010/SY011) and
   extraction diagnostics (SY020) are printed by the pipeline as reports,
   so the lint pass contributes the purely semantic codes on top. *)
let lint_only (d : Lint.diagnostic) =
  match d.Lint.rule with
  | "SY001" | "SY002" | "SY003" | "SY004" | "SY005" | "SY006" | "SY007" | "SY010"
  | "SY011" | "SY020" ->
    false
  | _ -> true

(* Renders exactly what the sequential `shelley check` loop has always
   printed, but into a buffer, so the parent process can replay blocks in
   input order no matter which worker finished first. *)
let check_file_raw ?(limits = Limits.default) ?(warnings = false) ?(explain = false)
    ?(lint = false) ?(extra_env = fun _ -> None) path =
  fault_hook path;
  match read_file path with
  | exception Sys_error msg ->
    ( Format.asprintf "== %s ==@.Error: cannot read file: %s@.@." path msg,
      2 )
  | source ->
    let result = Pipeline.verify_source ~extra_env ~limits source in
    let reports =
      if warnings then result.Pipeline.reports else Report.errors result.Pipeline.reports
    in
    let lint_result =
      if not lint then None
      else begin
        let r = Lint.lint_source ~limits ~file:path source in
        Some { r with Lint.findings = List.filter lint_only r.Lint.findings }
      end
    in
    let lint_findings =
      match lint_result with
      | None -> []
      | Some r -> r.Lint.findings
    in
    let buf = Buffer.create 256 in
    let fmt = Format.formatter_of_buffer buf in
    if reports <> [] || lint_findings <> [] then begin
      Format.fprintf fmt "== %s ==@." path;
      List.iter
        (fun r ->
          Format.fprintf fmt "%a@.@." Report.pp r;
          if explain then
            List.iter
              (fun model ->
                match Explain.of_report ~model r with
                | Some explanation -> Format.fprintf fmt "%a@.@." Explain.pp explanation
                | None -> (
                  match Explain.claim_context_of_report ~limits ~model r with
                  | Some ctx ->
                    Format.fprintf fmt "%a@.@." Explain.pp_claim_context ctx
                  | None -> ()))
              result.Pipeline.models)
        reports;
      List.iter
        (fun d -> Format.fprintf fmt "%s@." (Lint_render.text_line d))
        lint_findings;
      if lint_findings <> [] then Format.fprintf fmt "@."
    end;
    Format.pp_print_flush fmt ();
    let code =
      if List.exists Report.is_resource_limit result.Pipeline.reports then 3
      else if List.exists Report.is_syntax_error result.Pipeline.reports then 2
      else if not (Pipeline.verified result) then 1
      else 0
    in
    let code =
      match lint_result with
      | None -> code
      | Some r -> max code (Lint.file_exit_code r)
    in
    (Buffer.contents buf, code)

let fault_block path report =
  Format.asprintf "== %s ==@.%a@.@." path Report.pp report

(* Annotate each path with its cache fate before any forking: [Some verdict]
   for a hit, otherwise the key the worker should store its result under
   (and [None] keys for unreadable files and uncached runs). Lookups happen
   in the orchestrator so hit entries are read once, not once per worker. *)
let annotate ~cache ~key_of ~hit_of paths =
  List.map
    (fun path ->
      match cache with
      | None -> (path, None, None)
      | Some c -> (
        match read_file path with
        | exception Sys_error _ -> (path, None, None)
        | source -> (
          let key = key_of ~path source in
          match (Cache.find c key : cache_payload option) with
          | Some payload -> (
            match hit_of path payload with
            | Some hit -> (path, Some hit, Some key)
            | None ->
              (* The key named an entry of the wrong mode: only possible if
                 key composition is broken, so refuse the value and
                 recompute. *)
              (path, None, Some key))
          | None -> (path, None, Some key))))
    paths

(* --- The pooled job engine --------------------------------------------------

   One marshal-safe job type covers both modes, so a single persistent
   {!Supervisor} pool (and a single long-running daemon) serves check and
   lint requests alike. [Limits.t] holds a mutable ledger and [Usage.env]
   is a closure — neither crosses a pipe — so a job carries the raw budget
   numbers and the [--using] paths instead, and the worker rebuilds both. *)

type job_mode =
  | Job_check of {
      warnings : bool;
      explain : bool;
      lint : bool;
    }
  | Job_lint of {
      max_behavior_size : int;
      max_star_height : int;
      entail_fuel : int;
      race_fuel : int;
    }

type job_spec = {
  job_path : string;
  job_mode : job_mode;
  job_max_states : int;
  job_max_configs : int;
  job_max_regex_size : int;
  job_reduced : bool;  (* second attempt: rebuild under Limits.reduced *)
  job_using : string list;
}

(* A worker answers with exactly what the cache stores for the file, so the
   orchestrator stores it as it comes. *)
type job_result = {
  jr_payload : cache_payload;
  jr_profile : Obs.profile option;
}

(* Workers are persistent, so the [--using] environment is rebuilt at most
   once per (paths, content digests) — a daemon picks up edits to a model
   file between requests, while a batch pays the parse once. *)
let using_memo : (string, Usage.env) Hashtbl.t = Hashtbl.create 4

let env_of_using = function
  | [] -> fun _ -> None
  | paths -> (
    let digest p =
      match Digest.to_hex (Digest.file p) with
      | d -> d
      | exception Sys_error _ -> "unreadable"
    in
    let key = String.concat "\x00" (List.map (fun p -> p ^ "#" ^ digest p) paths) in
    match Hashtbl.find_opt using_memo key with
    | Some env -> env
    | None ->
      let env =
        match Model_io.env_of_files paths with
        | Ok env -> env
        | Error _ ->
          (* The CLI validates --using before any job runs; reaching this
             means the file broke between validation and execution. An
             empty environment keeps the job total — missing methods then
             surface as ordinary verification reports. *)
          fun _ -> None
      in
      Hashtbl.add using_memo key env;
      env)

let job_limits (j : job_spec) =
  let l =
    Limits.make ~max_states:j.job_max_states ~max_configs:j.job_max_configs
      ~max_regex_size:j.job_max_regex_size ()
  in
  if j.job_reduced then Limits.reduced l else l

let engine_result path (rule : Rules.t) message =
  {
    Lint.lint_file = path;
    findings =
      [
        {
          Lint.rule = rule.Rules.code;
          rule_name = rule.Rules.name;
          severity = rule.Rules.severity;
          file = path;
          line = 0;
          class_name = "";
          message;
        };
      ];
    suppressed = [];
  }

(* The address-space cap this worker runs under (MiB), set by [make_pool]'s
   after_fork hook inside the child; 0 in uncapped workers and in-process
   runs. Only used to *render* the limit in the report — enforcement is
   setrlimit's. *)
let worker_mem_cap = ref 0

let oom_report () =
  Report.Resource_limit
    {
      class_name = "<worker>";
      check = "memory";
      resource = "worker address space MiB";
      limit = !worker_mem_cap;
    }

(* The worker function fixed into every pool at fork time. Each job runs
   inside its own [Obs] unit with a fresh ledger, so a worker's 1000th task
   profiles exactly like its first, and its span tree and counters come
   back as one marshal-safe profile (strings and ints only), identical in
   shape whether the job ran in-process or in a forked worker. An
   allocation that blows through the worker's RLIMIT_AS cap surfaces here
   as [Out_of_memory] and is rendered as a resource-limit verdict (exit 3),
   not a crash: running out of budget is a classified outcome, same as
   running out of fuel. *)
let run_job (j : job_spec) : job_result =
  let limits = job_limits j in
  let payload, profile =
    match j.job_mode with
    | Job_check { warnings; explain; lint } ->
      let extra_env = env_of_using j.job_using in
      Obs.in_unit ~name:j.job_path (fun () ->
          let output, code =
            try check_file_raw ~limits ~warnings ~explain ~lint ~extra_env j.job_path
            with Out_of_memory -> (fault_block j.job_path (oom_report ()), 3)
          in
          Cached_check { output; code })
    | Job_lint { max_behavior_size; max_star_height; entail_fuel; race_fuel } ->
      let thresholds =
        { Lint_semantic.max_behavior_size; max_star_height; entail_fuel; race_fuel }
      in
      Obs.in_unit ~name:j.job_path (fun () ->
          Cached_lint
            (try
               fault_hook j.job_path;
               Lint.lint_path ~limits ~thresholds j.job_path
             with Out_of_memory ->
               engine_result j.job_path Rules.rule_resource_limit
                 (Printf.sprintf
                    "linting exceeded the worker's %d MiB address-space cap"
                    !worker_mem_cap)))
  in
  { jr_payload = payload; jr_profile = profile }

type pool = (job_spec, job_result) Supervisor.t

let make_pool ?(after_fork = fun () -> ()) ?(max_as_mb = 0) ?(jobs = 1) () =
  let after_fork () =
    worker_mem_cap := max_as_mb;
    after_fork ()
  in
  Supervisor.create ~after_fork
    ~label:(fun j -> j.job_path)
    (Supervisor.config ~jobs ~max_as_mb ())
    run_job

let pool_stats = Supervisor.stats
let pool_worker_pids = Supervisor.worker_pids
let pool_workers = Supervisor.workers
let quiesce_pool = Supervisor.quiesce
let shutdown_pool = Supervisor.shutdown

(* The reduced-budget second attempt is the same task transformed, because
   the worker function is fixed at fork time. *)
let retry_spec j = { j with job_reduced = true }

(* In-process fast path for [jobs <= 1] with no deadline and no pool: same
   settle/retry semantics as the pool, no forks at all. *)
let settle_inline spec =
  let attempt s n : job_result Supervisor.settled =
    match run_job s with
    | r -> { Supervisor.outcome = Supervisor.Done r; lane = 0; attempts = n }
    | exception exn ->
      {
        Supervisor.outcome =
          Supervisor.Crashed { reason = Printexc.to_string exn; attempts = n };
        lane = 0;
        attempts = n;
      }
  in
  match attempt spec 1 with
  | { Supervisor.outcome = Supervisor.Done _; _ } as s -> s
  | _ -> attempt (retry_spec spec) 2

let run_specs ?pool ~jobs ~(limits : Limits.t) specs =
  match pool with
  | Some p -> Supervisor.run ~retry:retry_spec ?deadline:limits.Limits.deadline p specs
  | None ->
    if jobs <= 1 && limits.Limits.deadline = None then List.map settle_inline specs
    else begin
      let p = make_pool ~jobs () in
      Fun.protect
        ~finally:(fun () -> Supervisor.shutdown p)
        (fun () ->
          Supervisor.run ~retry:retry_spec ?deadline:limits.Limits.deadline p specs)
    end

(* The one file-run engine behind {!check_files} and {!lint_files}:
   annotate each path with its cache fate, run the misses through the pool,
   store, then replay hits and outcomes strictly in input order, so the
   aggregate is byte-identical whatever mix of hits, misses and jobs levels
   produced it. [verdict path profile payload] reads a payload of the
   caller's mode ([None] for the other mode's); [failed path reason] renders
   a unit that timed out or crashed on every attempt. *)
let run_files ?pool ~jobs ~limits ~cache ~key_of ~job_mode ~using ~verdict ~failed paths =
  let annotated =
    annotate ~cache ~key_of ~hit_of:(fun path -> verdict path None) paths
  in
  let misses =
    List.filter_map
      (fun (path, hit, key) -> if Option.is_none hit then Some (path, key) else None)
      annotated
  in
  let spec (path, _key) =
    {
      job_path = path;
      job_mode;
      job_max_states = limits.Limits.max_states;
      job_max_configs = limits.Limits.max_configs;
      job_max_regex_size = limits.Limits.max_regex_size;
      job_reduced = false;
      job_using = using;
    }
  in
  let settled = run_specs ?pool ~jobs ~limits (List.map spec misses) in
  (* Stores happen in the orchestrator, after the pool settles: a result is
     stored only when its {e first} attempt succeeded — the reduced-budget
     retry answers a smaller-fuel question than the key was composed for.
     (Workers cannot store: a persistent worker's cwd-relative cache handle
     could go stale, and crashed/timed-out units must never be stored.) *)
  Option.iter
    (fun c ->
      List.iter2
        (fun (_path, key) (s : job_result Supervisor.settled) ->
          match (key, s.Supervisor.outcome, s.Supervisor.attempts) with
          | Some k, Supervisor.Done jr, 1 -> Cache.store c k jr.jr_payload
          | _ -> ())
        misses settled)
    cache;
  let of_settled path (s : job_result Supervisor.settled) =
    match s.Supervisor.outcome with
    | Supervisor.Done jr ->
      (* Merge the worker's profile into the parent recorder under its pool
         lane; the sinks then see one timeline row per worker. *)
      Option.iter (Obs.add_unit ~lane:s.Supervisor.lane) jr.jr_profile;
      (* [run_job] answers in its job's mode, so [verdict] accepts it. *)
      Option.get (verdict path jr.jr_profile jr.jr_payload)
    | Supervisor.Timed_out { seconds; attempts } ->
      Obs.count "checker.timeout_units" 1;
      failed path (`Timed_out (seconds, attempts))
    | Supervisor.Crashed { reason; attempts } ->
      Obs.count "checker.crashed_units" 1;
      failed path (`Crashed (reason, attempts))
  in
  let rec replay annotated settled =
    match (annotated, settled) with
    | [], _ -> []
    | (_, Some hit, _) :: rest, _ -> hit :: replay rest settled
    | (path, None, _) :: rest, s :: more -> of_settled path s :: replay rest more
    | (_, None, _) :: _, [] ->
      (* The pool returns exactly one outcome per submitted task. *)
      invalid_arg "Checker.run_files: outcome list too short"
  in
  replay annotated settled

let check_files ?(jobs = 1) ?(limits = Limits.default) ?(warnings = false)
    ?(explain = false) ?(lint = false) ?(using = []) ?pool ?cache ?(cache_extra = [])
    paths =
  run_files ?pool ~jobs ~limits ~cache
    ~key_of:(check_cache_key ~limits ~warnings ~explain ~lint ~extra:cache_extra)
    ~job_mode:(Job_check { warnings; explain; lint })
    ~using
    ~verdict:(fun path profile -> function
      | Cached_check { output; code } -> Some { path; output; code; profile }
      | Cached_lint _ -> None)
    ~failed:(fun path failure ->
      let report =
        match failure with
        | `Timed_out (seconds, attempts) ->
          Report.Timeout { unit_name = path; seconds; attempts }
        | `Crashed (reason, attempts) ->
          Report.Worker_crashed { unit_name = path; reason; attempts }
      in
      { path; output = fault_block path report; code = 3; profile = None })
    paths

let exit_code verdicts = List.fold_left (fun acc v -> max acc v.code) 0 verdicts

(* Linting runs the same engine: the job carries the lint thresholds, the
   result a [Lint.file_result] — plain strings, ints and a small variant, so
   it marshals across the worker pipe. *)
let lint_files ?(jobs = 1) ?(limits = Limits.default)
    ?(thresholds = Lint_semantic.default_thresholds) ?pool ?cache ?(cache_extra = [])
    paths =
  run_files ?pool ~jobs ~limits ~cache
    ~key_of:(lint_cache_key ~limits ~thresholds ~extra:cache_extra)
    ~job_mode:
      (Job_lint
         {
           max_behavior_size = thresholds.Lint_semantic.max_behavior_size;
           max_star_height = thresholds.Lint_semantic.max_star_height;
           entail_fuel = thresholds.Lint_semantic.entail_fuel;
           race_fuel = thresholds.Lint_semantic.race_fuel;
         })
    ~using:[]
    ~verdict:(fun _path _profile -> function
      | Cached_lint result -> Some result
      | Cached_check _ -> None)
    ~failed:(fun path -> function
      | `Timed_out (seconds, attempts) ->
        engine_result path Rules.rule_resource_limit
          (Printf.sprintf "linting exceeded the %gs wall-clock deadline (%d attempts)"
             seconds attempts)
      | `Crashed (reason, attempts) ->
        engine_result path Rules.rule_internal_error
          (Printf.sprintf "lint worker died without a result: %s (%d attempts)" reason
             attempts))
    paths
