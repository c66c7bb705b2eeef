(* The in-process replay of the traced run: every unit goes through the
   layers' public functions in pipeline order, one benchmark span per call,
   so each layer's self time is measured from outside the library. *)

let guard f = try f () with Limits.Budget_exceeded _ -> []

let parse tr source =
  Probe.span tr "micropython.parse" (fun () -> Mpy_parser.parse_program_tolerant source)

let extract tr (program : Mpy_ast.program) =
  List.filter_map
    (fun (cls : Mpy_ast.class_def) ->
      Probe.span tr "core.extract" (fun () ->
          match Extract.extract_class cls with
          | e -> Some (cls, e)
          | exception _ -> None))
    program.Mpy_ast.prog_classes

let env_of extractions name =
  List.find_map
    (fun (_, (e : Extract.result)) ->
      if String.equal e.Extract.model.Model.name name then Some e.Extract.model else None)
    extractions

(* Usage.expanded_nfa on its own: the Glushkov and shuffle constructions the
   usage and claim checks both start from. *)
let expand tr ~limits (model : Model.t) =
  Probe.span tr "automata.expand" (fun () ->
      try ignore (Usage.expanded_nfa ~limits model) with Limits.Budget_exceeded _ -> ())

(* The check pipeline ([Pipeline.verify_source]); returns the exit code the
   file gets from [shelley check]. *)
let check tr source =
  let limits = Limits.make () in
  let program, diags = parse tr source in
  let extractions = extract tr program in
  let env = env_of extractions in
  let reports =
    List.concat_map
      (fun (cls, (e : Extract.result)) ->
        let model = e.Extract.model in
        let validate = Probe.span tr "core.validate" (fun () -> Validate.check model) in
        expand tr ~limits model;
        let usage = Probe.span tr "core.usage" (fun () -> guard (fun () -> Usage.check ~limits ~env model)) in
        let claims = Probe.span tr "core.claims" (fun () -> guard (fun () -> Claims.check ~limits model)) in
        let other =
          Probe.span tr "core.other" (fun () ->
              guard (fun () -> Invocation.check ~env ~model cls)
              @ guard (fun () -> Refine.check_inheritance ~limits ~env cls model))
        in
        e.Extract.diagnostics @ validate @ usage @ claims @ other)
      extractions
  in
  if diags <> [] then 2 else if Report.errors reports <> [] then 1 else 0

let rule_span (rule : Rules.t) = "lint.rule." ^ rule.Rules.code

let codes (r : Lint.file_result) =
  List.sort_uniq compare (List.map (fun (d : Lint.diagnostic) -> d.Lint.rule) r.Lint.findings)

(* The lint engine as a whole ([Lint.lint_source]), then its parts: the
   shared claim analysis and each semantic rule through [make_ctx], with the
   analysis already memoized so a rule's span holds only its own work.
   Returns the sorted distinct codes of the whole-engine run. *)
let lint tr ~file source =
  let result = Probe.span tr "lint.source" (fun () -> Lint.lint_source ~file source) in
  let limits = Limits.make () in
  let thresholds = Lint_semantic.default_thresholds in
  let program, _ = parse tr source in
  let extractions = extract tr program in
  let env = env_of extractions in
  List.iter
    (fun (cls, (e : Extract.result)) ->
      let model = e.Extract.model in
      expand tr ~limits model;
      let ctx = Lint_semantic.make_ctx ~limits ~thresholds ~env ~cls ~model in
      if model.Model.claims <> [] then
        Probe.span tr "lint.claim_analysis" (fun () ->
            match
              Lint_semantic.analyze_claims ~fuel:thresholds.Lint_semantic.entail_fuel ~limits
                model
            with
            | a -> ctx.Lint_semantic.claim_memo <- Some a
            | exception Limits.Budget_exceeded _ -> ());
      List.iter
        (fun (rule, run) ->
          Probe.span tr (rule_span rule) (fun () ->
              ignore (guard (fun () -> run ctx))))
        Lint_semantic.rules)
    extractions;
  codes result
