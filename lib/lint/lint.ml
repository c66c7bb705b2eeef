type diagnostic = {
  rule : string;
  rule_name : string;
  severity : Report.severity;
  file : string;
  line : int;
  class_name : string;
  message : string;
}

type file_result = {
  lint_file : string;
  findings : diagnostic list;
  suppressed : diagnostic list;
}

let diag ?(line = 0) ?(class_name = "") ?severity (rule : Rules.t) ~file message =
  {
    rule = rule.Rules.code;
    rule_name = rule.Rules.name;
    severity = Option.value severity ~default:rule.Rules.severity;
    file;
    line;
    class_name;
    message;
  }

(* Exception barrier around one rule of one class, with the pipeline's span
   and counter conventions: findings are counted per rule code; a blown
   budget or a crash becomes an engine diagnostic for this class while the
   other rules still run. *)
let guarded_rule ~file ~class_name (rule : Rules.t) f =
  Obs.with_span
    ~args:[ ("class", class_name); ("rule", rule.Rules.code) ]
    ("lint." ^ rule.Rules.name)
  @@ fun () ->
  match f () with
  | found ->
    if found <> [] then Obs.count ("lint.findings." ^ rule.Rules.code) (List.length found);
    List.map (fun (line, message) -> diag ?line ~class_name rule ~file message) found
  | exception Limits.Budget_exceeded { resource; limit } ->
    Obs.count "lint.rules_budget_exceeded" 1;
    [
      diag ~class_name Rules.rule_resource_limit ~file
        (Printf.sprintf "lint rule %s (%s) exceeded its budget: %s (limit %d)"
           rule.Rules.code rule.Rules.name resource limit);
    ]
  | exception exn ->
    Obs.count "lint.rules_crashed" 1;
    [
      diag ~class_name Rules.rule_internal_error ~file
        (Printf.sprintf "lint rule %s (%s) failed: %s" rule.Rules.code rule.Rules.name
           (Printexc.to_string exn));
    ]

(* The front end's reports in lint's terms: extraction diagnostics
   (Report.Structural) get the SY020 umbrella code but keep their own
   severity and wording; syntax errors are SY010; a class the barrier kept
   from being extracted is SY090 or SY091. *)
let of_front_report ~file report =
  match (report : Report.t) with
  | Report.Structural { class_name; line; severity; message } ->
    Some (diag ?line ~class_name ~severity Rules.annotation_error ~file message)
  | Report.Syntax_error { line; col; message } ->
    Some
      (diag ~line Rules.syntax_error ~file
         (Printf.sprintf "syntax error (col %d): %s" col message))
  | Report.Resource_limit { class_name; resource; limit; _ } ->
    Some
      (diag ~class_name Rules.rule_resource_limit ~file
         (Printf.sprintf "extraction exceeded its budget: %s (limit %d)" resource limit))
  | Report.Internal_error { class_name; message; _ } ->
    Some
      (diag ~class_name Rules.rule_internal_error ~file ("extraction failed: " ^ message))
  | _ -> None

let structural_diagnostics ~file (model : Model.t) =
  List.map
    (fun ((rule : Rules.t), line, message) ->
      diag ?line ~class_name:model.Model.name rule ~file message)
    (Validate.diagnostics model)

let semantic_diagnostics ~limits ~thresholds ~env ~file (cls, model) =
  let ctx = Lint_semantic.make_ctx ~limits ~thresholds ~env ~cls ~model in
  List.concat_map
    (fun (rule, run) ->
      guarded_rule ~file ~class_name:model.Model.name rule (fun () -> run ctx))
    Lint_semantic.rules

(* --- Suppressions ----------------------------------------------------------

   A suppression comment governs its own line when it trails code, and the
   next line when it stands alone — so both of these silence the SY101 on
   the operation at line 12:

     12  @op    # shelley: disable=SY101
     --
     11  # shelley: disable=SY101
     12  @op
*)
let suppression_plan source =
  let sups = Mpy_parser.suppressions source in
  let governed =
    List.map
      (fun (s : Mpy_parser.suppression) ->
        let line = if s.Mpy_parser.sup_standalone then s.sup_line + 1 else s.sup_line in
        (line, s.Mpy_parser.sup_codes))
      sups
  in
  let unknown =
    List.concat_map
      (fun (s : Mpy_parser.suppression) ->
        List.filter_map
          (fun code ->
            if Rules.find_code code = None then Some (s.Mpy_parser.sup_line, code)
            else None)
          s.Mpy_parser.sup_codes)
      sups
  in
  (governed, unknown)

let suppressed_by governed (d : diagnostic) =
  d.line > 0
  && List.exists
       (fun (line, codes) ->
         line = d.line && (codes = [] || List.mem d.rule codes))
       governed

let sort_diagnostics ds =
  List.stable_sort
    (fun a b ->
      let c = compare a.line b.line in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c else compare a.message b.message)
    ds

let lint_front ?(limits = Limits.default)
    ?(thresholds = Lint_semantic.default_thresholds) ~file (front : Pipeline.front) =
  Obs.with_span ~args:[ ("file", file) ] "lint" @@ fun () ->
  (* The semantic rules read the program-local environment only:
     undeclared-subsystem-call resolves field classes in it. *)
  let env = Pipeline.find_model front.Pipeline.models in
  let per_class =
    List.concat_map
      (fun (cls, ext) ->
        match ext with
        | Error report -> Option.to_list (of_front_report ~file report)
        | Ok (extraction : Extract.result) ->
          let model = extraction.Extract.model in
          List.filter_map (of_front_report ~file) extraction.Extract.diagnostics
          @ structural_diagnostics ~file model
          @ semantic_diagnostics ~limits ~thresholds ~env ~file (cls, model))
      front.Pipeline.classes
  in
  let governed, unknown = suppression_plan front.Pipeline.source in
  let unknown_diags =
    List.map
      (fun (line, code) ->
        diag ~line Rules.unknown_suppression ~file
          (Printf.sprintf "suppression comment names unknown rule code '%s'" code))
      unknown
  in
  let syntax = List.filter_map (of_front_report ~file) front.Pipeline.syntax in
  let all = syntax @ per_class @ unknown_diags in
  let suppressed, findings = List.partition (suppressed_by governed) all in
  Obs.count "lint.findings" (List.length findings);
  Obs.count "lint.suppressed" (List.length suppressed);
  {
    lint_file = file;
    findings = sort_diagnostics findings;
    suppressed = sort_diagnostics suppressed;
  }

let lint_source ?limits ?thresholds ~file source =
  lint_front ?limits ?thresholds ~file (Pipeline.front_end source)

let lint_path ?limits ?thresholds path =
  match Pipeline.read_file path with
  | source -> lint_source ?limits ?thresholds ~file:path source
  | exception Sys_error msg ->
    {
      lint_file = path;
      findings = [ diag Rules.unreadable_file ~file:path ("cannot read file: " ^ msg) ];
      suppressed = [];
    }

let file_exit_code r =
  let has code = List.exists (fun d -> String.equal d.rule code) r.findings in
  if has Rules.rule_resource_limit.Rules.code then 3
  else if has Rules.syntax_error.Rules.code || has Rules.unreadable_file.Rules.code then 2
  else if List.exists (fun d -> d.severity = Report.Error) r.findings then 1
  else 0

let exit_code results = List.fold_left (fun acc r -> max acc (file_exit_code r)) 0 results

let count_severity results severity =
  List.fold_left
    (fun acc r ->
      acc + List.length (List.filter (fun d -> d.severity = severity) r.findings))
    0 results
