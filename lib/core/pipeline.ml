type front = {
  source : string;
  syntax : Report.t list;
  classes : (Mpy_ast.class_def * (Extract.result, Report.t) Stdlib.result) list;
  models : Model.t list;
}

type result = {
  models : Model.t list;
  reports : Report.t list;
}

(* Bumped whenever the meaning or wording of a verification result changes
   (new checks, reworded reports, different exit-code mapping). The result
   cache folds this into every key, so entries written by an older pipeline
   can never replay as current verdicts. *)
(* 7: the concurrency extension — shuffled behaviors from async/create_task,
   interleaving-aware usage automata, SY112. *)
(* 8: claims are decided by the entailment product, so they spend --fuel
   (entailment configurations) instead of the subset-construction budget,
   which check no longer reads. *)
(* 9: obligations lost their size caps; cached exit-3 verdicts from them must not replay. *)
(* 10: usage is decided on each field's projection, so a check that ran out
   of fuel on the full expansion can now answer; cached exit-3 verdicts
   must not replay. *)
let semantics_version = "10"

let find_model = Inputs.find_model
let read_file = Inputs.read_file

(* The exception barrier around one step of one class: a blown budget or an
   unexpected exception becomes a report instead of escaping. *)
let barrier ~class_name ~check f =
  match f () with
  | v -> Ok v
  | exception Limits.Budget_exceeded { resource; limit } ->
    Error (Report.Resource_limit { class_name; check; resource; limit })
  | exception exn ->
    Error (Report.Internal_error { class_name; check; message = Printexc.to_string exn })

(* One check behind the barrier, with a span per (check, class) and
   per-phase fuel attribution: diffing the budget ledger around the check
   turns cumulative fuel accounting into fuel-consumed-by-this-check
   counters. *)
let spanned ~limits ~class_name ~check f =
  Obs.with_span ~args:[ ("class", class_name) ] check @@ fun () ->
  let before = if Obs.enabled () then Limits.snapshot limits else [] in
  let reports =
    Result.fold ~ok:Fun.id ~error:(fun r -> [ r ]) (barrier ~class_name ~check f)
  in
  if Obs.enabled () then
    List.iter
      (fun (resource, d) -> Obs.count (Printf.sprintf "fuel.%s.%s" check resource) d)
      (Limits.consumed limits ~before);
  reports

(* The one extraction loop, in file order, so substrates precede the
   composites that use them. *)
let extract_program ~source ~syntax (program : Mpy_ast.program) =
  let classes =
    List.map
      (fun (cls : Mpy_ast.class_def) ->
        let class_name = cls.Mpy_ast.cls_name in
        Obs.with_span ~args:[ ("class", class_name) ] "extract" @@ fun () ->
        (cls, barrier ~class_name ~check:"extract" (fun () -> Extract.extract_class cls)))
      program.Mpy_ast.prog_classes
  in
  let models =
    List.filter_map
      (function
        | _, Ok (e : Extract.result) -> Some e.Extract.model
        | _, Error _ -> None)
      classes
  in
  Obs.count "models.extracted" (List.length models);
  { source; syntax; classes; models }

let front_end source =
  let program, diagnostics = Mpy_parser.parse_program_tolerant source in
  let syntax =
    List.map
      (fun (d : Mpy_parser.diagnostic) ->
        Report.syntax_error ~line:d.Mpy_parser.diag_line ~col:d.Mpy_parser.diag_col
          d.Mpy_parser.diag_message)
      diagnostics
  in
  extract_program ~source ~syntax program

let verify ?(extra_env = fun _ -> None) ?(limits = Limits.default) (front : front) =
  let env name =
    match find_model front.models name with
    | Some _ as found -> found
    | None -> extra_env name
  in
  let reports =
    List.concat_map
      (fun ((cls : Mpy_ast.class_def), ext) ->
        match ext with
        | Error report -> [ report ]
        | Ok (extraction : Extract.result) ->
          let model = extraction.Extract.model in
          let class_name = model.Model.name in
          let run check f = spanned ~limits ~class_name ~check f in
          (* Built at most once, by the first check that needs it: a failing
             field's witness search or the claims. *)
          let impl = lazy (Usage.expanded_nfa ~limits model) in
          extraction.Extract.diagnostics
          @ run "validate" (fun () -> Validate.check model)
          @ run "usage" (fun () -> Usage.check ~limits ~impl ~env model)
          @ run "claims" (fun () -> Claims.check ~limits ~impl model)
          @ run "invocation" (fun () -> Invocation.check ~env ~model cls)
          @ run "refine" (fun () -> Refine.check_inheritance ~limits ~env cls model))
      front.classes
  in
  { models = front.models; reports = front.syntax @ reports }

let verify_source ?extra_env ?limits source = verify ?extra_env ?limits (front_end source)

let verify_source_exn ?extra_env ?limits source =
  verify ?extra_env ?limits
    (extract_program ~source ~syntax:[] (Mpy_parser.parse_program source))

let verified result = Report.errors result.reports = []
