type step = {
  op : string;
  op_line : int;
  calls : Symbol.t list;
}

type t = {
  steps : step list;
  field : string;
  subsystem_class : string;
  observed : string list;
  failure : Report.usage_failure;
}

let of_usage_error ~(model : Model.t) ~field ~subsystem_class ~counterexample ~failure =
  let line_of op_name =
    match Model.find_op model op_name with
    | Some op -> op.Model.op_line
    | None -> 0
  in
  let is_entry sym = Symbol.split_scope sym = None in
  let rec segment current acc = function
    | [] -> List.rev (close current acc)
    | sym :: rest ->
      if is_entry sym then
        let name = Symbol.name sym in
        segment (Some { op = name; op_line = line_of name; calls = [] }) (close current acc)
          rest
      else begin
        match current with
        | Some step -> segment (Some { step with calls = sym :: step.calls }) acc rest
        | None -> segment None acc rest
      end
  and close current acc =
    match current with
    | Some step -> { step with calls = List.rev step.calls } :: acc
    | None -> acc
  in
  {
    steps = segment None [] counterexample;
    field;
    subsystem_class;
    observed = Usage.project_subsystem ~field counterexample;
    failure;
  }

let of_report ~model (report : Report.t) =
  match report with
  | Report.Invalid_subsystem_usage
      { class_name; field; subsystem_class; counterexample; failure; _ }
    when String.equal class_name model.Model.name ->
    Some (of_usage_error ~model ~field ~subsystem_class ~counterexample ~failure)
  | Report.Invalid_subsystem_usage _ | Report.Requirement_failure _ | Report.Structural _
  | Report.Syntax_error _ | Report.Resource_limit _ | Report.Internal_error _
  | Report.Timeout _ | Report.Worker_crashed _ ->
    None

(* --- Claim failures: which claim subsumes this counterexample -------------- *)

type claim_context = {
  failed_claim : string;
  also_violated : string list;
  implied_by : string list;
}

let of_requirement ?(limits = Limits.default) ~(model : Model.t) ~formula ~counterexample
    () =
  let failed =
    List.find_opt (fun (text, _) -> String.equal text formula) model.Model.claims
  in
  let others =
    List.filter (fun (text, _) -> not (String.equal text formula)) model.Model.claims
  in
  let also_violated =
    List.filter_map
      (fun (text, f) -> if Ltlf.holds f counterexample then None else Some text)
      others
  in
  let implied_by =
    match failed with
    | None -> []
    | Some (_, goal) ->
      (* A claim ψ subsumes the failed claim φ when ψ ⇒ φ on every trace:
         any fix that makes ψ hold again necessarily repairs φ too. *)
      let alphabet =
        List.fold_left
          (fun acc (_, f) -> Symbol.Set.union acc (Ltlf.atoms f))
          (Symbol.Set.of_list counterexample)
          model.Model.claims
      in
      let universal = Entail.session ~limits ~impl:(Nfa.universal alphabet) () in
      List.filter_map
        (fun (text, f) ->
          match Entail.implies universal ~hyps:[ f ] goal with
          | Entail.Entailed -> Some text
          | Entail.Not_entailed _ -> None
          | Entail.Unknown _ ->
            Obs.count "entail.budget_exhausted" 1;
            None)
        others
  in
  { failed_claim = formula; also_violated; implied_by }

let claim_context_of_report ?limits ~model (report : Report.t) =
  match report with
  | Report.Requirement_failure { class_name; formula; counterexample }
    when String.equal class_name model.Model.name ->
    Some (of_requirement ?limits ~model ~formula ~counterexample ())
  | _ -> None

let pp_claim_context fmt c =
  Format.fprintf fmt "@[<v>";
  (match c.also_violated with
  | [] -> Format.fprintf fmt "no other claim rejects this counterexample@,"
  | texts ->
    Format.fprintf fmt "the counterexample also violates: %s@,"
      (String.concat ", " (List.map (Printf.sprintf "'%s'") texts)));
  (match c.implied_by with
  | [] -> ()
  | texts ->
    List.iter
      (fun text ->
        Format.fprintf fmt
          "claim '%s' subsumes '%s': every trace satisfying the former satisfies the \
           latter, so fix its violation first@,"
          text c.failed_claim)
      texts);
  Format.fprintf fmt "@]"

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i step ->
      Format.fprintf fmt "%d. %s (line %d) — calls: %s@," (i + 1) step.op step.op_line
        (match step.calls with
        | [] -> "(none)"
        | calls -> String.concat ", " (List.map Symbol.name calls)))
    t.steps;
  Format.fprintf fmt "%s '%s' observed: %s@," t.subsystem_class t.field
    (match t.observed with
    | [] -> "(nothing)"
    | calls -> String.concat ", " calls);
  (match t.failure with
  | Report.Not_allowed op ->
    Format.fprintf fmt "'%s' is not allowed at that point of %s's protocol" op
      t.subsystem_class
  | Report.Not_final op ->
    Format.fprintf fmt
      "the composite may stop here, but '%s' is not a final operation of %s" op
      t.subsystem_class);
  Format.fprintf fmt "@]"
