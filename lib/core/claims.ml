let subsystem_call_nfa ?limits ?impl (model : Model.t) =
  let expanded =
    match impl with
    | Some impl -> Lazy.force impl
    | None -> Usage.expanded_nfa ?limits model
  in
  Nfa.map_symbols
    (fun sym -> if Symbol.split_scope sym <> None then Some sym else None)
    expanded

let check_claim ~session (model : Model.t) (text, formula) =
  match Ltl_check.check session formula with
  | Ok () -> None
  | Error violation ->
    Some
      (Report.Requirement_failure
         {
           class_name = model.Model.name;
           formula = text;
           counterexample = violation.Ltl_check.counterexample;
         })

let check ?limits ?impl (model : Model.t) =
  match model.Model.claims with
  | [] -> []
  | claims ->
    let session = Entail.session ?limits ~impl:(subsystem_call_nfa ?limits ?impl model) () in
    List.filter_map (check_claim ~session model) claims
