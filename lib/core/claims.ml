let subsystem_call_nfa ?limits ?impl (model : Model.t) =
  let expanded =
    match impl with
    | Some impl -> Lazy.force impl
    | None -> Usage.expanded_nfa ?limits model
  in
  Nfa.map_symbols
    (fun sym -> if Symbol.split_scope sym <> None then Some sym else None)
    expanded

let failure (model : Model.t) text counterexample =
  Report.Requirement_failure { class_name = model.Model.name; formula = text; counterexample }

(* One claim is one query. Several share a table: each claim's verdict is
   then a lookup, or — when the table runs out of budget — the same query
   a single claim gets, in declaration order. *)
let check ?limits ?impl (model : Model.t) =
  match model.Model.claims with
  | [] -> []
  | claims ->
    let session = Entail.session ?limits ~impl:(subsystem_call_nfa ?limits ?impl model) () in
    let verdict =
      match claims with
      | [ (_, formula) ] -> fun _ -> Entail.implies session ~hyps:[] formula
      | _ ->
        let table = Entail.table session (List.map snd claims) in
        fun i -> Entail.table_implies table ~hyps:[] i
    in
    List.mapi
      (fun i (text, _) ->
        match verdict i with
        | Entail.Entailed -> None
        | Entail.Not_entailed counterexample -> Some (failure model text counterexample)
        | Entail.Unknown { resource; limit } -> raise (Limits.Budget_exceeded { resource; limit }))
      claims
    |> List.filter_map Fun.id
