type result = {
  model : Model.t;
  diagnostics : Report.t list;
}

(* A returned behavior of a marked body always ends with exactly one exit
   marker (markers are emitted immediately before every IR return and
   nowhere else). Walk the right spine of the normalized regex to split it
   off. Under a shuffle the marker sits inside exactly one branch (spawned
   tasks contain no returns); hoisting it out formalizes the fork-join
   reading — the spawned work is complete by the time the method exits. *)
let rec split_trailing_marker (r : Regex.t) : (Regex.t * Symbol.t) option =
  match r with
  | Sym s -> if Mpy_lower.is_exit_marker s <> None then Some (Regex.eps, s) else None
  | Seq (a, b) ->
    Option.map (fun (prefix, marker) -> (Regex.seq a prefix, marker)) (split_trailing_marker b)
  | Shuffle (a, b) -> (
    match split_trailing_marker a, split_trailing_marker b with
    | Some (a', marker), None -> Some (Regex.shuffle a' b, marker)
    | None, Some (b', marker) -> Some (Regex.shuffle a b', marker)
    | Some _, Some _ | None, None -> None)
  | Empty | Eps | Alt _ | Star _ -> None

let exit_behaviors_of_marked ~method_name marked =
  let d = Infer.denote marked in
  let by_exit = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match split_trailing_marker r with
      | Some (prefix, marker) -> (
        match Mpy_lower.is_exit_marker marker with
        | Some (meth, k) when String.equal meth method_name ->
          let existing =
            match Hashtbl.find_opt by_exit k with
            | Some r -> r
            | None -> Regex.empty
          in
          Hashtbl.replace by_exit k (Regex.alt existing prefix)
        | Some _ | None -> ())
      | None ->
        (* Unreachable by construction; be conservative and ignore. *)
        ())
    d.Infer.returned;
  let exits =
    Hashtbl.fold (fun k r acc -> (k, r) :: acc) by_exit []
    |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
  in
  (exits, d.Infer.ongoing)

let extract_operation ~class_name (meth : Mpy_ast.method_def) kind =
  let lowered = Mpy_lower.lower_method meth in
  let marked = lowered.Mpy_lower.low_prog in
  let plain = Mpy_lower.strip_markers marked in
  let behaviors, ongoing = exit_behaviors_of_marked ~method_name:meth.meth_name marked in
  let behavior_of k =
    match List.assoc_opt k behaviors with
    | Some r -> r
    | None -> Regex.empty (* return statement unreachable (dead code) *)
  in
  let diagnostics = ref [] in
  let explicit_exits =
    List.map
      (fun (info : Mpy_lower.exit_info) ->
        let next_ops =
          match info.exit_next with
          | Some ops -> ops
          | None ->
            diagnostics :=
              Report.structural ~line:info.exit_line Report.Warning ~class_name
                (Printf.sprintf
                   "operation '%s': return value is not a next-operation list; treated as \
                    terminal"
                   meth.meth_name)
              :: !diagnostics;
            []
        in
        {
          Model.exit_id = info.exit_index;
          exit_line = info.exit_line;
          next_ops;
          has_user_value = info.exit_has_value;
          implicit = false;
          behavior = behavior_of info.exit_index;
        })
      lowered.Mpy_lower.low_exits
  in
  let implicit_exit =
    if Regex.is_empty_syntactic ongoing then []
    else begin
      diagnostics :=
        Report.structural ~line:meth.meth_line Report.Warning ~class_name
          (Printf.sprintf
             "operation '%s': control can fall off the end of the method; an implicit \
              terminal exit was added"
             meth.meth_name)
        :: !diagnostics;
      [
        {
          Model.exit_id = List.length explicit_exits;
          exit_line = 0;
          next_ops = [];
          has_user_value = false;
          implicit = true;
          behavior = ongoing;
        };
      ]
    end
  in
  List.iter
    (fun w ->
      diagnostics :=
        Report.structural Report.Warning ~class_name
          (Printf.sprintf "operation '%s': %s" meth.meth_name w)
        :: !diagnostics)
    lowered.Mpy_lower.low_warnings;
  let op =
    {
      Model.op_name = meth.meth_name;
      op_kind = kind;
      op_line = meth.meth_line;
      exits = explicit_exits @ implicit_exit;
      marked_body = marked;
      plain_body = plain;
      lowering_warnings = lowered.Mpy_lower.low_warnings;
    }
  in
  (op, List.rev !diagnostics)

(* Subsystem fields: every "self.f = C(...)" in __init__. *)
let subsystem_fields_of (cls : Mpy_ast.class_def) =
  match Mpy_ast.find_method cls "__init__" with
  | None -> []
  | Some init ->
    List.filter_map
      (fun (s : Mpy_ast.stmt) ->
        match s.stmt with
        | Assign (Attr (Name "self", field), Call (Name cls_name, _)) -> Some (field, cls_name)
        | _ -> None)
      init.meth_body

let extract_class (cls : Mpy_ast.class_def) =
  let class_name = cls.cls_name in
  let diagnostics = ref [] in
  let add d = diagnostics := d :: !diagnostics in
  let classified = Annotations.classify_class_decorators cls.cls_decorators in
  List.iter
    (fun (line, msg) -> add (Report.structural ~line Report.Error ~class_name msg))
    classified.Annotations.class_annotation_errors;
  let sys_annotations =
    List.filter_map
      (function
        | Annotations.Sys subs -> Some subs
        | Annotations.Claim _ -> None)
      classified.Annotations.class_annotations
  in
  let kind, declared_subsystems =
    match sys_annotations with
    | [] ->
      add
        (Report.structural ~line:cls.cls_line Report.Warning ~class_name
           "class has no @sys annotation; it will not be verified against callers");
      (`Base, [])
    | [ None ] -> (`Base, [])
    | [ Some subs ] -> (`Composite, subs)
    | _ :: _ :: _ ->
      add
        (Report.structural ~line:cls.cls_line Report.Error ~class_name
           "multiple @sys annotations");
      (`Base, [])
  in
  let claims =
    List.filter_map
      (function
        | Annotations.Claim text -> (
          match Ltl_parser.parse_result text with
          | Ok formula -> Some (text, formula)
          | Error msg ->
            add
              (Report.structural ~line:cls.cls_line Report.Error ~class_name
                 (Printf.sprintf "unparseable @claim %S: %s" text msg));
            None)
        | Annotations.Sys _ -> None)
      classified.Annotations.class_annotations
  in
  let operations =
    List.filter_map
      (fun (meth : Mpy_ast.method_def) ->
        match Annotations.classify_method_decorators meth.meth_decorators with
        | Ok None -> None
        | Ok (Some kind) ->
          let op, op_diags = extract_operation ~class_name meth kind in
          List.iter add op_diags;
          Some op
        | Error msg ->
          add (Report.structural ~line:meth.meth_line Report.Error ~class_name msg);
          None)
      cls.cls_methods
  in
  let model =
    {
      Model.name = class_name;
      line = cls.cls_line;
      kind;
      declared_subsystems;
      subsystem_fields = subsystem_fields_of cls;
      claims;
      operations;
    }
  in
  { model; diagnostics = List.rev !diagnostics }
