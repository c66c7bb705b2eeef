open Sexp_lite

let kind_to_string = function
  | Annotations.Initial -> "initial"
  | Annotations.Final -> "final"
  | Annotations.Initial_final -> "initial_final"
  | Annotations.Middle -> "middle"

let kind_of_string = function
  | "initial" -> Some Annotations.Initial
  | "final" -> Some Annotations.Final
  | "initial_final" -> Some Annotations.Initial_final
  | "middle" -> Some Annotations.Middle
  | _ -> None

let exit_to_sexp (e : Model.exit_point) =
  list
    [
      atom "exit";
      list [ atom "id"; atom (string_of_int e.exit_id) ];
      list [ atom "line"; atom (string_of_int e.exit_line) ];
      list (atom "next" :: List.map atom e.next_ops);
      list [ atom "value"; atom (string_of_bool e.has_user_value) ];
      list [ atom "implicit"; atom (string_of_bool e.implicit) ];
      list [ atom "behavior"; atom (Regex.to_string e.behavior) ];
    ]

let op_to_sexp (op : Model.operation) =
  list
    [
      atom "operation";
      list [ atom "name"; atom op.op_name ];
      list [ atom "kind"; atom (kind_to_string op.op_kind) ];
      list [ atom "line"; atom (string_of_int op.op_line) ];
      list [ atom "marked-body"; atom (Prog.to_string op.marked_body) ];
      list (atom "warnings" :: List.map atom op.lowering_warnings);
      list (atom "exits" :: List.map exit_to_sexp op.exits);
    ]

let to_sexp (model : Model.t) =
  list
    [
      atom "model";
      list [ atom "name"; atom model.name ];
      list [ atom "line"; atom (string_of_int model.line) ];
      list
        [
          atom "kind";
          atom
            (match model.kind with
            | `Base -> "base"
            | `Composite -> "composite");
        ];
      list (atom "declared-subsystems" :: List.map atom model.declared_subsystems);
      list
        (atom "subsystem-fields"
        :: List.map (fun (f, c) -> list [ atom f; atom c ]) model.subsystem_fields);
      list (atom "claims" :: List.map (fun (text, _) -> atom text) model.claims);
      list (atom "operations" :: List.map op_to_sexp model.operations);
    ]

let to_string model = Sexp_lite.to_string_pretty (to_sexp model) ^ "\n"

(* --- Reading -------------------------------------------------------------------- *)

let ( let* ) = Result.bind

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" what)

let int_field name sexp =
  let* raw = require name (field_atom name sexp) in
  require (name ^ " (integer)") (int_of_string_opt raw)

let bool_field name sexp =
  let* raw = require name (field_atom name sexp) in
  require (name ^ " (boolean)") (bool_of_string_opt raw)

let atoms_field name sexp =
  let* items = require name (field name sexp) in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | Atom a :: rest -> collect (a :: acc) rest
    | List _ :: _ -> Error (Printf.sprintf "field %S must contain only atoms" name)
  in
  collect [] items

let exit_of_sexp sexp =
  let* exit_id = int_field "id" sexp in
  let* exit_line = int_field "line" sexp in
  let* next_ops = atoms_field "next" sexp in
  let* has_user_value = bool_field "value" sexp in
  let* implicit = bool_field "implicit" sexp in
  let* behavior_text = require "behavior" (field_atom "behavior" sexp) in
  let* behavior =
    Result.map_error
      (fun msg -> Printf.sprintf "exit %d behavior: %s" exit_id msg)
      (Regex_parser.parse_result behavior_text)
  in
  Ok { Model.exit_id; exit_line; next_ops; has_user_value; implicit; behavior }

let op_of_sexp sexp =
  let* op_name = require "name" (field_atom "name" sexp) in
  let* kind_text = require "kind" (field_atom "kind" sexp) in
  let* op_kind = require "kind (valid)" (kind_of_string kind_text) in
  let* op_line = int_field "line" sexp in
  let* marked_text = require "marked-body" (field_atom "marked-body" sexp) in
  let* marked_body =
    Result.map_error
      (fun msg -> Printf.sprintf "operation %s body: %s" op_name msg)
      (Prog_parser.parse_result marked_text)
  in
  let* lowering_warnings = atoms_field "warnings" sexp in
  let* exit_forms = require "exits" (field "exits" sexp) in
  let* exits =
    List.fold_left
      (fun acc form ->
        let* acc = acc in
        let* e = exit_of_sexp form in
        Ok (e :: acc))
      (Ok []) exit_forms
    |> Result.map List.rev
  in
  Ok
    {
      Model.op_name;
      op_kind;
      op_line;
      exits;
      marked_body;
      marked_behavior = Extract.marked_behavior ~method_name:op_name marked_body exits;
      plain_body = Mpy_lower.strip_markers marked_body;
      lowering_warnings;
    }

let of_sexp sexp =
  match sexp with
  | List (Atom "model" :: _) ->
    let* name = require "name" (field_atom "name" sexp) in
    let* line = int_field "line" sexp in
    let* kind_text = require "kind" (field_atom "kind" sexp) in
    let* kind =
      match kind_text with
      | "base" -> Ok `Base
      | "composite" -> Ok `Composite
      | other -> Error (Printf.sprintf "unknown model kind %S" other)
    in
    let* declared_subsystems = atoms_field "declared-subsystems" sexp in
    let* field_forms = require "subsystem-fields" (field "subsystem-fields" sexp) in
    let* subsystem_fields =
      List.fold_left
        (fun acc form ->
          let* acc = acc in
          match form with
          | List [ Atom f; Atom c ] -> Ok ((f, c) :: acc)
          | _ -> Error "subsystem-fields entries must be (field class) pairs")
        (Ok []) field_forms
      |> Result.map List.rev
    in
    let* claim_texts = atoms_field "claims" sexp in
    let* claims =
      List.fold_left
        (fun acc text ->
          let* acc = acc in
          match Ltl_parser.parse_result text with
          | Ok formula -> Ok ((text, formula) :: acc)
          | Error msg -> Error (Printf.sprintf "claim %S: %s" text msg))
        (Ok []) claim_texts
      |> Result.map List.rev
    in
    let* op_forms = require "operations" (field "operations" sexp) in
    let* operations =
      List.fold_left
        (fun acc form ->
          let* acc = acc in
          let* op = op_of_sexp form in
          Ok (op :: acc))
        (Ok []) op_forms
      |> Result.map List.rev
    in
    Ok { Model.name; line; kind; declared_subsystems; subsystem_fields; claims; operations }
  | _ -> Error "expected a (model ...) form"

let of_string text =
  match Sexp_lite.parse text with
  | sexp -> of_sexp sexp
  | exception Sexp_lite.Parse_error msg -> Error msg

let save ~path model =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string model))

let load ~path =
  match Inputs.read_file path with
  | content -> Result.map_error (fun msg -> Printf.sprintf "%s: %s" path msg) (of_string content)
  | exception Sys_error msg -> Error msg

let env_of_files paths =
  let* models =
    List.fold_left
      (fun acc path ->
        let* acc = acc in
        let* model = load ~path in
        Ok (model :: acc))
      (Ok []) paths
  in
  Ok (Inputs.find_model models)
