type exit_point = {
  exit_id : int;
  exit_line : int;
  next_ops : string list;
  has_user_value : bool;
  implicit : bool;
  behavior : Regex.t;
}

type operation = {
  op_name : string;
  op_kind : Annotations.op_kind;
  op_line : int;
  exits : exit_point list;
  marked_body : Prog.t;
  marked_behavior : Regex.t;
  plain_body : Prog.t;
  lowering_warnings : string list;
}

type t = {
  name : string;
  line : int;
  kind : [ `Base | `Composite ];
  declared_subsystems : string list;
  subsystem_fields : (string * string) list;
  claims : (string * Ltlf.t) list;
  operations : operation list;
}

let find_op model name = List.find_opt (fun op -> String.equal op.op_name name) model.operations
let op_names model = List.map (fun op -> op.op_name) model.operations
let initial_ops model = List.filter (fun op -> Annotations.is_initial op.op_kind) model.operations
let final_ops model = List.filter (fun op -> Annotations.is_final op.op_kind) model.operations
let subsystem_class model field = List.assoc_opt field model.subsystem_fields
let behavior_of_op op = Infer.infer op.plain_body
let entry_symbol op = Symbol.intern op.op_name

let pp_exit fmt e =
  Format.fprintf fmt "exit %d%s -> [%s]%s" e.exit_id
    (if e.implicit then " (implicit)" else "")
    (String.concat ", " e.next_ops)
    (if e.has_user_value then " (+value)" else "");
  Format.fprintf fmt "  behavior: %a" Regex.pp e.behavior

let pp fmt model =
  Format.fprintf fmt "@[<v>%s %s%s@,"
    (match model.kind with
    | `Base -> "base class"
    | `Composite -> "composite class")
    model.name
    (match model.declared_subsystems with
    | [] -> ""
    | subs -> Printf.sprintf " over [%s]" (String.concat ", " subs));
  List.iter (fun (text, _) -> Format.fprintf fmt "claim: %s@," text) model.claims;
  List.iter
    (fun op ->
      Format.fprintf fmt "@[<v 2>%s (%a):@," op.op_name Annotations.pp_op_kind op.op_kind;
      List.iter (fun e -> Format.fprintf fmt "%a@," pp_exit e) op.exits;
      Format.fprintf fmt "@]")
    model.operations;
  Format.fprintf fmt "@]"
