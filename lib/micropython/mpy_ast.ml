type expr =
  | Name of string
  | Attr of expr * string
  | Call of expr * expr list
  | Str of string
  | Int of int
  | Bool of bool
  | None_lit
  | List of expr list
  | Tuple of expr list
  | Binop of string * expr * expr
  | Unop of string * expr
  | Subscript of expr * expr

type pattern =
  | Pat_list of string list
  | Pat_wildcard
  | Pat_capture of string
  | Pat_literal of expr

type stmt = {
  stmt : stmt_kind;
  stmt_line : int;
}

and stmt_kind =
  | Expr_stmt of expr
  | Assign of expr * expr
  | Return of expr option
  | If of (expr * block) list * block option
  | While of expr * block
  | For of string * expr * block
  | Match of expr * (pattern * block) list
  | Pass
  | Break
  | Continue
  | Import

and block = stmt list

type decorator = {
  dec_name : string;
  dec_args : expr list;
  dec_line : int;
}

type method_def = {
  meth_name : string;
  meth_params : string list;
  meth_decorators : decorator list;
  meth_body : block;
  meth_async : bool;
  meth_line : int;
}

type class_def = {
  cls_name : string;
  cls_bases : string list;
  cls_decorators : decorator list;
  cls_methods : method_def list;
  cls_line : int;
}

type program = {
  prog_classes : class_def list;
  prog_toplevel : stmt list;
}

let find_method cls name =
  List.find_opt (fun m -> String.equal m.meth_name name) cls.cls_methods

type return_desc = {
  ret_line : int;
  ret_next : string list option;
  ret_has_value : bool;
}

(* Recognize the Table 2 return shapes. *)
let classify_return = function
  | None -> (None, false)
  | Some (List items) ->
    let names =
      List.map
        (function
          | Str s -> Some s
          | _ -> None)
        items
    in
    if List.for_all Option.is_some names then
      (Some (List.filter_map Fun.id names), false)
    else (None, false)
  | Some (Tuple (List items :: rest)) ->
    let names =
      List.map
        (function
          | Str s -> Some s
          | _ -> None)
        items
    in
    if List.for_all Option.is_some names then
      (Some (List.filter_map Fun.id names), rest <> [])
    else (None, rest <> [])
  | Some None_lit -> (None, false)
  | Some _ -> (None, true)

let returns_of_method meth =
  let acc = ref [] in
  let rec walk_block block = List.iter walk_stmt block
  and walk_stmt s =
    match s.stmt with
    | Return value ->
      let ret_next, ret_has_value = classify_return value in
      acc := { ret_line = s.stmt_line; ret_next; ret_has_value } :: !acc
    | If (branches, else_block) ->
      List.iter (fun (_, b) -> walk_block b) branches;
      Option.iter walk_block else_block
    | While (_, b) | For (_, _, b) -> walk_block b
    | Match (_, cases) -> List.iter (fun (_, b) -> walk_block b) cases
    | Expr_stmt _ | Assign _ | Pass | Break | Continue | Import -> ()
  in
  walk_block meth.meth_body;
  List.rev !acc

let rec pp_expr fmt = function
  | Name n -> Format.pp_print_string fmt n
  | Attr (e, f) -> Format.fprintf fmt "%a.%s" pp_expr e f
  | Call (f, args) ->
    Format.fprintf fmt "%a(%a)" pp_expr f
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_expr)
      args
  | Str s -> Format.fprintf fmt "%S" s
  | Int n -> Format.pp_print_int fmt n
  | Bool true -> Format.pp_print_string fmt "True"
  | Bool false -> Format.pp_print_string fmt "False"
  | None_lit -> Format.pp_print_string fmt "None"
  | List items ->
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_expr)
      items
  | Tuple items ->
    Format.fprintf fmt "%a"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_expr)
      items
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_expr a op pp_expr b
  | Unop (op, e) -> Format.fprintf fmt "(%s %a)" op pp_expr e
  | Subscript (e, i) -> Format.fprintf fmt "%a[%a]" pp_expr e pp_expr i

let pp_pattern fmt = function
  | Pat_list names ->
    Format.fprintf fmt "[%s]" (String.concat ", " (List.map (Printf.sprintf "%S") names))
  | Pat_wildcard -> Format.pp_print_string fmt "_"
  | Pat_capture n -> Format.pp_print_string fmt n
  | Pat_literal e -> pp_expr fmt e

let rec pp_stmt fmt s =
  match s.stmt with
  | Expr_stmt e -> pp_expr fmt e
  | Assign (t, v) -> Format.fprintf fmt "%a = %a" pp_expr t pp_expr v
  | Return None -> Format.pp_print_string fmt "return"
  | Return (Some e) -> Format.fprintf fmt "return %a" pp_expr e
  | If (branches, else_block) ->
    List.iteri
      (fun i (cond, body) ->
        Format.fprintf fmt "@[<v 4>%s %a:@,%a@]@," (if i = 0 then "if" else "elif") pp_expr
          cond pp_block body)
      branches;
    Option.iter (fun b -> Format.fprintf fmt "@[<v 4>else:@,%a@]" pp_block b) else_block
  | While (cond, body) -> Format.fprintf fmt "@[<v 4>while %a:@,%a@]" pp_expr cond pp_block body
  | For (var, iter, body) ->
    Format.fprintf fmt "@[<v 4>for %s in %a:@,%a@]" var pp_expr iter pp_block body
  | Match (e, cases) ->
    Format.fprintf fmt "@[<v 4>match %a:@,%a@]" pp_expr e
      (Format.pp_print_list (fun fmt (pat, body) ->
           Format.fprintf fmt "@[<v 4>case %a:@,%a@]" pp_pattern pat pp_block body))
      cases
  | Pass -> Format.pp_print_string fmt "pass"
  | Break -> Format.pp_print_string fmt "break"
  | Continue -> Format.pp_print_string fmt "continue"
  | Import -> Format.pp_print_string fmt "import ..."

and pp_block fmt block =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt block
