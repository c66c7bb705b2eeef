(** Abstract syntax of the MicroPython subset Shelley analyzes.

    The subset covers what the paper's §2 listings use: decorated classes,
    methods, field assignment in [__init__], [if/elif/else], [match/case],
    [for], [while], [return] of next-operation lists (optionally tupled with
    a user value), and arbitrary expressions that the analysis will later
    erase. Exceptions, nested functions, nested classes and aliasing are
    outside the subset, matching the paper's restrictions. *)

type expr =
  | Name of string
  | Attr of expr * string  (** [e.field] *)
  | Call of expr * expr list  (** [e(args)] *)
  | Str of string
  | Int of int
  | Bool of bool
  | None_lit
  | List of expr list
  | Tuple of expr list
  | Binop of string * expr * expr  (** uninterpreted: [==], [+], [and], … *)
  | Unop of string * expr  (** [not e], [-e] *)
  | Subscript of expr * expr

type pattern =
  | Pat_list of string list  (** [case ["open", "close"]:] *)
  | Pat_wildcard  (** [case _:] *)
  | Pat_capture of string  (** [case x:] *)
  | Pat_literal of expr  (** [case 2:], [case True:] *)

type stmt = {
  stmt : stmt_kind;
  stmt_line : int;
}

and stmt_kind =
  | Expr_stmt of expr
  | Assign of expr * expr  (** [target = value] (also [+=] etc., desugared) *)
  | Return of expr option
  | If of (expr * block) list * block option
      (** the [if]/[elif] chain with conditions, and the optional [else] *)
  | While of expr * block
  | For of string * expr * block
  | Match of expr * (pattern * block) list
  | Pass
  | Break
  | Continue
  | Import  (** any [import]/[from … import …] line, ignored *)

and block = stmt list

type decorator = {
  dec_name : string;
  dec_args : expr list;
  dec_line : int;
}

type method_def = {
  meth_name : string;
  meth_params : string list;  (** includes [self] *)
  meth_decorators : decorator list;
  meth_body : block;
  meth_async : bool;  (** declared with [async def] *)
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

(** {1 Helpers} *)

val find_method : class_def -> string -> method_def option

type return_desc = {
  ret_line : int;
  ret_next : string list option;
      (** [Some ops] when the returned value is a next-op list (possibly in
          the first position of a tuple, per Table 2); [None] when it is not
          recognizable as one (bare [return], [return None], [return 2]). *)
  ret_has_value : bool;  (** a user value accompanies the list (tuple form) *)
}

val returns_of_method : method_def -> return_desc list
(** Every [return] statement in the method body (recursively), in source
    order. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit
