type t =
  | Atom of string
  | List of t list

let atom s = Atom s
let list l = List l

exception Parse_error of string

(* --- Printing ----------------------------------------------------------------- *)

let needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true
         | _ -> false)
       s

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let print_atom s = if needs_quoting s then quote s else s

let rec to_string = function
  | Atom s -> print_atom s
  | List items -> "(" ^ String.concat " " (List.map to_string items) ^ ")"

let rec atoms_only = function
  | Atom _ -> true
  | List items -> List.for_all atoms_only items && List.length items <= 4

let to_string_pretty sexp =
  let buf = Buffer.create 256 in
  let rec go indent sexp =
    match sexp with
    | Atom s -> Buffer.add_string buf (print_atom s)
    | List items when atoms_only sexp || List.length items <= 1 ->
      Buffer.add_string buf (to_string sexp)
    | List (head :: rest) ->
      Buffer.add_char buf '(';
      go indent head;
      List.iter
        (fun item ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (indent + 2) ' ');
          go (indent + 2) item)
        rest;
      Buffer.add_char buf ')'
    | List [] -> Buffer.add_string buf "()"
  in
  go 0 sexp;
  Buffer.contents buf

(* --- Reading ------------------------------------------------------------------- *)

type cursor = {
  input : string;
  mutable pos : int;
}

let peek cur = if cur.pos < String.length cur.input then Some cur.input.[cur.pos] else None

let rec skip_blanks cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
    cur.pos <- cur.pos + 1;
    skip_blanks cur
  | Some ';' ->
    while peek cur <> None && peek cur <> Some '\n' do
      cur.pos <- cur.pos + 1
    done;
    skip_blanks cur
  | Some _ | None -> ()

let parse_quoted cur =
  (* Opening quote consumed by caller check; consume it here. *)
  cur.pos <- cur.pos + 1;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> raise (Parse_error "unterminated string")
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' -> (
      cur.pos <- cur.pos + 1;
      match peek cur with
      | Some 'n' ->
        Buffer.add_char buf '\n';
        cur.pos <- cur.pos + 1;
        go ()
      | Some 't' ->
        Buffer.add_char buf '\t';
        cur.pos <- cur.pos + 1;
        go ()
      | Some c ->
        Buffer.add_char buf c;
        cur.pos <- cur.pos + 1;
        go ()
      | None -> raise (Parse_error "unterminated escape"))
    | Some c ->
      Buffer.add_char buf c;
      cur.pos <- cur.pos + 1;
      go ()
  in
  go ();
  Atom (Buffer.contents buf)

let parse_bare cur =
  let start = cur.pos in
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> ()
    | Some _ ->
      cur.pos <- cur.pos + 1;
      go ()
  in
  go ();
  if cur.pos = start then raise (Parse_error "expected an atom");
  Atom (String.sub cur.input start (cur.pos - start))

let rec parse_one cur =
  skip_blanks cur;
  match peek cur with
  | None -> raise (Parse_error "unexpected end of input")
  | Some '(' ->
    cur.pos <- cur.pos + 1;
    let items = ref [] in
    let rec go () =
      skip_blanks cur;
      match peek cur with
      | Some ')' -> cur.pos <- cur.pos + 1
      | None -> raise (Parse_error "unclosed parenthesis")
      | Some _ ->
        items := parse_one cur :: !items;
        go ()
    in
    go ();
    List (List.rev !items)
  | Some ')' -> raise (Parse_error "unexpected ')'")
  | Some '"' -> parse_quoted cur
  | Some _ -> parse_bare cur

let parse input =
  let cur = { input; pos = 0 } in
  let sexp = parse_one cur in
  skip_blanks cur;
  if peek cur <> None then raise (Parse_error "trailing content after S-expression");
  sexp

(* --- Helpers -------------------------------------------------------------------- *)

let field name = function
  | List items ->
    List.find_map
      (function
        | List (Atom head :: rest) when String.equal head name -> Some rest
        | _ -> None)
      items
  | Atom _ -> None

let field_atom name sexp =
  match field name sexp with
  | Some [ Atom value ] -> Some value
  | Some _ | None -> None

let field_one name sexp =
  match field name sexp with
  | Some [ single ] -> Some single
  | Some _ | None -> None
