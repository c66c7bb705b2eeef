type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- printing --------------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The number rule: an integral number prints as an integer, any other
   finite number as the shortest of %.15g/%.16g/%.17g that reads back equal
   (so 0.1 prints as 0.1, not 0.10000000000000001), and a non-finite number,
   which JSON cannot spell, as null. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if not (Float.is_finite f) then "null"
  else
    let shortest = Printf.sprintf "%.15g" f in
    if float_of_string shortest = f then shortest
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

(* One printer, two layouts: [indent = None] is the compact one-line layout,
   [Some depth] the two-space pretty layout at that nesting depth. *)
let newline buf = function
  | None -> ()
  | Some depth ->
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (2 * depth) ' ')

let container buf indent opening closing print_item items =
  Buffer.add_char buf opening;
  if items <> [] then begin
    let inner = Option.map succ indent in
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        newline buf inner;
        print_item inner item)
      items;
    newline buf indent
  end;
  Buffer.add_char buf closing

let rec print_into buf indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number f)
  | Str s -> escape_into buf s
  | Arr items -> container buf indent '[' ']' (print_into buf) items
  | Obj fields ->
    container buf indent '{' '}'
      (fun inner (k, v) ->
        escape_into buf k;
        Buffer.add_string buf (if inner = None then ":" else ": ");
        print_into buf inner v)
      fields

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf None v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  print_into buf (Some 0) v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------------- *)

exception Bad of string

type cursor = {
  src : string;
  mutable pos : int;
}

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    &&
    match c.src.[c.pos] with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some k when k = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* UTF-8 encode one BMP code point (surrogate pairs are combined by the
   caller before reaching here). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let v =
    try int_of_string ("0x" ^ String.sub c.src c.pos 4)
    with Failure _ -> fail c "bad \\u escape"
  in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
      c.pos <- c.pos + 1;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        c.pos <- c.pos + 1;
        let cp = hex4 c in
        let cp =
          (* High surrogate: try to combine with an immediately following
             \uDC00-\uDFFF low surrogate. *)
          if cp >= 0xd800 && cp <= 0xdbff
             && c.pos + 6 <= String.length c.src
             && c.src.[c.pos] = '\\'
             && c.src.[c.pos + 1] = 'u'
          then begin
            let save = c.pos in
            c.pos <- c.pos + 2;
            let lo = hex4 c in
            if lo >= 0xdc00 && lo <= 0xdfff then
              0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00))
            else begin
              c.pos <- save;
              0xfffd
            end
          end
          else if cp >= 0xd800 && cp <= 0xdfff then 0xfffd
          else cp
        in
        add_utf8 buf cp;
        c.pos <- c.pos - 1 (* counteract the shared post-increment below *)
      | _ -> fail c "bad escape");
      c.pos <- c.pos + 1;
      go ())
    | Some ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.src && numeric c.src.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some f -> f
  | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing input at offset %d" c.pos)
  | exception Bad msg -> Error msg

(* --- accessors -------------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function
  | Str s -> Some s
  | _ -> None

let to_num = function
  | Num f -> Some f
  | _ -> None

let to_bool = function
  | Bool b -> Some b
  | _ -> None

let to_list = function
  | Arr items -> Some items
  | _ -> None

let to_obj = function
  | Obj fields -> Some fields
  | _ -> None

let mem_str k v = Option.bind (member k v) to_str
let mem_obj k v = Option.bind (member k v) to_obj
let mem_num k v = Option.bind (member k v) to_num

(* JSON has one number type; every protocol field that is semantically an
   int goes through this single truncation point. *)
let mem_int k v = Option.map int_of_float (mem_num k v)

let mem_bool ?(default = false) k v =
  match Option.bind (member k v) to_bool with
  | Some b -> b
  | None -> default

let mem_str_list k v =
  match Option.bind (member k v) to_list with
  | None -> None
  | Some items ->
    let strs = List.filter_map to_str items in
    if List.length strs = List.length items then Some strs else None
