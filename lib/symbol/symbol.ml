type t = int

(* What a name says about its symbol, decoded once when it is interned. *)
type info = {
  name : string;
  scope : (string * string) option;  (** ["scope.op"], split at the first dot *)
  exit_marker : (string * int) option;  (** ["%exit:METHOD:K"] *)
}

let decode s =
  let scope =
    match String.index_opt s '.' with
    | None -> None
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let exit_marker =
    match String.split_on_char ':' s with
    | [ "%exit"; meth; k ] -> Option.map (fun k -> (meth, k)) (int_of_string_opt k)
    | _ -> None
  in
  { name = s; scope; exit_marker }

(* The intern table is global and append-only: a symbol never changes meaning
   during a run, which is exactly the property reports and automata rely on. *)
let by_name : (string, t) Hashtbl.t = Hashtbl.create 256
let infos = ref (Array.make 256 (decode ""))
let next = ref 0

let ensure_capacity n =
  if n > Array.length !infos then begin
    let bigger = Array.make (max n (2 * Array.length !infos)) (decode "") in
    Array.blit !infos 0 bigger 0 !next;
    infos := bigger
  end

let intern s =
  match Hashtbl.find_opt by_name s with
  | Some id -> id
  | None ->
    let id = !next in
    ensure_capacity (id + 1);
    !infos.(id) <- decode s;
    incr next;
    Hashtbl.add by_name s id;
    id

let info id =
  if id < 0 || id >= !next then invalid_arg "Symbol.name: unknown symbol";
  !infos.(id)

let name id = (info id).name

let compare = Int.compare
let equal = Int.equal
let hash (id : t) = id
let to_int (id : t) = id
let pp fmt id = Format.pp_print_string fmt (name id)
let count () = !next
let scoped ~scope op = intern (scope ^ "." ^ op)

let method_exit ~method_name k = intern (Printf.sprintf "%%exit:%s:%d" method_name k)
let split_scope id = (info id).scope
let exit_marker id = (info id).exit_marker

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let pp_set fmt set =
  let sorted = Set.elements set |> List.map name |> List.sort String.compare in
  Format.fprintf fmt "{%s}" (String.concat ", " sorted)
