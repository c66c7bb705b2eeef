type t = Symbol.t list

let empty : t = []
let append (l1 : t) (l2 : t) : t = l1 @ l2

let rec compare_lex a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' ->
    let c = Symbol.compare x y in
    if c <> 0 then c else compare_lex a' b'

let compare (a : t) (b : t) =
  let c = Int.compare (List.length a) (List.length b) in
  if c <> 0 then c else compare_lex a b

let equal a b = compare a b = 0
let length = List.length
let of_names names = List.map Symbol.intern names
let to_names l = List.map Symbol.name l

let pp fmt l =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    Symbol.pp fmt l

let to_string l = Format.asprintf "%a" pp l

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let pp_set fmt set =
  Format.fprintf fmt "@[<v>";
  Set.iter (fun l -> Format.fprintf fmt "[%a]@ " pp l) set;
  Format.fprintf fmt "@]"
