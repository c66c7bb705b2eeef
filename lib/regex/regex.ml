type t =
  | Empty
  | Eps
  | Sym of Symbol.t
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Shuffle of t * t

let empty = Empty
let eps = Eps
let sym s = Sym s
let sym_of_name n = Sym (Symbol.intern n)

let rec compare a b =
  let rank = function
    | Empty -> 0
    | Eps -> 1
    | Sym _ -> 2
    | Seq _ -> 3
    | Alt _ -> 4
    | Star _ -> 5
    | Shuffle _ -> 6
  in
  match a, b with
  | Empty, Empty | Eps, Eps -> 0
  | Sym x, Sym y -> Symbol.compare x y
  | Seq (a1, a2), Seq (b1, b2)
  | Alt (a1, a2), Alt (b1, b2)
  | Shuffle (a1, a2), Shuffle (b1, b2) ->
    let c = compare a1 b1 in
    if c <> 0 then c else compare a2 b2
  | Star x, Star y -> compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let key : t Explore.key =
  (module struct
    type nonrec t = t

    let equal = equal
    let hash r = Hashtbl.hash_param 32 128 r
  end)

(* Right-associated concatenation with ∅/ε identities. *)
let rec seq a b =
  match a, b with
  | Empty, _ | _, Empty -> Empty
  | Eps, r | r, Eps -> r
  | Seq (a1, a2), _ -> seq a1 (seq a2 b)
  | _ -> Seq (a, b)

(* ACI-normal union: flatten, drop ∅, sort, dedup, rebuild right-associated. *)
let rec alt_flatten acc = function
  | Alt (a, b) -> alt_flatten (alt_flatten acc a) b
  | Empty -> acc
  | r -> r :: acc

let alt a b =
  let parts = alt_flatten (alt_flatten [] a) b in
  let parts = List.sort_uniq compare parts in
  match parts with
  | [] -> Empty
  | first :: rest -> List.fold_left (fun acc r -> Alt (acc, r)) first rest

let star r =
  match r with
  | Empty | Eps -> Eps
  | Star _ -> r
  | _ -> Star r

(* AC-normal shuffle: flatten, drop the ε unit, sort — but keep duplicates,
   because shuffle is not idempotent ([a ∥ a] accepts [aa], [a] does not) —
   and rebuild. [∅] annihilates. *)
let rec shuffle_flatten acc = function
  | Shuffle (a, b) -> shuffle_flatten (shuffle_flatten acc a) b
  | Eps -> acc
  | r -> r :: acc

let shuffle a b =
  match a, b with
  | Empty, _ | _, Empty -> Empty
  | _ ->
    let parts = shuffle_flatten (shuffle_flatten [] a) b in
    let parts = List.sort compare parts in
    (match parts with
    | [] -> Eps
    | first :: rest -> List.fold_left (fun acc r -> Shuffle (acc, r)) first rest)

let seq_list rs = List.fold_right seq rs Eps
let alt_list rs = List.fold_left alt Empty rs
let shuffle_list rs = List.fold_right shuffle rs Eps
let word syms = seq_list (List.map sym syms)
let opt r = alt Eps r

let rec nullable = function
  | Empty | Sym _ -> false
  | Eps | Star _ -> true
  | Seq (a, b) | Shuffle (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b

let is_empty_syntactic = function
  | Empty -> true
  | _ -> false

let rec alphabet = function
  | Empty | Eps -> Symbol.Set.empty
  | Sym s -> Symbol.Set.singleton s
  | Seq (a, b) | Alt (a, b) | Shuffle (a, b) ->
    Symbol.Set.union (alphabet a) (alphabet b)
  | Star r -> alphabet r

let rec size = function
  | Empty | Eps | Sym _ -> 1
  | Seq (a, b) | Alt (a, b) | Shuffle (a, b) -> 1 + size a + size b
  | Star r -> 1 + size r

let rec star_height = function
  | Empty | Eps | Sym _ -> 0
  | Seq (a, b) | Alt (a, b) | Shuffle (a, b) -> max (star_height a) (star_height b)
  | Star r -> 1 + star_height r

let rec shuffle_free = function
  | Empty | Eps | Sym _ -> true
  | Seq (a, b) | Alt (a, b) -> shuffle_free a && shuffle_free b
  | Star r -> shuffle_free r
  | Shuffle _ -> false

(* One particular schedule of each shuffle: left branch to completion, then
   the right. L(sequentialize r) ⊆ L(r), with equality iff [shuffle_free]. *)
let rec sequentialize = function
  | (Empty | Eps | Sym _) as r -> r
  | Seq (a, b) -> seq (sequentialize a) (sequentialize b)
  | Alt (a, b) -> alt (sequentialize a) (sequentialize b)
  | Star r -> star (sequentialize r)
  | Shuffle (a, b) -> seq (sequentialize a) (sequentialize b)

(* Precedence: Alt (1) < Shuffle (2) < Seq (3) < Star (4); parenthesize a
   subterm whose precedence is lower than the context's. *)
let pp_with ~empty_s ~eps_s ~seq_s ~par_s fmt r =
  let rec go prec fmt r =
    let prec_of = function
      | Empty | Eps | Sym _ -> 5
      | Star _ -> 4
      | Seq _ -> 3
      | Shuffle _ -> 2
      | Alt _ -> 1
    in
    let wrap needed body =
      if prec_of r < needed then Format.fprintf fmt "(%t)" body else body fmt
    in
    match r with
    | Empty -> Format.pp_print_string fmt empty_s
    | Eps -> Format.pp_print_string fmt eps_s
    | Sym s -> Symbol.pp fmt s
    | Seq (a, b) ->
      wrap prec (fun fmt -> Format.fprintf fmt "%a%s%a" (go 3) a seq_s (go 3) b)
    | Shuffle (a, b) ->
      wrap prec (fun fmt -> Format.fprintf fmt "%a %s %a" (go 2) a par_s (go 2) b)
    | Alt (a, b) ->
      wrap prec (fun fmt -> Format.fprintf fmt "%a + %a" (go 1) a (go 1) b)
    | Star a -> wrap prec (fun fmt -> Format.fprintf fmt "%a*" (go 5) a)
  in
  go 0 fmt r

let pp fmt r =
  pp_with ~empty_s:"\xe2\x88\x85" ~eps_s:"\xce\xb5" ~seq_s:" \xc2\xb7 "
    ~par_s:"\xe2\x88\xa5" fmt r

let pp_ascii fmt r = pp_with ~empty_s:"0" ~eps_s:"1" ~seq_s:"." ~par_s:"|" fmt r
let to_string r = Format.asprintf "%a" pp r
