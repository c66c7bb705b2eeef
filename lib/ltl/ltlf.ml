type t =
  | True
  | False
  | Atom of Symbol.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Next of t
  | Wnext of t
  | Until of t * t
  | Wuntil of t * t
  | Globally of t
  | Finally of t

let tt = True
let ff = False
let atom s = Atom s
let atom_name n = Atom (Symbol.intern n)

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let conj a b =
  match a, b with
  | True, f | f, True -> f
  | False, _ | _, False -> False
  | _ -> And (a, b)

let disj a b =
  match a, b with
  | False, f | f, False -> f
  | True, _ | _, True -> True
  | _ -> Or (a, b)

let implies a b = disj (neg a) b
let next f = Next f
let wnext f = Wnext f
let until a b = Until (a, b)
let wuntil a b = Wuntil (a, b)
let globally f = Globally f
let finally f = Finally f

(* Reference semantics: trace, i ⊨ φ evaluated on suffixes. *)
let rec holds_suffix f trace =
  match f, trace with
  | True, _ -> true
  | False, _ -> false
  | Atom a, e :: _ -> Symbol.equal a e
  | Atom _, [] -> false
  | Not g, _ -> not (holds_suffix g trace)
  | And (g, h), _ -> holds_suffix g trace && holds_suffix h trace
  | Or (g, h), _ -> holds_suffix g trace || holds_suffix h trace
  | Next g, _ :: rest -> rest <> [] && holds_suffix g rest
  | Next _, [] -> false
  | Wnext g, _ :: rest -> rest = [] || holds_suffix g rest
  | Wnext _, [] -> true
  | Until (g, h), _ ->
    (* ∃k. suffix k ⊨ h ∧ ∀j<k. suffix j ⊨ g — over non-empty suffixes. *)
    let rec scan trace =
      trace <> []
      && (holds_suffix h trace || (holds_suffix g trace && scan (List.tl trace)))
    in
    scan trace
  | Wuntil (g, h), _ ->
    let rec scan trace =
      match trace with
      | [] -> true
      | _ :: rest -> holds_suffix h trace || (holds_suffix g trace && scan rest)
    in
    scan trace
  | Globally g, _ ->
    let rec scan = function
      | [] -> true
      | _ :: rest as suffix -> holds_suffix g suffix && scan rest
    in
    scan trace
  | Finally g, _ ->
    let rec scan = function
      | [] -> false
      | _ :: rest as suffix -> holds_suffix g suffix || scan rest
    in
    scan trace

(* Position 0 of the empty trace: Until/Finally need a position; Next is
   false; the rest hold vacuously — handled by the suffix evaluation above,
   except that Atom on the empty trace must be false and Next on a singleton
   is false (no successor). One subtlety: at the *last* position, a trace of
   length 1 still has a current event, so holds_suffix sees [e] there; the
   empty trace [] means "past the end". *)
let holds f trace = holds_suffix f trace

let rec atoms = function
  | True | False -> Symbol.Set.empty
  | Atom a -> Symbol.Set.singleton a
  | Not f | Next f | Wnext f | Globally f | Finally f -> atoms f
  | And (a, b) | Or (a, b) | Until (a, b) | Wuntil (a, b) ->
    Symbol.Set.union (atoms a) (atoms b)

let rec size = function
  | True | False | Atom _ -> 1
  | Not f | Next f | Wnext f | Globally f | Finally f -> 1 + size f
  | And (a, b) | Or (a, b) | Until (a, b) | Wuntil (a, b) -> 1 + size a + size b

let compare = Stdlib.compare
let equal a b = compare a b = 0

let key : t Explore.key =
  (module struct
    type nonrec t = t

    let equal = equal

    (* The whole term, not a bounded prefix: progression obligations grow
       into long junct chains that differ only deep inside, and a bounded
       hash ([Hashtbl.hash] sees at most 256 nodes) files them all in one
       bucket, turning every lookup into a scan of structural compares. *)
    let rec hash f =
      let mix h x = (h * 31) + x in
      match f with
      | True -> 1
      | False -> 2
      | Atom s -> mix 3 (Symbol.hash s)
      | Not g -> mix 4 (hash g)
      | Next g -> mix 5 (hash g)
      | Wnext g -> mix 6 (hash g)
      | Globally g -> mix 7 (hash g)
      | Finally g -> mix 8 (hash g)
      | And (a, b) -> mix (mix 9 (hash a)) (hash b)
      | Or (a, b) -> mix (mix 10 (hash a)) (hash b)
      | Until (a, b) -> mix (mix 11 (hash a)) (hash b)
      | Wuntil (a, b) -> mix (mix 12 (hash a)) (hash b)
  end)

(* Precedence: binary temporal (1) < or (2) < and (3) < unary (4). *)
let rec pp_prec prec fmt f =
  let prec_of = function
    | True | False | Atom _ -> 5
    | Not _ | Next _ | Wnext _ | Globally _ | Finally _ -> 4
    | And _ -> 3
    | Or _ -> 2
    | Until _ | Wuntil _ -> 1
  in
  let wrap body =
    if prec_of f < prec then Format.fprintf fmt "(%t)" body else body fmt
  in
  match f with
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Atom a -> Symbol.pp fmt a
  | Not g -> wrap (fun fmt -> Format.fprintf fmt "!%a" (pp_prec 4) g)
  | Next g -> wrap (fun fmt -> Format.fprintf fmt "X %a" (pp_prec 4) g)
  | Wnext g -> wrap (fun fmt -> Format.fprintf fmt "WX %a" (pp_prec 4) g)
  | Globally g -> wrap (fun fmt -> Format.fprintf fmt "G %a" (pp_prec 4) g)
  | Finally g -> wrap (fun fmt -> Format.fprintf fmt "F %a" (pp_prec 4) g)
  | And (a, b) -> wrap (fun fmt -> Format.fprintf fmt "%a && %a" (pp_prec 3) a (pp_prec 3) b)
  | Or (a, b) -> wrap (fun fmt -> Format.fprintf fmt "%a || %a" (pp_prec 2) a (pp_prec 2) b)
  | Until (a, b) -> wrap (fun fmt -> Format.fprintf fmt "%a U %a" (pp_prec 2) a (pp_prec 2) b)
  | Wuntil (a, b) -> wrap (fun fmt -> Format.fprintf fmt "%a W %a" (pp_prec 2) a (pp_prec 2) b)

let pp fmt f = pp_prec 0 fmt f
let to_string f = Format.asprintf "%a" pp f
