let nonempty = Ltlf.finally Ltlf.tt

let rec progress (f : Ltlf.t) e : Ltlf.t =
  match f with
  | True -> Ltlf.tt
  | False -> Ltlf.ff
  | Atom a -> if Symbol.equal a e then Ltlf.tt else Ltlf.ff
  | Not g -> Ltlf.neg (progress g e)
  | And (a, b) -> Ltlf.conj (progress a e) (progress b e)
  | Or (a, b) -> Ltlf.disj (progress a e) (progress b e)
  | Next g -> Ltlf.conj nonempty g
  | Wnext g -> Ltlf.disj (Ltlf.neg nonempty) g
  | Until (a, b) -> Ltlf.disj (progress b e) (Ltlf.conj (progress a e) f)
  | Wuntil (a, b) -> Ltlf.disj (progress b e) (Ltlf.conj (progress a e) f)
  | Globally g -> Ltlf.conj (progress g e) f
  | Finally g -> Ltlf.disj (progress g e) f

module Literals = Hashtbl.Make ((val Ltlf.key))

(* Memo keys are ints, hashed as ints: no polymorphic hash walks a variant,
   and a pair of nodes is {!Explore.pack}ed into one int. *)
module Ints = Hashtbl.Make (Explore.Int_key)

module Triples = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = Int.equal a1 a2 && Int.equal b1 b2 && Int.equal c1 c2
  let hash (a, b, c) = Explore.Int_key.hash ((((a * 65599) + b) * 65599) + c)
end)

(* [empty]: the literal's value on the empty trace. *)
type var = { id : int; literal : Ltlf.t; empty : bool }

(* Node [n >= 2] is [nodes.(n - 2) = (v, lo, hi)]: "if [v] then [hi] else
   [lo]", where [v.id] is smaller than the id of every variable in [lo] and
   [hi]. [unique] hash-conses the nodes, so equal functions are one node;
   [conjs] and [negs] memoize the operations on them. Each event the space
   has stepped on gets a dense slot, and [steps.(n - 2).(slot)] is node
   [n]'s step on it ([-1] until computed). *)
type space = {
  max_nodes : int;
  vars : var Literals.t;
  mutable nodes : (var * int * int) array;
  mutable num_nodes : int;
  unique : int Triples.t;
  conjs : int Ints.t;
  negs : int Ints.t;
  slots : int Ints.t;
  mutable steps : int array array;
}

let space ?(limits = Limits.default) () =
  {
    max_nodes = limits.Limits.max_regex_size;
    vars = Literals.create 16;
    nodes = [||];
    num_nodes = 0;
    unique = Triples.create 64;
    conjs = Ints.create 64;
    negs = Ints.create 64;
    slots = Ints.create 16;
    steps = [||];
  }

let memo find add table key compute =
  match find table key with
  | Some n -> n
  | None ->
    let n = compute () in
    add table key n;
    n

let node sp n = sp.nodes.(n - 2)

let mk sp v lo hi =
  if lo = hi then lo
  else
    memo Triples.find_opt Triples.add sp.unique (v.id, lo, hi) (fun () ->
        let i = sp.num_nodes in
        Limits.check ~resource:"obligation nodes" ~limit:sp.max_nodes (i + 3);
        if i = Array.length sp.nodes then begin
          sp.nodes <- Array.append sp.nodes (Array.make (max 64 i) (v, lo, hi));
          sp.steps <- Array.append sp.steps (Array.make (max 64 i) [||])
        end;
        sp.nodes.(i) <- (v, lo, hi);
        sp.num_nodes <- i + 1;
        i + 2)

let rec conj sp a b =
  if a = 0 || b = 0 then 0
  else if a = 1 || a = b then b
  else if b = 1 then a
  else
    memo Ints.find_opt Ints.add sp.conjs (Explore.pack (min a b) (max a b)) (fun () ->
        let va, la, ha = node sp a and vb, lb, hb = node sp b in
        let v = if va.id < vb.id then va else vb in
        let la, ha = if va.id = v.id then (la, ha) else (a, a) in
        let lb, hb = if vb.id = v.id then (lb, hb) else (b, b) in
        mk sp v (conj sp la lb) (conj sp ha hb))

let rec neg sp n =
  if n <= 1 then 1 - n
  else
    memo Ints.find_opt Ints.add sp.negs n (fun () ->
        let v, lo, hi = node sp n in
        mk sp v (neg sp lo) (neg sp hi))

let disj sp a b = neg sp (conj sp (neg sp a) (neg sp b))

let literal sp f =
  let v =
    match Literals.find_opt sp.vars f with
    | Some v -> v
    | None ->
      let v = { id = Literals.length sp.vars; literal = f; empty = Ltlf.holds f [] } in
      Literals.add sp.vars f v;
      v
  in
  mk sp v 0 1

let rec obligation sp (f : Ltlf.t) =
  match f with
  | True -> 1
  | False -> 0
  | Not g -> neg sp (obligation sp g)
  | And (a, b) -> conj sp (obligation sp a) (obligation sp b)
  | Or (a, b) -> disj sp (obligation sp a) (obligation sp b)
  | Atom _ | Next _ | Wnext _ | Until _ | Wuntil _ | Globally _ | Finally _ -> literal sp f

let slot sp e =
  let id = Symbol.to_int e in
  match Ints.find_opt sp.slots id with
  | Some k -> k
  | None ->
    let k = Ints.length sp.slots in
    Ints.add sp.slots id k;
    k

(* Progression commutes with the Boolean connectives, so a node steps to
   the Shannon expansion of its literal's progression over its stepped
   children. [k] is [e]'s slot. *)
let rec step_at sp n e k =
  if n <= 1 then n
  else
    let row = sp.steps.(n - 2) in
    if k < Array.length row && row.(k) >= 0 then row.(k)
    else begin
      let v, lo, hi = node sp n in
      let n' =
        if lo = 0 && hi = 1 then obligation sp (progress v.literal e)
        else
          let p = step_at sp (mk sp v 0 1) e k in
          disj sp (conj sp p (step_at sp hi e k)) (conj sp (neg sp p) (step_at sp lo e k))
      in
      let row = sp.steps.(n - 2) in
      let row =
        if k < Array.length row then row
        else Array.append row (Array.make (max 4 (k + 1 - Array.length row)) (-1))
      in
      row.(k) <- n';
      sp.steps.(n - 2) <- row;
      n'
    end

let step sp n e = step_at sp n e (slot sp e)

type event = { sym : Symbol.t; slot : int }

let event sp e = { sym = e; slot = slot sp e }

let step_all sp ns { sym; slot } = Array.map (fun n -> step_at sp n sym slot) ns

let rec accepts_empty sp n =
  if n <= 1 then n = 1
  else
    let v, lo, hi = node sp n in
    accepts_empty sp (if v.empty then hi else lo)

let to_dfa ?(limits = Limits.default) ~alphabet f =
  Obs.with_span "progression" @@ fun () ->
  let alphabet = List.sort_uniq Symbol.compare alphabet in
  let fuel =
    Limits.fuel ~within:limits ~resource:"progression obligations" limits.Limits.max_states
  in
  let sp = space ~limits () in
  let graph =
    Explore.graph Explore.int ~fuel ~start:(obligation sp f)
      ~step:(fun n emit -> List.iter (fun e -> emit e (step sp n e)) alphabet)
      ()
  in
  Obs.count "progression.obligations" (Array.length graph.keys);
  Dfa.of_graph ~alphabet ~accepting:(accepts_empty sp) graph
