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

type var = { id : int; literal : Ltlf.t }
type op = Node of int * int * int | Conj of int * int | Neg of int | Step of int * Symbol.t

(* Node [n >= 2] is [(v, lo, hi)]: "if [v] then [hi] else [lo]", where [v.id]
   is smaller than the id of every variable in [lo] and [hi]. [memo] also
   hash-conses the nodes, so equal functions are one node. *)
type space = {
  max_nodes : int;
  vars : var Literals.t;
  nodes : (int, var * int * int) Hashtbl.t;
  memo : (op, int) Hashtbl.t;
}

let space ?(limits = Limits.default) () =
  {
    max_nodes = limits.Limits.max_regex_size;
    vars = Literals.create 16;
    nodes = Hashtbl.create 64;
    memo = Hashtbl.create 256;
  }

let memo sp op compute =
  match Hashtbl.find_opt sp.memo op with
  | Some n -> n
  | None ->
    let n = compute () in
    Hashtbl.add sp.memo op n;
    n

let mk sp v lo hi =
  if lo = hi then lo
  else
    memo sp (Node (v.id, lo, hi)) (fun () ->
        let n = Hashtbl.length sp.nodes + 2 in
        Limits.check ~resource:"obligation nodes" ~limit:sp.max_nodes (n + 1);
        Hashtbl.add sp.nodes n (v, lo, hi);
        n)

let rec conj sp a b =
  if a = 0 || b = 0 then 0
  else if a = 1 || a = b then b
  else if b = 1 then a
  else
    memo sp (Conj (min a b, max a b)) (fun () ->
        let va, la, ha = Hashtbl.find sp.nodes a and vb, lb, hb = Hashtbl.find sp.nodes b in
        let v = if va.id < vb.id then va else vb in
        let la, ha = if va.id = v.id then (la, ha) else (a, a) in
        let lb, hb = if vb.id = v.id then (lb, hb) else (b, b) in
        mk sp v (conj sp la lb) (conj sp ha hb))

let rec neg sp n =
  if n <= 1 then 1 - n
  else
    memo sp (Neg n) (fun () ->
        let v, lo, hi = Hashtbl.find sp.nodes n in
        mk sp v (neg sp lo) (neg sp hi))

let disj sp a b = neg sp (conj sp (neg sp a) (neg sp b))

let literal sp f =
  if not (Literals.mem sp.vars f) then
    Literals.add sp.vars f { id = Literals.length sp.vars; literal = f };
  mk sp (Literals.find sp.vars f) 0 1

let rec obligation sp (f : Ltlf.t) =
  match f with
  | True -> 1
  | False -> 0
  | Not g -> neg sp (obligation sp g)
  | And (a, b) -> conj sp (obligation sp a) (obligation sp b)
  | Or (a, b) -> disj sp (obligation sp a) (obligation sp b)
  | Atom _ | Next _ | Wnext _ | Until _ | Wuntil _ | Globally _ | Finally _ -> literal sp f

(* Progression commutes with the Boolean connectives, so a node steps to
   the Shannon expansion of its literal's progression over its stepped
   children. *)
let rec step sp n e =
  if n <= 1 then n
  else
    memo sp (Step (n, e)) (fun () ->
        let v, lo, hi = Hashtbl.find sp.nodes n in
        if lo = 0 && hi = 1 then obligation sp (progress v.literal e)
        else
          let p = step sp (mk sp v 0 1) e in
          disj sp (conj sp p (step sp hi e)) (conj sp (neg sp p) (step sp lo e)))

let rec accepts_empty sp n =
  if n <= 1 then n = 1
  else
    let v, lo, hi = Hashtbl.find sp.nodes n in
    accepts_empty sp (if Ltlf.holds v.literal [] then hi else lo)

let to_dfa ?(limits = Limits.default) ~alphabet f =
  Obs.with_span "progression" @@ fun () ->
  let alphabet = List.sort_uniq Symbol.compare alphabet in
  let fuel =
    Limits.fuel ~within:limits ~resource:"progression obligations" limits.Limits.max_states
  in
  let sp = space ~limits () in
  let graph =
    Explore.graph (module Int) ~fuel ~start:(obligation sp f)
      ~step:(fun n emit -> List.iter (fun e -> emit e (step sp n e)) alphabet)
      ()
  in
  Obs.count "progression.obligations" (Array.length graph.keys);
  Dfa.of_graph ~alphabet ~accepting:(accepts_empty sp) graph

let num_reachable_obligations ~alphabet f = Dfa.num_states (to_dfa ~alphabet f)
