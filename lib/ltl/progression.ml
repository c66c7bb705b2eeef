let nonempty = Ltlf.finally Ltlf.tt

(* Flatten an And/Or spine into a sorted, deduplicated list of juncts. *)
let rec flatten_and acc (f : Ltlf.t) =
  match f with
  | And (a, b) -> flatten_and (flatten_and acc a) b
  | f -> f :: acc

let rec flatten_or acc (f : Ltlf.t) =
  match f with
  | Or (a, b) -> flatten_or (flatten_or acc a) b
  | f -> f :: acc

let rec aci (f : Ltlf.t) : Ltlf.t =
  match f with
  | True | False | Atom _ -> f
  | Not g -> Ltlf.neg (aci g)
  | Next g -> Ltlf.next (aci g)
  | Wnext g -> Ltlf.wnext (aci g)
  | Globally g -> Ltlf.globally (aci g)
  | Finally g -> Ltlf.finally (aci g)
  | Until (a, b) -> Ltlf.until (aci a) (aci b)
  | Wuntil (a, b) -> Ltlf.wuntil (aci a) (aci b)
  | And _ ->
    let juncts = flatten_and [] f |> List.map aci in
    let juncts = List.concat_map (flatten_and []) juncts in
    let juncts = List.sort_uniq Ltlf.compare juncts in
    if List.mem Ltlf.ff juncts then Ltlf.ff
    else
      (match List.filter (fun g -> g <> Ltlf.tt) juncts with
      | [] -> Ltlf.tt
      | first :: rest -> List.fold_left (fun acc g -> Ltlf.And (acc, g)) first rest)
  | Or _ ->
    let juncts = flatten_or [] f |> List.map aci in
    let juncts = List.concat_map (flatten_or []) juncts in
    let juncts = List.sort_uniq Ltlf.compare juncts in
    if List.mem Ltlf.tt juncts then Ltlf.tt
    else
      (match List.filter (fun g -> g <> Ltlf.ff) juncts with
      | [] -> Ltlf.ff
      | first :: rest -> List.fold_left (fun acc g -> Ltlf.Or (acc, g)) first rest)

(* Negation normal form first: progression through [Not] merely wraps the
   progressed obligation, so without NNF the state formulas can nest
   negations unboundedly and the obligation closure need not be finite. In
   NNF the reachable obligations are ACI combinations over a finite base,
   which guarantees the automaton construction terminates. *)
let normalize f = aci (Nnf.nnf f)

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

let accepts_empty f = Ltlf.holds f []

let explore ?(limits = Limits.default) ~alphabet f =
  Obs.with_span "progression" @@ fun () ->
  let fuel =
    Limits.fuel ~within:limits ~resource:"progression obligations" limits.Limits.max_states
  in
  let start = normalize f in
  (* ACI normalization does not absorb, so an obligation such as
     [F (F b U F c)] progresses into ever longer disjunctions: one new state
     per step, each larger than the last, and memory runs out long before
     the state budget trips. Cap each obligation relative to the start, as
     {!Entail} caps its obligation vectors. Not recorded in the ledger: the
     cap is a guard, not a construction's fuel. *)
  let size_cap = min limits.Limits.max_regex_size (64 * (Ltlf.size start + 1)) in
  let successor g e =
    let g' = normalize (progress g e) in
    Limits.check ~resource:"progression obligation size" ~limit:size_cap (Ltlf.size g');
    g'
  in
  let graph =
    Explore.graph Ltlf.key ~fuel ~start
      ~step:(fun g emit -> List.iter (fun e -> emit e (successor g e)) alphabet)
      ()
  in
  Obs.count "progression.obligations" (Array.length graph.keys);
  graph

let to_dfa ?limits ~alphabet f =
  let alphabet = List.sort_uniq Symbol.compare alphabet in
  Dfa.of_graph ~alphabet ~accepting:accepts_empty (explore ?limits ~alphabet f)

let num_reachable_obligations ~alphabet f =
  Array.length (explore ~alphabet:(List.sort_uniq Symbol.compare alphabet) f).keys
