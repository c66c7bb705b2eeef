module Fset = Set.Make (struct
  type t = Ltlf.t

  let compare = Ltlf.compare
end)

(* α/β decomposition of a pending obligation list into elementary sets
   (literals and X/WX obligations only). Branches that contain False or
   contradictory/unsatisfiable literals are pruned. *)
let expand pending =
  let rec go pending elem =
    match pending with
    | [] -> if consistent elem then [ elem ] else []
    | f :: rest -> (
      match (f : Ltlf.t) with
      | True -> go rest elem
      | False -> []
      | Atom _ | Not (Atom _) | Next _ | Wnext _ -> go rest (Fset.add f elem)
      | And (a, b) -> go (a :: b :: rest) elem
      | Or (a, b) -> go (a :: rest) elem @ go (b :: rest) elem
      | Globally a -> go (a :: Ltlf.Wnext f :: rest) elem
      | Finally a -> go (a :: rest) elem @ go (Ltlf.Next f :: rest) elem
      | Until (a, b) -> go (b :: rest) elem @ go (a :: Ltlf.Next f :: rest) elem
      | Wuntil (a, b) -> go (b :: rest) elem @ go (a :: Ltlf.Wnext f :: rest) elem
      | Not _ -> invalid_arg "Tableau: input not in negation normal form")
  and consistent elem =
    let positives =
      Fset.elements elem
      |> List.filter_map (function
           | Ltlf.Atom a -> Some a
           | _ -> None)
    in
    let negatives =
      Fset.elements elem
      |> List.filter_map (function
           | Ltlf.Not (Ltlf.Atom a) -> Some a
           | _ -> None)
    in
    (* At most one event happens per position: two distinct positive atoms,
       or a positive atom that is also negated, are unsatisfiable. *)
    (match positives with
    | [] | [ _ ] -> true
    | first :: rest -> List.for_all (Symbol.equal first) rest)
    && not (List.exists (fun p -> List.exists (Symbol.equal p) negatives) positives)
  in
  go pending Fset.empty |> List.sort_uniq Fset.compare

let elementary_sets f =
  expand [ Nnf.nnf f ] |> List.map Fset.elements

let literals_allow elem event =
  Fset.for_all
    (fun f ->
      match (f : Ltlf.t) with
      | Atom a -> Symbol.equal a event
      | Not (Atom a) -> not (Symbol.equal a event)
      | _ -> true)
    elem

(* Carrying a next-obligation across an event must preserve its end-of-trace
   reading: X g additionally demands that the remainder is nonempty (F true),
   WX g is discharged outright if the remainder is empty (G false). Both
   guards are inert for transitions — F true's branches impose nothing, and
   G false's branch is inconsistent — but decide acceptance correctly. *)
let nonempty = Ltlf.finally Ltlf.tt
let empty_trace = Ltlf.globally Ltlf.ff

let next_obligations elem =
  Fset.fold
    (fun f acc ->
      match (f : Ltlf.t) with
      | Next g -> Ltlf.conj nonempty g :: acc
      | Wnext g -> Ltlf.disj empty_trace g :: acc
      | _ -> acc)
    elem []

(* The trace may end in this state iff every pending obligation holds of the
   empty remainder. Evaluated on the *un-expanded* obligations: expanding
   first would lose end-of-trace disjuncts (e.g. G a must accept the empty
   trace even though its elementary form demands an 'a' event). *)
let accepting obligations = List.for_all (fun f -> Ltlf.holds f []) obligations

(* NFA states are obligation sets, kept as sorted duplicate-free lists; the
   alpha/beta expansion lives inside the transition function: consuming
   [event] from [obligations] first decomposes them into elementary sets,
   keeps the ones whose literals agree with [event], and carries each one's
   next-obligations as a successor. The decomposition does not depend on
   the event, so it runs once per state and each event only filters it. *)
let successors obligations =
  let branches =
    List.map
      (fun elem -> (elem, List.sort_uniq Ltlf.compare (next_obligations elem)))
      (expand obligations)
  in
  fun event ->
    List.filter_map
      (fun (elem, succ) -> if literals_allow elem event then Some succ else None)
      branches
    |> List.sort_uniq (List.compare Ltlf.compare)

(* Obligation lists as {!Explore} keys: elementwise equality of
   equal-length lists, and a hash that combines the formulas' hashes in
   order. *)
module Formula = (val Ltlf.key)

module Obligations = struct
  type t = Ltlf.t list

  let equal = List.equal Formula.equal
  let hash l = List.fold_left (fun h f -> (h * 65599) + Formula.hash f) 0 l
end

let to_nfa ?(limits = Limits.default) ~alphabet f =
  Obs.with_span "tableau" @@ fun () ->
  let fuel = Limits.fuel ~within:limits ~resource:"tableau states" limits.Limits.max_states in
  let symbols = Nfa.sort_symbols (Array.of_list alphabet) in
  let graph =
    Explore.graph (module Obligations) ~fuel ~start:[ Nnf.nnf f ]
      ~step:(fun obligations emit ->
        let on = successors obligations in
        Array.iteri (fun i event -> List.iter (emit i) (on event)) symbols)
      ()
  in
  Obs.count "tableau.states" (Array.length graph.keys);
  Nfa.of_graph ~symbols ~accepting graph
