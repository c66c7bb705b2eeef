let rec deriv a (r : Regex.t) : Regex.t =
  match r with
  | Empty | Eps -> Regex.empty
  | Sym b -> if Symbol.equal a b then Regex.eps else Regex.empty
  | Seq (r1, r2) ->
    let left = Regex.seq (deriv a r1) r2 in
    if Regex.nullable r1 then Regex.alt left (deriv a r2) else left
  | Alt (r1, r2) -> Regex.alt (deriv a r1) (deriv a r2)
  | Star r1 -> Regex.seq (deriv a r1) (Regex.star r1)
  (* d_a(r ∥ s) = d_a(r) ∥ s + r ∥ d_a(s): the step happens in one branch,
     the other is unaffected. *)
  | Shuffle (r1, r2) ->
    Regex.alt (Regex.shuffle (deriv a r1) r2) (Regex.shuffle r1 (deriv a r2))

let deriv_word l r = List.fold_left (fun r a -> deriv a r) r l

let matches r l = Regex.nullable (deriv_word l r)

(* The derivative automaton over [r]'s own alphabet, in symbol order; [∅]
   derivatives are pruned. *)
let step r =
  let alphabet = Symbol.Set.elements (Regex.alphabet r) in
  fun state emit ->
    List.iter
      (fun a ->
        let next = deriv a state in
        if not (Regex.is_empty_syntactic next) then emit a next)
      alphabet

let shortest_member r =
  Explore.witness Regex.key ~goal:Regex.nullable ~start:r ~step:(step r) ()

let is_empty_language r = Option.is_none (shortest_member r)

let derivative_closure r =
  Array.to_list (Explore.graph Regex.key ~start:r ~step:(step r) ()).keys
