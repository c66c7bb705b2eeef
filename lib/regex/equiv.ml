(* Breadth-first bisimulation over pairs of derivatives. [bad] decides when a
   pair witnesses a difference; the path to the first bad pair dequeued is
   a shortest witness because exploration is breadth-first. *)
let find_witness ~bad r1 r2 =
  let symbols = Symbol.Set.elements (Symbol.Set.union (Regex.alphabet r1) (Regex.alphabet r2)) in
  Explore.witness (Explore.pair Regex.key Regex.key)
    ~goal:(fun (d1, d2) -> bad d1 d2)
    ~start:(r1, r2)
    ~step:(fun (d1, d2) emit ->
      List.iter (fun a -> emit a (Deriv.deriv a d1, Deriv.deriv a d2)) symbols)
    ()

let counterexample r1 r2 =
  find_witness r1 r2 ~bad:(fun d1 d2 -> Regex.nullable d1 <> Regex.nullable d2)

let inclusion_counterexample r1 r2 =
  find_witness r1 r2 ~bad:(fun d1 d2 -> Regex.nullable d1 && not (Regex.nullable d2))

let equivalent r1 r2 = Option.is_none (counterexample r1 r2)
let included r1 r2 = Option.is_none (inclusion_counterexample r1 r2)
