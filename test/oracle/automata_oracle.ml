(* The set-keyed searches the automata library ran before its products
   moved to interned configuration ids: every configuration is a state
   set, and each successor is hashed and compared as a set. The id-keyed
   searches must agree with them — same witnesses, same DFAs — and the
   inclusion search, which skips successors that cannot lead to a
   counterexample, must explore no more configurations. *)

let key : States.Set.t Explore.key =
  (module struct
    type t = States.Set.t

    let equal = States.Set.equal
    let hash = States.Set.hash
  end)

let pair_key = Explore.pair key key

(* Breadth-first over pairs of ε-closed configurations of two NFAs run in
   lockstep; [bad] spots a distinguishing pair when it is dequeued. Returns
   the witness and the number of configurations explored. *)
let find_witness ?alphabet ~bad n1 n2 =
  let alphabet =
    match alphabet with
    | Some set -> set
    | None -> Symbol.Set.union (Nfa.alphabet n1) (Nfa.alphabet n2)
  in
  let syms = Symbol.Set.elements alphabet in
  let counts = Explore.counts () in
  let witness =
    Explore.witness pair_key ~counts
      ~goal:(fun (c1, c2) -> bad (Nfa.accepting_config n1 c1) (Nfa.accepting_config n2 c2))
      ~start:(Nfa.initial_config n1, Nfa.initial_config n2)
      ~step:(fun (c1, c2) emit ->
        List.iter (fun sym -> emit sym (Nfa.step n1 c1 sym, Nfa.step n2 c2 sym)) syms)
      ()
  in
  (witness, counts.states)

let inclusion_counterexample ?alphabet ~impl ~spec () =
  find_witness ?alphabet ~bad:(fun a b -> a && not b) impl spec

let equivalence_counterexample n1 n2 = find_witness ~bad:(fun a b -> a <> b) n1 n2

(* The subset construction over state sets: every reachable ε-closed
   configuration numbered in discovery order, the empty one the sink. *)
let determinize ?alphabet nfa =
  let alphabet =
    match alphabet with
    | Some syms -> List.sort_uniq Symbol.compare syms
    | None -> Symbol.Set.elements (Nfa.alphabet nfa)
  in
  Explore.graph key ~start:(Nfa.initial_config nfa)
    ~step:(fun config emit -> List.iter (fun sym -> emit sym (Nfa.step nfa config sym)) alphabet)
    ()
  |> Dfa.of_graph ~alphabet ~accepting:(Nfa.accepting_config nfa)
