module ISet = States.Set

(* The first/last/follow analysis of a shuffle-free expression. *)
type positions = {
  symbols : Symbol.t array;  (** [symbols.(p - 1)] is position [p]'s symbol *)
  nullable : bool;
  first : ISet.t;
  last : ISet.t;
  follow : (int * int) list;  (** in no order, duplicates allowed *)
}

type info = {
  nullable : bool;
  first : ISet.t;
  last : ISet.t;
}

let positions r =
  (* Number the symbol positions 1..n in left-to-right order. *)
  let syms = ref [] in
  let counter = ref 0 in
  let follow = ref [] in
  let fresh sym =
    incr counter;
    syms := sym :: !syms;
    !counter
  in
  let cross a b = ISet.iter (fun x -> ISet.iter (fun y -> follow := (x, y) :: !follow) b) a in
  let rec analyze (r : Regex.t) : info =
    match r with
    | Empty -> { nullable = false; first = ISet.empty; last = ISet.empty }
    | Eps -> { nullable = true; first = ISet.empty; last = ISet.empty }
    | Sym s ->
      let p = fresh s in
      { nullable = false; first = ISet.singleton p; last = ISet.singleton p }
    | Seq (a, b) ->
      let ia = analyze a in
      let ib = analyze b in
      cross ia.last ib.first;
      {
        nullable = ia.nullable && ib.nullable;
        first = (if ia.nullable then ISet.union ia.first ib.first else ia.first);
        last = (if ib.nullable then ISet.union ia.last ib.last else ib.last);
      }
    | Alt (a, b) ->
      let ia = analyze a in
      let ib = analyze b in
      {
        nullable = ia.nullable || ib.nullable;
        first = ISet.union ia.first ib.first;
        last = ISet.union ia.last ib.last;
      }
    | Star a ->
      let ia = analyze a in
      cross ia.last ia.first;
      { nullable = true; first = ia.first; last = ia.last }
    | Shuffle _ ->
      (* Position automata cannot express interleaving; [of_regex]
         dispatches Shuffle nodes to the on-the-fly product before ever
         reaching this analysis. *)
      invalid_arg "Glushkov.of_regex_classic: Shuffle"
  in
  let info = analyze r in
  {
    symbols = Array.of_list (List.rev !syms);
    nullable = info.nullable;
    first = info.first;
    last = info.last;
    follow = !follow;
  }

(* One state per position, plus the initial state [0]. *)
let num_states p = Array.length p.symbols + 1

(* The position automaton's edges, in no order and possibly repeated: [0]
   to each first position, and each follow pair, on the target position's
   symbol. *)
let iter_edges p f =
  ISet.iter (fun q -> f 0 p.symbols.(q - 1) q) p.first;
  List.iter (fun (src, q) -> f src p.symbols.(q - 1) q) p.follow

let of_regex_classic r =
  let p = positions r in
  let b = Nfa.Builder.create () in
  ignore (Nfa.Builder.add_states b (num_states p));
  iter_edges p (Nfa.Builder.edge b);
  Array.iteri (fun i sym -> Nfa.Builder.label b (i + 1) (Symbol.name sym)) p.symbols;
  Nfa.Builder.finish b ~start:[ 0 ]
    ~accept:((if p.nullable then [ 0 ] else []) @ ISet.elements p.last)

(* Shuffle-aware entry point: the classic position construction for
   shuffle-free (sub)expressions, the on-the-fly product for Shuffle nodes,
   and Thompson-style combinators to glue mixed operators together. For the
   sequential fragment this is byte-for-byte the classic automaton. *)
let of_regex ?limits r =
  let rec build (r : Regex.t) =
    if Regex.shuffle_free r then of_regex_classic r
    else
      match r with
      | Shuffle (a, b) -> Shuffle_nfa.on_the_fly ?limits (build a) (build b)
      | Seq (a, b) -> Nfa.concat (build a) (build b)
      | Alt (a, b) -> Nfa.union (build a) (build b)
      | Star a -> Nfa.star (build a)
      | Empty | Eps | Sym _ -> of_regex_classic r
  in
  build r

(* A shuffle-free body's edges come straight from its positions: building
   its automaton first would only copy them twice. *)
let embed ?limits b ~edge r =
  if Regex.shuffle_free r then begin
    let p = positions r in
    let offset = Nfa.Builder.add_states b (num_states p) in
    iter_edges p (fun src sym dst -> edge (src + offset) sym (dst + offset));
    [ offset ]
  end
  else begin
    let body = of_regex ?limits r in
    let offset = Nfa.Builder.add_states b (Nfa.num_states body) in
    Nfa.iter_edges body (fun src sym dst -> edge (src + offset) sym (dst + offset));
    Nfa.iter_epsilons body (fun src dst -> Nfa.Builder.epsilon b (src + offset) (dst + offset));
    List.map (( + ) offset) (States.Set.elements (Nfa.start body))
  end
