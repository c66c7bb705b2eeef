(* The DFA operations only the tests call, written over [Dfa]'s public
   accessors: running words, the Boolean operations, emptiness and
   inclusion queries, bounded enumeration and conversions. No library
   under lib/ needs them: its inclusion and emptiness questions go
   through the NFA products of [Language] and [Entail]. *)

let states dfa = List.init (Dfa.num_states dfa) Fun.id
let mem_alphabet dfa sym = List.exists (Symbol.equal sym) (Dfa.alphabet dfa)

(* Raises [Invalid_argument] on a symbol outside the alphabet. *)
let accepts dfa trace =
  Dfa.is_accept dfa (List.fold_left (Dfa.next dfa) (Dfa.start dfa) trace)

let complement dfa =
  Dfa.create ~alphabet:(Dfa.alphabet dfa) ~num_states:(Dfa.num_states dfa)
    ~start:(Dfa.start dfa)
    ~accept:(List.filter (fun q -> not (Dfa.is_accept dfa q)) (states dfa))
    ~next:(Dfa.next dfa)

(* Pair construction over one alphabet: state (q1, q2) is q1 * n2 + q2. *)
let product ~combine a b =
  if not (List.equal Symbol.equal (Dfa.alphabet a) (Dfa.alphabet b)) then
    invalid_arg "Dfa: boolean operation on different alphabets";
  let n2 = Dfa.num_states b in
  let pairs = List.concat_map (fun q1 -> List.map (fun q2 -> (q1, q2)) (states b)) (states a) in
  Dfa.create ~alphabet:(Dfa.alphabet a)
    ~num_states:(Dfa.num_states a * n2)
    ~start:((Dfa.start a * n2) + Dfa.start b)
    ~accept:
      (List.filter_map
         (fun (q1, q2) ->
           if combine (Dfa.is_accept a q1) (Dfa.is_accept b q2) then Some ((q1 * n2) + q2)
           else None)
         pairs)
    ~next:(fun q sym -> (Dfa.next a (q / n2) sym * n2) + Dfa.next b (q mod n2) sym)

let intersect = product ~combine:( && )
let union = product ~combine:( || )
let difference = product ~combine:(fun x y -> x && not y)

(* Breadth-first from the start in alphabet order: the first accepting
   state dequeued gives the shortlex-least shortest accepted word. *)
let shortest_accepted dfa =
  let visited = Array.make (Dfa.num_states dfa) false in
  let queue = Queue.create () in
  visited.(Dfa.start dfa) <- true;
  Queue.add (Dfa.start dfa, []) queue;
  let rec loop () =
    match Queue.take_opt queue with
    | None -> None
    | Some (q, rev_path) when Dfa.is_accept dfa q -> Some (List.rev rev_path)
    | Some (q, rev_path) ->
      List.iter
        (fun sym ->
          let q' = Dfa.next dfa q sym in
          if not visited.(q') then begin
            visited.(q') <- true;
            Queue.add (q', sym :: rev_path) queue
          end)
        (Dfa.alphabet dfa);
      loop ()
  in
  loop ()

let is_empty dfa = Option.is_none (shortest_accepted dfa)

(* A shortest word accepted by [a] but not by [b]. *)
let counterexample_inclusion a b = shortest_accepted (difference a b)

let equivalent a b = is_empty (difference a b) && is_empty (difference b a)

let words_upto ~max_len dfa =
  let rec go acc q rev_prefix depth =
    let acc = if Dfa.is_accept dfa q then Trace.Set.add (List.rev rev_prefix) acc else acc in
    if depth = max_len then acc
    else
      List.fold_left
        (fun acc sym -> go acc (Dfa.next dfa q sym) (sym :: rev_prefix) (depth + 1))
        acc (Dfa.alphabet dfa)
  in
  go Trace.Set.empty (Dfa.start dfa) [] 0

(* Forgets determinism; the sink keeps its edges ([Nfa.trim] drops it). *)
let to_nfa dfa =
  Nfa.create ~num_states:(Dfa.num_states dfa) ~start:[ Dfa.start dfa ]
    ~accept:(States.Set.elements (Dfa.accept_states dfa))
    ~transitions:
      (List.concat_map
         (fun q -> List.map (fun sym -> (q, sym, Dfa.next dfa q sym)) (Dfa.alphabet dfa))
         (states dfa))
    ()

(* Reinterprets the DFA over another alphabet: a fresh sink absorbs the
   added symbols, and the transitions of removed symbols are dropped. *)
let restrict_alphabet ~alphabet dfa =
  let sink = Dfa.num_states dfa in
  Dfa.create ~alphabet ~num_states:(sink + 1) ~start:(Dfa.start dfa)
    ~accept:(States.Set.elements (Dfa.accept_states dfa))
    ~next:(fun q sym ->
      if q = sink || not (mem_alphabet dfa sym) then sink else Dfa.next dfa q sym)
