type t = {
  alphabet : Symbol.t array;
  sym_index : int Symbol.Map.t;
  num_states : int;
  start : int;
  accept : bool array;
  table : int array array; (* state -> symbol index -> state *)
}

let index_symbols alphabet =
  Array.to_list alphabet
  |> List.mapi (fun i sym -> (sym, i))
  |> List.fold_left (fun m (sym, i) -> Symbol.Map.add sym i m) Symbol.Map.empty

let create ~alphabet ~num_states ~start ~accept ~next =
  let alphabet = Array.of_list (List.sort_uniq Symbol.compare alphabet) in
  let sym_index = index_symbols alphabet in
  if num_states <= 0 then invalid_arg "Dfa.create: need at least one state";
  if start < 0 || start >= num_states then invalid_arg "Dfa.create: start out of range";
  let accept_arr = Array.make num_states false in
  List.iter
    (fun q ->
      if q < 0 || q >= num_states then invalid_arg "Dfa.create: accept out of range";
      accept_arr.(q) <- true)
    accept;
  let table =
    Array.init num_states (fun q ->
        Array.map
          (fun sym ->
            let q' = next q sym in
            if q' < 0 || q' >= num_states then invalid_arg "Dfa.create: next out of range";
            q')
          alphabet)
  in
  { alphabet; sym_index; num_states; start; accept = accept_arr; table }

(* Each state's edges already come in alphabet order, one per symbol, so
   they are the table row as they stand. *)
let of_graph ~alphabet ~accepting (g : (_, Symbol.t) Explore.graph) =
  let alphabet = Array.of_list alphabet in
  let row q edges =
    let row = Array.of_list edges in
    if
      Array.length row <> Array.length alphabet
      || not (Array.for_all2 (fun sym (label, _) -> Symbol.equal sym label) alphabet row)
    then
      invalid_arg
        (Printf.sprintf "Dfa.of_graph: the edges of state %d do not follow the alphabet" q);
    Array.map snd row
  in
  {
    alphabet;
    sym_index = index_symbols alphabet;
    num_states = Array.length g.keys;
    start = 0;
    accept = Array.map accepting g.keys;
    table = Array.mapi row g.succs;
  }

let alphabet dfa = Array.to_list dfa.alphabet
let num_states dfa = dfa.num_states
let start dfa = dfa.start
let is_accept dfa q = dfa.accept.(q)

let accept_states dfa =
  let acc = ref States.Set.empty in
  Array.iteri (fun q b -> if b then acc := States.Set.add q !acc) dfa.accept;
  !acc

let mem_alphabet dfa sym = Symbol.Map.mem sym dfa.sym_index

let next dfa q sym =
  match Symbol.Map.find_opt sym dfa.sym_index with
  | Some i -> dfa.table.(q).(i)
  | None -> invalid_arg ("Dfa.next: symbol outside alphabet: " ^ Symbol.name sym)

let run dfa trace = List.fold_left (fun q sym -> next dfa q sym) dfa.start trace
let accepts dfa trace = dfa.accept.(run dfa trace)

let same_alphabet a b =
  Array.length a.alphabet = Array.length b.alphabet
  && Array.for_all2 Symbol.equal a.alphabet b.alphabet

let require_same_alphabet a b =
  if not (same_alphabet a b) then
    invalid_arg "Dfa: boolean operation on different alphabets"

let complement dfa = { dfa with accept = Array.map not dfa.accept }

(* Pair construction: state (q1, q2) encoded as q1 * n2 + q2. *)
let product ~combine a b =
  require_same_alphabet a b;
  let n2 = b.num_states in
  create
    ~alphabet:(Array.to_list a.alphabet)
    ~num_states:(a.num_states * n2)
    ~start:((a.start * n2) + b.start)
    ~accept:
      (List.concat_map
         (fun q1 ->
           List.filter_map
             (fun q2 ->
               if combine a.accept.(q1) b.accept.(q2) then Some ((q1 * n2) + q2) else None)
             (List.init n2 Fun.id))
         (List.init a.num_states Fun.id))
    ~next:(fun q sym ->
      let q1 = q / n2 and q2 = q mod n2 in
      (next a q1 sym * n2) + next b q2 sym)

let intersect = product ~combine:( && )
let union = product ~combine:( || )
let difference = product ~combine:(fun x y -> x && not y)

let reachable_states dfa =
  let seen = Array.make dfa.num_states false in
  let rec go q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Array.iter go dfa.table.(q)
    end
  in
  go dfa.start;
  let acc = ref States.Set.empty in
  Array.iteri (fun q b -> if b then acc := States.Set.add q !acc) seen;
  !acc

(* BFS from the start state; first accepting state reached gives a shortest
   accepted trace. *)
let shortest_accepted dfa =
  let visited = Array.make dfa.num_states false in
  let queue = Queue.create () in
  visited.(dfa.start) <- true;
  Queue.add (dfa.start, []) queue;
  let rec loop () =
    match Queue.take_opt queue with
    | None -> None
    | Some (q, rev_path) ->
      if dfa.accept.(q) then Some (List.rev rev_path)
      else begin
        Array.iteri
          (fun i q' ->
            if not visited.(q') then begin
              visited.(q') <- true;
              Queue.add (q', dfa.alphabet.(i) :: rev_path) queue
            end)
          dfa.table.(q);
        loop ()
      end
  in
  loop ()

let is_empty dfa = Option.is_none (shortest_accepted dfa)
let counterexample_inclusion a b = shortest_accepted (difference a b)
let included a b = Option.is_none (counterexample_inclusion a b)

let equivalent a b =
  included a b && included b a

let words_upto ~max_len dfa =
  let acc = ref Trace.Set.empty in
  let rec go q rev_prefix depth =
    if dfa.accept.(q) then acc := Trace.Set.add (List.rev rev_prefix) !acc;
    if depth < max_len then
      Array.iteri
        (fun i q' -> go q' (dfa.alphabet.(i) :: rev_prefix) (depth + 1))
        dfa.table.(q)
  in
  go dfa.start [] 0;
  !acc

let to_nfa dfa =
  let transitions =
    List.concat_map
      (fun q ->
        List.mapi (fun i q' -> (q, dfa.alphabet.(i), q')) (Array.to_list dfa.table.(q)))
      (List.init dfa.num_states Fun.id)
  in
  Nfa.create ~num_states:dfa.num_states ~start:[ dfa.start ]
    ~accept:(States.Set.elements (accept_states dfa))
    ~transitions ()

let restrict_alphabet ~alphabet:new_alphabet dfa =
  let new_alphabet = List.sort_uniq Symbol.compare new_alphabet in
  (* A fresh sink absorbs the added symbols. *)
  let sink = dfa.num_states in
  create ~alphabet:new_alphabet ~num_states:(dfa.num_states + 1) ~start:dfa.start
    ~accept:(States.Set.elements (accept_states dfa))
    ~next:(fun q sym ->
      if q = sink then sink
      else if mem_alphabet dfa sym then next dfa q sym
      else sink)

let pp fmt dfa =
  Format.fprintf fmt "@[<v>states: %d, start: %d, accept: %a@," dfa.num_states dfa.start
    States.pp_set (accept_states dfa);
  Array.iteri
    (fun q row ->
      Array.iteri
        (fun i q' -> Format.fprintf fmt "%d --%a--> %d@," q Symbol.pp dfa.alphabet.(i) q')
        row)
    dfa.table;
  Format.fprintf fmt "@]"
