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

(* The states [q] with [flags.(q)], ascending. *)
let states_where flags =
  let acc = ref [] in
  for q = Array.length flags - 1 downto 0 do
    if flags.(q) then acc := q :: !acc
  done;
  States.of_list !acc

let accept_states dfa = states_where dfa.accept

let next dfa q sym =
  match Symbol.Map.find_opt sym dfa.sym_index with
  | Some i -> dfa.table.(q).(i)
  | None -> invalid_arg ("Dfa.next: symbol outside alphabet: " ^ Symbol.name sym)

let reachable_states dfa =
  let seen = Array.make dfa.num_states false in
  let rec go q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Array.iter go dfa.table.(q)
    end
  in
  go dfa.start;
  states_where seen
