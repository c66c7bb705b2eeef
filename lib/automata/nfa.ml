type t = {
  num_states : int;
  start : States.Set.t;
  accept : States.Set.t;
  delta : States.Set.t Symbol.Map.t array;
  eps : States.Set.t array;
  labels : string option array;
  alphabet : Symbol.Set.t;
  closed : States.Set.t Symbol.Map.t option array;
      (* ε-closed successors per state, filled on first use by [step]; an
         ε-free automaton needs no closure, so it steps on [delta] directly *)
  eps_free : bool;
}

let check_state n q = if q < 0 || q >= n then invalid_arg "Nfa: state out of range"

let create ?(labels = []) ~num_states ~start ~accept ~transitions ?(epsilons = []) () =
  let delta = Array.make num_states Symbol.Map.empty in
  let eps = Array.make num_states States.Set.empty in
  let labels_arr = Array.make num_states None in
  List.iter (fun q -> check_state num_states q) start;
  List.iter (fun q -> check_state num_states q) accept;
  List.iter
    (fun (src, sym, dst) ->
      check_state num_states src;
      check_state num_states dst;
      let targets =
        match Symbol.Map.find_opt sym delta.(src) with
        | Some set -> States.Set.add dst set
        | None -> States.Set.singleton dst
      in
      delta.(src) <- Symbol.Map.add sym targets delta.(src))
    transitions;
  List.iter
    (fun (src, dst) ->
      check_state num_states src;
      check_state num_states dst;
      eps.(src) <- States.Set.add dst eps.(src))
    epsilons;
  List.iter
    (fun (q, label) ->
      check_state num_states q;
      labels_arr.(q) <- Some label)
    labels;
  {
    num_states;
    start = States.of_list start;
    accept = States.of_list accept;
    delta;
    eps;
    labels = labels_arr;
    alphabet =
      Array.fold_left
        (fun acc by_sym -> Symbol.Map.fold (fun sym _ acc -> Symbol.Set.add sym acc) by_sym acc)
        Symbol.Set.empty delta;
    closed = (if epsilons = [] then [||] else Array.make num_states None);
    eps_free = (epsilons = []);
  }

let of_graph ~accepting (g : (_, Symbol.t) Explore.graph) =
  let ids = List.init (Array.length g.keys) Fun.id in
  create ~num_states:(Array.length g.keys) ~start:[ 0 ]
    ~accept:(List.filter (fun q -> accepting g.keys.(q)) ids)
    ~transitions:
      (List.concat_map
         (fun src -> List.map (fun (sym, dst) -> (src, sym, dst)) g.succs.(src))
         ids)
    ()

let empty_language = create ~num_states:1 ~start:[ 0 ] ~accept:[] ~transitions:[] ()
let eps_language = create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ] ~transitions:[] ()

let symbol sym =
  create ~num_states:2 ~start:[ 0 ] ~accept:[ 1 ] ~transitions:[ (0, sym, 1) ] ()

let num_states nfa = nfa.num_states
let start nfa = nfa.start
let accept nfa = nfa.accept
let is_accept nfa q = States.Set.mem q nfa.accept
let label nfa q = nfa.labels.(q)

let transitions nfa =
  let acc = ref [] in
  Array.iteri
    (fun src by_sym ->
      Symbol.Map.iter
        (fun sym targets -> States.Set.iter (fun dst -> acc := (src, sym, dst) :: !acc) targets)
        by_sym)
    nfa.delta;
  List.rev !acc

let epsilons nfa =
  let acc = ref [] in
  Array.iteri
    (fun src targets -> States.Set.iter (fun dst -> acc := (src, dst) :: !acc) targets)
    nfa.eps;
  List.rev !acc

let alphabet nfa = nfa.alphabet

let successors nfa q sym =
  match Symbol.Map.find_opt sym nfa.delta.(q) with
  | Some set -> set
  | None -> States.Set.empty

let eps_closure nfa set =
  let rec go frontier closed =
    if States.Set.is_empty frontier then closed
    else
      let next =
        States.Set.fold
          (fun q acc -> States.Set.union acc (States.Set.diff nfa.eps.(q) closed))
          frontier States.Set.empty
      in
      go next (States.Set.union closed next)
  in
  go set set

(* The closure of a union is the union of the closures, so stepping a
   configuration is a union of per-state rows, each closed once. *)
let closed_row nfa q =
  if nfa.eps_free then nfa.delta.(q)
  else
    match nfa.closed.(q) with
    | Some row -> row
    | None ->
      let row = Symbol.Map.map (eps_closure nfa) nfa.delta.(q) in
      nfa.closed.(q) <- Some row;
      row

let step nfa config sym =
  States.Set.fold
    (fun q acc ->
      match Symbol.Map.find_opt sym (closed_row nfa q) with
      | Some targets -> States.Set.union acc targets
      | None -> acc)
    config States.Set.empty

let initial_config nfa = eps_closure nfa nfa.start
let accepting_config nfa config = not (States.Set.disjoint config nfa.accept)

let accepts nfa trace =
  let final = List.fold_left (step nfa) (initial_config nfa) trace in
  accepting_config nfa final

(* --- Combinators --------------------------------------------------------- *)

let shift_list off l = List.map (fun (a, s, b) -> (a + off, s, b + off)) l
let shift_eps off l = List.map (fun (a, b) -> (a + off, b + off)) l
let shift_labels off l = List.map (fun (q, lab) -> (q + off, lab)) l

let all_labels nfa =
  Array.to_list nfa.labels
  |> List.mapi (fun q lab -> Option.map (fun l -> (q, l)) lab)
  |> List.filter_map Fun.id

let union a b =
  let off = a.num_states in
  create
    ~labels:(all_labels a @ shift_labels off (all_labels b))
    ~num_states:(a.num_states + b.num_states)
    ~start:(States.Set.elements a.start @ List.map (( + ) off) (States.Set.elements b.start))
    ~accept:(States.Set.elements a.accept @ List.map (( + ) off) (States.Set.elements b.accept))
    ~transitions:(transitions a @ shift_list off (transitions b))
    ~epsilons:(epsilons a @ shift_eps off (epsilons b))
    ()

let concat a b =
  let off = a.num_states in
  let bridge =
    List.concat_map
      (fun qa -> List.map (fun qb -> (qa, qb + off)) (States.Set.elements b.start))
      (States.Set.elements a.accept)
  in
  create
    ~labels:(all_labels a @ shift_labels off (all_labels b))
    ~num_states:(a.num_states + b.num_states)
    ~start:(States.Set.elements a.start)
    ~accept:(List.map (( + ) off) (States.Set.elements b.accept))
    ~transitions:(transitions a @ shift_list off (transitions b))
    ~epsilons:(epsilons a @ shift_eps off (epsilons b) @ bridge)
    ()

let star a =
  (* Fresh hub state: start and accept, ε to old starts, ε back from old
     accepts. The hub guarantees ε-acceptance without disturbing cycles. *)
  let hub = a.num_states in
  let to_starts = List.map (fun q -> (hub, q)) (States.Set.elements a.start) in
  let from_accepts = List.map (fun q -> (q, hub)) (States.Set.elements a.accept) in
  create ~labels:(all_labels a)
    ~num_states:(a.num_states + 1)
    ~start:[ hub ] ~accept:[ hub ] ~transitions:(transitions a)
    ~epsilons:(epsilons a @ to_starts @ from_accepts)
    ()

(* --- Transformations ------------------------------------------------------ *)

let map_symbols f nfa =
  let kept = ref [] in
  let new_eps = ref (epsilons nfa) in
  List.iter
    (fun (src, sym, dst) ->
      match f sym with
      | Some sym' -> kept := (src, sym', dst) :: !kept
      | None -> new_eps := (src, dst) :: !new_eps)
    (transitions nfa);
  create ~labels:(all_labels nfa) ~num_states:nfa.num_states
    ~start:(States.Set.elements nfa.start)
    ~accept:(States.Set.elements nfa.accept)
    ~transitions:!kept ~epsilons:!new_eps ()

let add_self_loops syms nfa =
  let loops =
    List.init nfa.num_states (fun q ->
        List.map (fun sym -> (q, sym, q)) (Symbol.Set.elements syms))
    |> List.concat
  in
  create ~labels:(all_labels nfa) ~num_states:nfa.num_states
    ~start:(States.Set.elements nfa.start)
    ~accept:(States.Set.elements nfa.accept)
    ~transitions:(loops @ transitions nfa)
    ~epsilons:(epsilons nfa) ()

let relabel_states f nfa =
  let labels =
    List.init nfa.num_states (fun q -> Option.map (fun l -> (q, l)) (f q))
    |> List.filter_map Fun.id
  in
  create ~labels ~num_states:nfa.num_states
    ~start:(States.Set.elements nfa.start)
    ~accept:(States.Set.elements nfa.accept)
    ~transitions:(transitions nfa) ~epsilons:(epsilons nfa) ()

let reverse nfa =
  create ~labels:(all_labels nfa) ~num_states:nfa.num_states
    ~start:(States.Set.elements nfa.accept)
    ~accept:(States.Set.elements nfa.start)
    ~transitions:(List.map (fun (a, s, b) -> (b, s, a)) (transitions nfa))
    ~epsilons:(List.map (fun (a, b) -> (b, a)) (epsilons nfa))
    ()

let reachable_from seeds ~next =
  let rec go frontier seen =
    if States.Set.is_empty frontier then seen
    else
      let advance =
        States.Set.fold (fun q acc -> States.Set.union acc (next q)) frontier States.Set.empty
      in
      let fresh = States.Set.diff advance seen in
      go fresh (States.Set.union seen fresh)
  in
  go seeds seeds

let trim nfa =
  let fwd_next q =
    Symbol.Map.fold (fun _ t acc -> States.Set.union t acc) nfa.delta.(q) nfa.eps.(q)
  in
  let forward = reachable_from nfa.start ~next:fwd_next in
  let rev = reverse nfa in
  let bwd_next q =
    Symbol.Map.fold (fun _ t acc -> States.Set.union t acc) rev.delta.(q) rev.eps.(q)
  in
  let backward = reachable_from rev.start ~next:bwd_next in
  let live = States.Set.inter forward backward in
  if States.Set.is_empty live then empty_language
  else begin
    let order = States.Set.elements live in
    let rename = Hashtbl.create 16 in
    List.iteri (fun i q -> Hashtbl.add rename q i) order;
    let keep q = Hashtbl.find_opt rename q in
    let map_pairs l =
      List.filter_map
        (fun (a, b) ->
          match keep a, keep b with
          | Some a', Some b' -> Some (a', b')
          | _ -> None)
        l
    in
    create
      ~labels:
        (List.filter_map
           (fun (q, lab) -> Option.map (fun q' -> (q', lab)) (keep q))
           (all_labels nfa))
      ~num_states:(List.length order)
      ~start:(List.filter_map keep (States.Set.elements nfa.start))
      ~accept:(List.filter_map keep (States.Set.elements nfa.accept))
      ~transitions:
        (List.filter_map
           (fun (a, s, b) ->
             match keep a, keep b with
             | Some a', Some b' -> Some (a', s, b')
             | _ -> None)
           (transitions nfa))
      ~epsilons:(map_pairs (epsilons nfa))
      ()
  end

(* --- Queries -------------------------------------------------------------- *)

(* The first accepting configuration dequeued is reached by a shortest,
   shortlex-least trace: symbols are emitted in order. *)
let shortest_accepted nfa =
  let syms = Symbol.Set.elements (alphabet nfa) in
  Explore.witness States.key ~goal:(accepting_config nfa) ~start:(initial_config nfa)
    ~step:(fun config emit ->
      List.iter
        (fun sym ->
          let next = step nfa config sym in
          if not (States.Set.is_empty next) then emit sym next)
        syms)
    ()

let shortest_accepted_with_states nfa =
  match shortest_accepted nfa with
  | None -> None
  | Some trace ->
    (* Replay to collect the configuration at each position, then walk
       backward picking one concrete state per position. *)
    let rec replay cur acc = function
      | [] -> List.rev (cur :: acc)
      | sym :: rest -> replay (step nfa cur sym) (cur :: acc) rest
    in
    let configs_arr = Array.of_list (replay (initial_config nfa) [] trace) in
    let trace_arr = Array.of_list trace in
    let n = Array.length trace_arr in
    let step1 q sym = step nfa (eps_closure nfa (States.Set.singleton q)) sym in
    let final =
      States.Set.inter configs_arr.(n) nfa.accept |> States.Set.min_elt
    in
    let path = Array.make (n + 1) final in
    for i = n - 1 downto 0 do
      let sym = trace_arr.(i) in
      let candidates =
        States.Set.filter (fun q -> States.Set.mem path.(i + 1) (step1 q sym)) configs_arr.(i)
      in
      path.(i) <- States.Set.min_elt candidates
    done;
    Some (trace, Array.to_list path)

let is_empty nfa = Option.is_none (shortest_accepted nfa)

let words_upto ~max_len nfa =
  let acc = ref Trace.Set.empty in
  let syms = Symbol.Set.elements (alphabet nfa) in
  let rec go config rev_prefix depth =
    if accepting_config nfa config then acc := Trace.Set.add (List.rev rev_prefix) !acc;
    if depth < max_len then
      List.iter
        (fun sym ->
          let next = step nfa config sym in
          if not (States.Set.is_empty next) then go next (sym :: rev_prefix) (depth + 1))
        syms
  in
  go (initial_config nfa) [] 0;
  !acc

let count_states_and_transitions nfa =
  (nfa.num_states, List.length (transitions nfa) + List.length (epsilons nfa))

let pp fmt nfa =
  Format.fprintf fmt "@[<v>states: %d, start: %a, accept: %a@," nfa.num_states States.pp_set
    nfa.start States.pp_set nfa.accept;
  List.iter
    (fun (a, s, b) -> Format.fprintf fmt "%d --%a--> %d@," a Symbol.pp s b)
    (transitions nfa);
  List.iter (fun (a, b) -> Format.fprintf fmt "%d --eps--> %d@," a b) (epsilons nfa);
  Format.fprintf fmt "@]"
