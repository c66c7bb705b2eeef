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

(* --- List constructions ---------------------------------------------------------

   The constructions as the automata library built them before it copied
   edge arrays, over automata held as lists. Every result is one
   [create_ref], the list construction [Nfa.create] once was: the alphabet
   is a [Symbol.Set] of the transitions' symbols, and each state's
   transitions are sorted and made distinct. No automaton here is built by
   [Nfa]; [to_nfa] only hands a shuffle branch to the configuration tables
   the product is explored over. The array constructions must build the
   same automaton, field by field: states, start, accept, transitions,
   ε-transitions, alphabet and labels. *)

type nfa = {
  num_states : int;
  start : States.Set.t;
  accept : States.Set.t;
  transitions : (int * Symbol.t * int) list;  (** by source, then symbol, then target; distinct *)
  epsilons : (int * int) list;  (** by source, then target; distinct *)
  alphabet : Symbol.Set.t;
  labels : string option array;
}

let compare_transition (a, s, b) (a', s', b') =
  match Int.compare a a' with
  | 0 -> ( match Symbol.compare s s' with 0 -> Int.compare b b' | c -> c)
  | c -> c

let create_ref ?(labels = []) ~num_states ~start ~accept ~transitions ?(epsilons = []) () =
  let check q =
    if q < 0 || q >= num_states then invalid_arg "Automata_oracle.create_ref: state out of range"
  in
  List.iter check start;
  List.iter check accept;
  List.iter (fun (a, _, b) -> check a; check b) transitions;
  List.iter (fun (a, b) -> check a; check b) epsilons;
  let labels_arr = Array.make num_states None in
  List.iter (fun (q, l) -> check q; labels_arr.(q) <- Some l) labels;
  {
    num_states;
    start = States.of_list start;
    accept = States.of_list accept;
    transitions = List.sort_uniq compare_transition transitions;
    epsilons = List.sort_uniq compare epsilons;
    alphabet = List.fold_left (fun acc (_, s, _) -> Symbol.Set.add s acc) Symbol.Set.empty transitions;
    labels = labels_arr;
  }

let all_labels a =
  List.filter_map Fun.id (List.mapi (fun q l -> Option.map (fun l -> (q, l)) l) (Array.to_list a.labels))

let elements = States.Set.elements

let to_nfa a =
  Nfa.create ~labels:(all_labels a) ~num_states:a.num_states ~start:(elements a.start)
    ~accept:(elements a.accept) ~transitions:a.transitions ~epsilons:a.epsilons ()

(* Does the array-built automaton equal the list-built one, field by field? *)
let matches ?(labels = true) nfa a =
  Nfa.num_states nfa = a.num_states
  && States.Set.equal (Nfa.start nfa) a.start
  && States.Set.equal (Nfa.accept nfa) a.accept
  && Nfa.transitions nfa = a.transitions
  && Nfa.epsilons nfa = a.epsilons
  && Symbol.Set.equal (Nfa.alphabet nfa) a.alphabet
  && ((not labels) || List.for_all (fun q -> Nfa.label nfa q = a.labels.(q)) (List.init a.num_states Fun.id))

let pp fmt a =
  Format.fprintf fmt "@[<v>states: %d, start: %a, accept: %a@," a.num_states States.pp_set a.start
    States.pp_set a.accept;
  List.iter (fun (p, s, q) -> Format.fprintf fmt "%d --%a--> %d@," p Symbol.pp s q) a.transitions;
  List.iter (fun (p, q) -> Format.fprintf fmt "%d --eps--> %d@," p q) a.epsilons;
  Format.fprintf fmt "labels: [%s]@]"
    (String.concat "; " (List.map (fun (q, l) -> Printf.sprintf "%d:%s" q l) (all_labels a)))

let shift_list off l = List.map (fun (a, s, b) -> (a + off, s, b + off)) l
let shift_eps off l = List.map (fun (a, b) -> (a + off, b + off)) l
let shift_labels off l = List.map (fun (q, lab) -> (q + off, lab)) l

let union a b =
  let off = a.num_states in
  create_ref
    ~labels:(all_labels a @ shift_labels off (all_labels b))
    ~num_states:(off + b.num_states)
    ~start:(elements a.start @ List.map (( + ) off) (elements b.start))
    ~accept:(elements a.accept @ List.map (( + ) off) (elements b.accept))
    ~transitions:(a.transitions @ shift_list off b.transitions)
    ~epsilons:(a.epsilons @ shift_eps off b.epsilons)
    ()

let concat a b =
  let off = a.num_states in
  let bridge =
    List.concat_map (fun qa -> List.map (fun qb -> (qa, qb + off)) (elements b.start)) (elements a.accept)
  in
  create_ref
    ~labels:(all_labels a @ shift_labels off (all_labels b))
    ~num_states:(off + b.num_states) ~start:(elements a.start)
    ~accept:(List.map (( + ) off) (elements b.accept))
    ~transitions:(a.transitions @ shift_list off b.transitions)
    ~epsilons:(a.epsilons @ shift_eps off b.epsilons @ bridge)
    ()

let star a =
  let hub = a.num_states in
  create_ref ~labels:(all_labels a) ~num_states:(hub + 1) ~start:[ hub ] ~accept:[ hub ]
    ~transitions:a.transitions
    ~epsilons:
      (a.epsilons
      @ List.map (fun q -> (hub, q)) (elements a.start)
      @ List.map (fun q -> (q, hub)) (elements a.accept))
    ()

let map_symbols f a =
  let kept = ref [] and erased = ref a.epsilons in
  List.iter
    (fun (src, sym, dst) ->
      match f sym with
      | Some sym' -> kept := (src, sym', dst) :: !kept
      | None -> erased := (src, dst) :: !erased)
    a.transitions;
  create_ref ~labels:(all_labels a) ~num_states:a.num_states ~start:(elements a.start)
    ~accept:(elements a.accept) ~transitions:!kept ~epsilons:!erased ()

let add_self_loops syms a =
  let loops =
    List.concat
      (List.init a.num_states (fun q -> List.map (fun sym -> (q, sym, q)) (Symbol.Set.elements syms)))
  in
  create_ref ~labels:(all_labels a) ~num_states:a.num_states ~start:(elements a.start)
    ~accept:(elements a.accept) ~transitions:(loops @ a.transitions) ~epsilons:a.epsilons ()

let reverse a =
  create_ref ~labels:(all_labels a) ~num_states:a.num_states ~start:(elements a.accept)
    ~accept:(elements a.start)
    ~transitions:(List.map (fun (p, s, q) -> (q, s, p)) a.transitions)
    ~epsilons:(List.map (fun (p, q) -> (q, p)) a.epsilons)
    ()

let empty_language = create_ref ~num_states:1 ~start:[ 0 ] ~accept:[] ~transitions:[] ()

(* Set-valued fixpoints over the transition and ε lists, then a renumbered
   [create_ref]. *)
let trim a =
  let arrows = List.map (fun (p, _, q) -> (p, q)) a.transitions @ a.epsilons in
  let reach seeds arrows =
    let rec go seen =
      let more =
        List.filter_map
          (fun (p, q) -> if List.mem p seen && not (List.mem q seen) then Some q else None)
          arrows
      in
      if more = [] then seen else go (List.sort_uniq Int.compare (more @ seen))
    in
    go seeds
  in
  let forward = reach (elements a.start) arrows in
  let backward = reach (elements a.accept) (List.map (fun (p, q) -> (q, p)) arrows) in
  let live = List.sort_uniq Int.compare (List.filter (fun q -> List.mem q backward) forward) in
  if live = [] then empty_language
  else begin
    let rename q =
      let rec find i = function
        | [] -> None
        | x :: rest -> if x = q then Some i else find (i + 1) rest
      in
      find 0 live
    in
    let both p q k = match (rename p, rename q) with Some p, Some q -> Some (k p q) | _ -> None in
    create_ref
      ~labels:(List.filter_map (fun (q, l) -> Option.map (fun q -> (q, l)) (rename q)) (all_labels a))
      ~num_states:(List.length live)
      ~start:(List.filter_map rename (elements a.start))
      ~accept:(List.filter_map rename (elements a.accept))
      ~transitions:(List.filter_map (fun (p, s, q) -> both p q (fun p q -> (p, s, q))) a.transitions)
      ~epsilons:(List.filter_map (fun (p, q) -> both p q (fun p q -> (p, q))) a.epsilons)
      ()
  end

let universal alphabet =
  create_ref ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
    ~transitions:(List.map (fun sym -> (0, sym, 0)) (Symbol.Set.elements alphabet))
    ()

let of_graph ~symbols ~accepting (g : (_, int) Explore.graph) =
  let ids = List.init (Array.length g.keys) Fun.id in
  create_ref ~num_states:(Array.length g.keys) ~start:[ 0 ]
    ~accept:(List.filter (fun q -> accepting g.keys.(q)) ids)
    ~transitions:
      (List.concat_map (fun src -> List.map (fun (i, dst) -> (src, symbols.(i), dst)) g.succs.(src)) ids)
    ()

(* Glushkov's construction with the follow pairs gathered by list append,
   and its automaton made by one [create_ref]. *)
let glushkov_classic r =
  let module ISet = States.Set in
  let positions = ref [] and counter = ref 0 in
  let fresh sym =
    incr counter;
    positions := (!counter, sym) :: !positions;
    !counter
  in
  let cross a b = ISet.fold (fun x acc -> ISet.fold (fun y acc -> (x, y) :: acc) b acc) a [] in
  let rec analyze (r : Regex.t) =
    match r with
    | Empty -> (false, ISet.empty, ISet.empty, [])
    | Eps -> (true, ISet.empty, ISet.empty, [])
    | Sym s ->
      let p = fresh s in
      (false, ISet.singleton p, ISet.singleton p, [])
    | Seq (a, b) ->
      let na, fa, la, wa = analyze a in
      let nb, fb, lb, wb = analyze b in
      ( na && nb,
        (if na then ISet.union fa fb else fa),
        (if nb then ISet.union la lb else lb),
        cross la fb @ wa @ wb )
    | Alt (a, b) ->
      let na, fa, la, wa = analyze a in
      let nb, fb, lb, wb = analyze b in
      (na || nb, ISet.union fa fb, ISet.union la lb, wa @ wb)
    | Star a ->
      let _, fa, la, wa = analyze a in
      (true, fa, la, cross la fa @ wa)
    | Shuffle _ -> invalid_arg "Automata_oracle.glushkov_classic: Shuffle"
  in
  let nullable, first, last, follow = analyze r in
  let sym_at p = List.assoc p !positions in
  create_ref
    ~labels:(List.map (fun (p, sym) -> (p, Symbol.name sym)) !positions)
    ~num_states:(!counter + 1) ~start:[ 0 ]
    ~accept:((if nullable then [ 0 ] else []) @ ISet.elements last)
    ~transitions:
      (List.map (fun p -> (0, sym_at p, p)) (ISet.elements first)
      @ List.map (fun (p, q) -> (p, sym_at q, q)) follow)
    ()

(* The k-ary shuffle product over the branches' configuration tables, its
   edges labeled with symbols. *)
let shuffle_product branches =
  let branches = Array.of_list (List.map to_nfa branches) in
  let symbols = Array.map Nfa.symbols branches in
  let graph =
    Explore.graph Explore.ints ~start:(Array.map Nfa.Config.initial branches)
      ~step:(fun config emit ->
        Array.iteri
          (fun b nfa ->
            let row = Nfa.Config.row nfa config.(b) in
            Array.iter
              (fun i ->
                let config' = Array.copy config in
                config'.(b) <- row.(i);
                emit symbols.(b).(i) config')
              (Nfa.Config.live nfa config.(b)))
          branches)
      ()
  in
  let ids = List.init (Array.length graph.keys) Fun.id in
  create_ref ~num_states:(Array.length graph.keys) ~start:[ 0 ]
    ~accept:
      (List.filter
         (fun q ->
           Array.for_all Fun.id
             (Array.mapi (fun b nfa -> Nfa.Config.accepting nfa graph.keys.(q).(b)) branches))
         ids)
    ~transitions:
      (List.concat_map (fun src -> List.map (fun (sym, dst) -> (src, sym, dst)) graph.succs.(src)) ids)
    ()

let rec glushkov r =
  if Regex.shuffle_free r then glushkov_classic r
  else
    match (r : Regex.t) with
    | Shuffle (a, b) -> shuffle_product [ glushkov a; glushkov b ]
    | Seq (a, b) -> concat (glushkov a) (glushkov b)
    | Alt (a, b) -> union (glushkov a) (glushkov b)
    | Star a -> star (glushkov a)
    | Empty | Eps | Sym _ -> glushkov_classic r

(* The class expansion as [Usage] assembled it from each operation's own
   automaton: boundary states first (labeled), then each body's states,
   its own exit markers redirected to the boundary states as ε-edges. *)
let expanded model behaviors =
  let boundary = Hashtbl.create 16 and next_state = ref 1 in
  let labels = ref [ (0, "start") ] in
  List.iter
    (fun (op : Model.operation) ->
      List.iter
        (fun (e : Model.exit_point) ->
          Hashtbl.add boundary (op.op_name, e.exit_id) !next_state;
          labels := (!next_state, Printf.sprintf "%s/%d" op.op_name e.exit_id) :: !labels;
          incr next_state)
        op.exits)
    model.Model.operations;
  let transitions = ref [] and epsilons = ref [] and entry_points = Hashtbl.create 16 in
  List.iter
    (fun ((op : Model.operation), behavior) ->
      let body = glushkov behavior in
      let offset = !next_state in
      next_state := !next_state + body.num_states;
      Hashtbl.add entry_points op.op_name (List.map (( + ) offset) (elements body.start));
      List.iter
        (fun (src, sym, dst) ->
          match Symbol.exit_marker sym with
          | Some (meth, k) when String.equal meth op.op_name ->
            epsilons := (src + offset, Hashtbl.find boundary (op.op_name, k)) :: !epsilons
          | Some _ | None -> transitions := (src + offset, sym, dst + offset) :: !transitions)
        body.transitions;
      epsilons := shift_eps offset body.epsilons @ !epsilons)
    behaviors;
  let allow src (op : Model.operation) =
    List.iter
      (fun start -> transitions := (src, Model.entry_symbol op, start) :: !transitions)
      (Hashtbl.find entry_points op.op_name)
  in
  List.iter (allow 0) (Model.initial_ops model);
  List.iter
    (fun (op : Model.operation) ->
      List.iter
        (fun (e : Model.exit_point) ->
          List.iter
            (fun next ->
              Option.iter
                (allow (Hashtbl.find boundary (op.op_name, e.exit_id)))
                (Model.find_op model next))
            e.next_ops)
        op.exits)
    model.Model.operations;
  let accept =
    0
    :: List.concat_map
         (fun (op : Model.operation) ->
           List.map (fun (e : Model.exit_point) -> Hashtbl.find boundary (op.op_name, e.exit_id)) op.exits)
         (Model.final_ops model)
  in
  create_ref ~labels:!labels ~num_states:!next_state ~start:[ 0 ] ~accept ~transitions:!transitions
    ~epsilons:!epsilons ()

let marked model = List.map (fun (op : Model.operation) -> (op, op.marked_behavior)) model.Model.operations

let expanded_nfa model = expanded model (marked model)

(* The field's projection as [Usage] built it: the expansion of the
   projected behaviors, then a second automaton that erases the operation
   entries. *)
let projected_nfa model ~field =
  let field_call sym =
    match Symbol.split_scope sym with Some (scope, _) -> String.equal scope field | None -> false
  in
  let keep sym = field_call sym || Symbol.split_scope sym = None in
  let behaviors = List.map (fun (op, r) -> (op, Regex.project ~keep r)) (marked model) in
  map_symbols (fun sym -> if field_call sym then Some sym else None) (expanded model behaviors)
