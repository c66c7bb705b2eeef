(* Restrict a DFA to its reachable states (renumbered densely). *)
let restrict_reachable dfa =
  let reachable = States.Set.elements (Dfa.reachable_states dfa) in
  let rename = Hashtbl.create 16 in
  List.iteri (fun i q -> Hashtbl.add rename q i) reachable;
  let old_of = Array.of_list reachable in
  Dfa.create
    ~alphabet:(Dfa.alphabet dfa)
    ~num_states:(Array.length old_of)
    ~start:(Hashtbl.find rename (Dfa.start dfa))
    ~accept:
      (List.filter_map
         (fun q -> if Dfa.is_accept dfa q then Hashtbl.find_opt rename q else None)
         reachable)
    ~next:(fun q sym -> Hashtbl.find rename (Dfa.next dfa old_of.(q) sym))

(* Quotient a DFA by a partition given as a class id per state. *)
let quotient dfa class_of num_classes =
  let repr = Array.make num_classes (-1) in
  Array.iteri (fun q c -> if repr.(c) < 0 then repr.(c) <- q) class_of;
  Dfa.create
    ~alphabet:(Dfa.alphabet dfa)
    ~num_states:num_classes
    ~start:class_of.(Dfa.start dfa)
    ~accept:
      (List.filter_map
         (fun c -> if Dfa.is_accept dfa repr.(c) then Some c else None)
         (List.init num_classes Fun.id))
    ~next:(fun c sym -> class_of.(Dfa.next dfa repr.(c) sym))

let minimize_moore dfa =
  let dfa = restrict_reachable dfa in
  let n = Dfa.num_states dfa in
  let syms = Dfa.alphabet dfa in
  (* Iteratively split classes until the signature (own class, class of each
     successor) is constant within every class. *)
  let class_of = Array.init n (fun q -> if Dfa.is_accept dfa q then 1 else 0) in
  let rec refine () =
    let signatures = Hashtbl.create n in
    let next_class = ref 0 in
    let new_class = Array.make n 0 in
    for q = 0 to n - 1 do
      let signature =
        (class_of.(q), List.map (fun sym -> class_of.(Dfa.next dfa q sym)) syms)
      in
      let c =
        match Hashtbl.find_opt signatures signature with
        | Some c -> c
        | None ->
          let c = !next_class in
          incr next_class;
          Hashtbl.add signatures signature c;
          c
      in
      new_class.(q) <- c
    done;
    let changed = ref false in
    for q = 0 to n - 1 do
      if new_class.(q) <> class_of.(q) then changed := true;
      class_of.(q) <- new_class.(q)
    done;
    if !changed then refine () else !next_class
  in
  let num_classes = refine () in
  quotient dfa class_of num_classes

let minimize_hopcroft dfa =
  let dfa = restrict_reachable dfa in
  let n = Dfa.num_states dfa in
  let syms = Array.of_list (Dfa.alphabet dfa) in
  let num_syms = Array.length syms in
  (* Predecessor lists per symbol. *)
  let preds = Array.make_matrix num_syms n [] in
  for q = 0 to n - 1 do
    for s = 0 to num_syms - 1 do
      let q' = Dfa.next dfa q syms.(s) in
      preds.(s).(q') <- q :: preds.(s).(q')
    done
  done;
  let module ISet = States.Set in
  let accepting = Dfa.accept_states dfa in
  let all = ISet.of_list (List.init n Fun.id) in
  let rejecting = ISet.diff all accepting in
  let partition = ref (List.filter (fun c -> not (ISet.is_empty c)) [ accepting; rejecting ]) in
  let worklist = Queue.create () in
  List.iter (fun c -> Queue.add c worklist) !partition;
  let rec loop () =
    match Queue.take_opt worklist with
    | None -> ()
    | Some splitter ->
      for s = 0 to num_syms - 1 do
        (* X = states with an s-transition into the splitter. *)
        let x =
          ISet.of_list (ISet.fold (fun q acc -> List.rev_append preds.(s).(q) acc) splitter [])
        in
        if not (ISet.is_empty x) then
          partition :=
            List.concat_map
              (fun y ->
                let inter = ISet.inter y x in
                let diff = ISet.diff y x in
                if ISet.is_empty inter || ISet.is_empty diff then [ y ]
                else begin
                  (* Standard Hopcroft trick: enqueue the smaller half. *)
                  if ISet.cardinal inter <= ISet.cardinal diff then Queue.add inter worklist
                  else Queue.add diff worklist;
                  [ inter; diff ]
                end)
              !partition
      done;
      loop ()
  in
  loop ();
  let class_of = Array.make n 0 in
  List.iteri (fun c states -> ISet.iter (fun q -> class_of.(q) <- c) states) !partition;
  quotient dfa class_of (List.length !partition)

let minimize = minimize_hopcroft

let isomorphic a b =
  Dfa.num_states a = Dfa.num_states b
  && List.equal Symbol.equal (Dfa.alphabet a) (Dfa.alphabet b)
  &&
  let mapping = Hashtbl.create 16 in
  let ok = ref true in
  let rec walk qa qb =
    match Hashtbl.find_opt mapping qa with
    | Some qb' -> if qb' <> qb then ok := false
    | None ->
      Hashtbl.add mapping qa qb;
      if Dfa.is_accept a qa <> Dfa.is_accept b qb then ok := false
      else
        List.iter (fun sym -> if !ok then walk (Dfa.next a qa sym) (Dfa.next b qb sym))
          (Dfa.alphabet a)
  in
  walk (Dfa.start a) (Dfa.start b);
  !ok
