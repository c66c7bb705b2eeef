type env = string -> Model.t option

(* Rename a base model's call events (control.on, status.value, ...) and exit
   markers are irrelevant here: the body NFA of an operation is built from the
   *marked* denotation, with marker transitions redirected to boundary
   states. *)

let marked_behavior_regex (op : Model.operation) =
  (* Every alternative ends in an exit marker; the implicit exit (if any)
     needs its marker appended to the ongoing component. *)
  let explicit, ongoing =
    Extract.exit_behaviors_of_marked ~method_name:op.op_name op.marked_body
  in
  let explicit_res =
    List.map
      (fun (k, r) -> Regex.seq r (Regex.sym (Mpy_lower.exit_marker ~method_name:op.op_name k)))
      explicit
  in
  let implicit_res =
    match List.find_opt (fun (e : Model.exit_point) -> e.implicit) op.exits with
    | Some e ->
      [
        Regex.seq ongoing
          (Regex.sym (Mpy_lower.exit_marker ~method_name:op.op_name e.exit_id));
      ]
    | None -> []
  in
  Regex.alt_list (explicit_res @ implicit_res)

let expanded_nfa ?(limits = Limits.default) (model : Model.t) =
  Obs.with_span "usage.expand" @@ fun () ->
  (* Boundary states: 0 = start; one per (operation, exit). *)
  let boundary = Hashtbl.create 16 in
  let next_state = ref 1 in
  let labels = ref [ (0, "start") ] in
  List.iter
    (fun (op : Model.operation) ->
      List.iter
        (fun (e : Model.exit_point) ->
          Hashtbl.add boundary (op.op_name, e.exit_id) !next_state;
          labels := (!next_state, Printf.sprintf "%s/%d" op.op_name e.exit_id) :: !labels;
          incr next_state)
        op.exits)
    model.operations;
  let transitions = ref [] in
  let epsilons = ref [] in
  (* Embed one copy of each operation's body NFA. *)
  let entry_points = Hashtbl.create 16 in
  (* op name -> list of embedded start states *)
  List.iter
    (fun (op : Model.operation) ->
      let behavior = marked_behavior_regex op in
      let size = Regex.size behavior in
      Limits.check ~within:limits ~resource:"behavior regex size"
        ~limit:limits.Limits.max_regex_size size;
      Obs.count "usage.regex_size" size;
      (* [~limits] bounds the shuffle-product construction for behaviors
         with interleaved (async) components. *)
      let body_nfa = Glushkov.of_regex ~limits behavior in
      let offset = !next_state in
      next_state := !next_state + Nfa.num_states body_nfa;
      Hashtbl.add entry_points op.op_name
        (List.map (( + ) offset) (States.Set.elements (Nfa.start body_nfa)));
      List.iter
        (fun (src, sym, dst) ->
          match Mpy_lower.is_exit_marker sym with
          | Some (meth, k) when String.equal meth op.op_name ->
            epsilons := (src + offset, Hashtbl.find boundary (op.op_name, k)) :: !epsilons
          | Some _ | None -> transitions := (src + offset, sym, dst + offset) :: !transitions)
        (Nfa.transitions body_nfa);
      List.iter
        (fun (a, b) -> epsilons := (a + offset, b + offset) :: !epsilons)
        (Nfa.epsilons body_nfa))
    model.operations;
  (* Invocation edges: from a boundary state where [op] is allowed, consume
     the operation-entry event and jump into its body. *)
  let allow src (op : Model.operation) =
    List.iter
      (fun start -> transitions := (src, Model.entry_symbol op, start) :: !transitions)
      (Hashtbl.find entry_points op.op_name)
  in
  List.iter (fun op -> allow 0 op) (Model.initial_ops model);
  List.iter
    (fun (op : Model.operation) ->
      List.iter
        (fun (e : Model.exit_point) ->
          let src = Hashtbl.find boundary (op.op_name, e.exit_id) in
          List.iter
            (fun next ->
              match Model.find_op model next with
              | Some next_op -> allow src next_op
              | None -> ())
            e.next_ops)
        op.exits)
    model.operations;
  let accept =
    0
    :: List.concat_map
         (fun (op : Model.operation) ->
           List.map
             (fun (e : Model.exit_point) -> Hashtbl.find boundary (op.op_name, e.exit_id))
             op.exits)
         (Model.final_ops model)
  in
  Obs.count "usage.nfa_states" !next_state;
  Nfa.create ~labels:!labels ~num_states:!next_state ~start:[ 0 ] ~accept
    ~transitions:!transitions ~epsilons:!epsilons ()

let project_subsystem ~field trace =
  List.filter_map
    (fun sym ->
      match Symbol.split_scope sym with
      | Some (scope, op) when String.equal scope field -> Some op
      | Some _ | None -> None)
    trace

let subsystem_spec_nfa ~env ~field ~subsystem_class =
  match env subsystem_class with
  | None -> None
  | Some sub_model ->
    let nfa = Depgraph.usage_nfa sub_model in
    Some
      (Nfa.map_symbols
         (fun sym -> Some (Symbol.scoped ~scope:field (Symbol.name sym)))
         nfa)

(* Decide how the projected call sequence fails the subsystem model: either
   some call is not allowed at its position, or the whole sequence is a
   valid prefix but stops in a non-final position. *)
let diagnose_failure sub_model projected =
  let nfa = Depgraph.usage_nfa sub_model in
  let rec walk config = function
    | [] -> (
      match List.rev projected with
      | last :: _ -> Report.Not_final last
      | [] -> Report.Not_final "?")
    | op :: rest ->
      let next = Nfa.step nfa config (Symbol.intern op) in
      if States.Set.is_empty next then Report.Not_allowed op else walk next rest
  in
  walk (Nfa.initial_config nfa) projected

let check_subsystem ?limits ?impl ~env (model : Model.t) ~field ~subsystem_class =
  match env subsystem_class with
  | None -> None
  | Some sub_model -> (
    let impl =
      match impl with
      | Some impl -> impl
      | None -> expanded_nfa ?limits model
    in
    let spec =
      match subsystem_spec_nfa ~env ~field ~subsystem_class with
      | Some s -> s
      | None -> assert false
    in
    let alphabet = Symbol.Set.union (Nfa.alphabet impl) (Nfa.alphabet spec) in
    let non_field_symbols =
      Symbol.Set.filter
        (fun sym ->
          match Symbol.split_scope sym with
          | Some (scope, _) -> not (String.equal scope field)
          | None -> true)
        alphabet
    in
    let lifted_spec = Nfa.add_self_loops non_field_symbols spec in
    match Language.inclusion_counterexample ?limits ~alphabet ~impl ~spec:lifted_spec () with
    | None -> None
    | Some counterexample ->
      let projected = project_subsystem ~field counterexample in
      let failure = diagnose_failure sub_model projected in
      Some
        (Report.Invalid_subsystem_usage
           {
             class_name = model.Model.name;
             field;
             subsystem_class;
             counterexample;
             projected;
             failure;
           }))

let check ?limits ~env (model : Model.t) =
  match model.Model.kind with
  | `Base -> []
  | `Composite ->
    List.filter_map
      (fun field ->
        match Model.subsystem_class model field with
        | None ->
          Some
            (Report.structural ~line:model.Model.line Report.Error
               ~class_name:model.Model.name
               (Printf.sprintf
                  "declared subsystem '%s' is never assigned in __init__" field))
        | Some subsystem_class -> (
          match env subsystem_class with
          | None ->
            Some
              (Report.structural ~line:model.Model.line Report.Error
                 ~class_name:model.Model.name
                 (Printf.sprintf "subsystem '%s' has unknown class %s" field subsystem_class))
          | Some _ -> check_subsystem ?limits ~env model ~field ~subsystem_class))
      model.Model.declared_subsystems
