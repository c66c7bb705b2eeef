type env = string -> Model.t option

(* Rename a base model's call events (control.on, status.value, ...) and exit
   markers are irrelevant here: the body NFA of an operation is built from the
   *marked* denotation, with marker transitions redirected to boundary
   states. *)

let marked_behaviors (model : Model.t) =
  List.map (fun (op : Model.operation) -> (op, op.marked_behavior)) model.Model.operations

(* [behaviors] pairs each operation of [model], in order, with its marked
   behavior regex. [span] tells full expansions ("usage.expand") from
   projected ones ("usage.project") in traces. *)
let expand ~span ~limits (model : Model.t) behaviors =
  Obs.with_span span @@ fun () ->
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
    (fun ((op : Model.operation), behavior) ->
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
          match Symbol.exit_marker sym with
          | Some (meth, k) when String.equal meth op.op_name ->
            epsilons := (src + offset, Hashtbl.find boundary (op.op_name, k)) :: !epsilons
          | Some _ | None -> transitions := (src + offset, sym, dst + offset) :: !transitions)
        (Nfa.transitions body_nfa);
      List.iter
        (fun (a, b) -> epsilons := (a + offset, b + offset) :: !epsilons)
        (Nfa.epsilons body_nfa))
    behaviors;
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

let expanded_nfa ?(limits = Limits.default) model =
  expand ~span:"usage.expand" ~limits model (marked_behaviors model)

let project_subsystem ~field trace =
  List.filter_map
    (fun sym ->
      match Symbol.split_scope sym with
      | Some (scope, op) when String.equal scope field -> Some op
      | Some _ | None -> None)
    trace

(* The subsystem's usage automaton over the composite's view of its calls. *)
let spec_of ~field sub_model =
  Nfa.map_symbols
    (fun sym -> Some (Symbol.scoped ~scope:field (Symbol.name sym)))
    (Depgraph.usage_nfa sub_model)

let subsystem_spec_nfa ~env ~field ~subsystem_class =
  Option.map (spec_of ~field) (env subsystem_class)

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

let field_call ~field sym =
  match Symbol.split_scope sym with
  | Some (scope, _) -> String.equal scope field
  | None -> false

(* Shortest trace of [impl] whose calls on [field] are not a usage of
   [spec]: [spec] is lifted with self-loops on every other symbol, which
   makes its language h⁻¹(L(spec)) for the homomorphism h that erases
   every symbol but the field's calls. *)
let lifted_counterexample ~limits ~field ~spec impl =
  let alphabet = Symbol.Set.union (Nfa.alphabet impl) (Nfa.alphabet spec) in
  let non_field_symbols = Symbol.Set.filter (fun sym -> not (field_call ~field sym)) alphabet in
  let lifted_spec = Nfa.add_self_loops non_field_symbols spec in
  Language.inclusion_counterexample ~limits ~alphabet ~impl ~spec:lifted_spec ()

(* The erasing homomorphism h of a field: its calls survive, and so do the
   operation entries and exit markers (they carry no scope), because the
   expansion is assembled from them. h distributes over every regex
   operator, so it is applied to each operation's behavior before
   Glushkov: a spawned task that never touches the field becomes ε and no
   shuffle product is built for it. *)
let project_behaviors ~field behaviors =
  let keep sym = field_call ~field sym || Symbol.split_scope sym = None in
  List.map (fun (op, r) -> (op, Regex.project ~keep r)) behaviors

(* h(r₁ ∥ r₂) = h(r₁) ∥ h(r₂), and the smart constructor drops a branch
   that h erased to ε (and [∅] annihilates). A projection left without a
   shuffle therefore had, at every fork, one branch the field never sees:
   running the branches one after the other instead gives it the same
   language. *)
let interleaves model ~field =
  List.exists
    (fun (_, r) -> not (Regex.shuffle_free r))
    (project_behaviors ~field (marked_behaviors model))

(* [L(impl) ⊆ h⁻¹(L(spec))] iff [h(L(impl)) ⊆ L(spec)]. The entries are
   erased from the assembled automaton, so the search steps only on the
   field's calls. *)
let projected_holds ~limits ~behaviors ~field ~spec model =
  let projected =
    expand ~span:"usage.project" ~limits model (project_behaviors ~field behaviors)
  in
  let impl =
    Nfa.map_symbols (fun sym -> if field_call ~field sym then Some sym else None) projected
  in
  Language.included ~limits ~impl ~spec ()

let holds ?(limits = Limits.default) ~env (model : Model.t) ~field ~subsystem_class =
  match env subsystem_class with
  | None -> true
  | Some sub_model ->
    projected_holds ~limits ~behaviors:(marked_behaviors model) ~field
      ~spec:(spec_of ~field sub_model) model

(* The report of a field whose projected verdict already failed: the
   shortest witness of the unprojected search over [impl], and how its
   projection fails the subsystem. *)
let report ~limits ~impl (model : Model.t) ~field ~subsystem_class ~spec sub_model =
  match lifted_counterexample ~limits ~field ~spec (Lazy.force impl) with
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
         })

let violation ?(limits = Limits.default) ~impl ~env model ~field ~subsystem_class =
  match env subsystem_class with
  | None -> None
  | Some sub_model ->
    report ~limits ~impl model ~field ~subsystem_class ~spec:(spec_of ~field sub_model)
      sub_model

(* The verdict comes from the projection; only a failing field pays for
   the unprojected search, whose shortest witness is the one reported.
   Erasing can make the projection less deterministic than the full
   expansion, so a projected search that runs out of fuel leaves the
   verdict to the unprojected one: a class never answers less than the
   full search would. *)
let check_field ~limits ~behaviors ~impl ~env (model : Model.t) ~field ~subsystem_class =
  match env subsystem_class with
  | None -> None
  | Some sub_model ->
    let spec = spec_of ~field sub_model in
    let decided =
      match projected_holds ~limits ~behaviors ~field ~spec model with
      | verdict -> verdict
      | exception Limits.Budget_exceeded _ -> false
    in
    if decided then None
    else report ~limits ~impl model ~field ~subsystem_class ~spec sub_model

(* The caller's full expansion, or one built here on first need. *)
let full_expansion ~limits ~behaviors model = function
  | Some impl -> impl
  | None -> lazy (expand ~span:"usage.expand" ~limits model behaviors)

let check_subsystem ?(limits = Limits.default) ?impl ~env model ~field ~subsystem_class =
  let behaviors = marked_behaviors model in
  let impl = full_expansion ~limits ~behaviors model impl in
  check_field ~limits ~behaviors ~impl ~env model ~field ~subsystem_class

let check ?(limits = Limits.default) ?impl ~env (model : Model.t) =
  match model.Model.kind with
  | `Base -> []
  | `Composite ->
    let behaviors = marked_behaviors model in
    let impl = full_expansion ~limits ~behaviors model impl in
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
          | Some _ ->
            check_field ~limits ~behaviors ~impl ~env model ~field ~subsystem_class))
      model.Model.declared_subsystems
