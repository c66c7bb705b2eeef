type env = string -> Model.t option

(* Rename a base model's call events (control.on, status.value, ...) and exit
   markers are irrelevant here: the body NFA of an operation is built from the
   *marked* denotation, with marker transitions redirected to boundary
   states. *)

let marked_behaviors (model : Model.t) =
  List.map (fun (op : Model.operation) -> (op, op.marked_behavior)) model.Model.operations

let field_call ~field sym =
  match Symbol.split_scope sym with
  | Some (scope, _) -> String.equal scope field
  | None -> false

(* The erasing homomorphism h of a field: its calls survive, and so do the
   operation entries and exit markers (they carry no scope), because the
   expansion is assembled from them. h distributes over every regex
   operator, so it is applied to each operation's behavior before
   Glushkov: a spawned task that never touches the field becomes ε and no
   shuffle product is built for it. *)
let project_behaviors ~field behaviors =
  let keep sym = field_call ~field sym || Symbol.split_scope sym = None in
  List.map (fun (op, r) -> (op, Regex.project ~keep r)) behaviors

(* The class's expansion, assembled from each operation's marked behavior.
   The full expansion ("usage.expand" in traces) labels its
   boundary states, since only it is ever drawn. A field's projection
   ("usage.project") erases every other symbol: from the behaviors before
   any automaton is built, and from the operation entries (and whatever
   else the behaviors kept) as the edges are copied in, so the field's
   calls are its only symbols. *)
let expand ~limits ?field (model : Model.t) =
  let behaviors = marked_behaviors model in
  let span, keep, behaviors, labelled =
    match field with
    | None -> ("usage.expand", (fun _ -> true), behaviors, true)
    | Some field -> ("usage.project", field_call ~field, project_behaviors ~field behaviors, false)
  in
  Obs.with_span span @@ fun () ->
  let b = Nfa.Builder.create () in
  let edge src sym dst =
    if keep sym then Nfa.Builder.edge b src sym dst else Nfa.Builder.epsilon b src dst
  in
  (* Boundary states: 0 = start; one per (operation, exit). *)
  let start = Nfa.Builder.add_states b 1 in
  if labelled then Nfa.Builder.label b start "start";
  let boundary = Hashtbl.create 16 in
  List.iter
    (fun (op : Model.operation) ->
      List.iter
        (fun (e : Model.exit_point) ->
          let q = Nfa.Builder.add_states b 1 in
          Hashtbl.add boundary (op.op_name, e.exit_id) q;
          if labelled then
            Nfa.Builder.label b q (Depgraph.node_label (Exit (op.op_name, e.exit_id))))
        op.exits)
    model.operations;
  (* Embed one copy of each operation's body; its own exit markers become
     ε-edges to the boundary state of that exit. *)
  let entry_points = Hashtbl.create 16 in
  (* op name -> list of embedded start states *)
  List.iter
    (fun ((op : Model.operation), behavior) ->
      let size = Regex.size behavior in
      Limits.check ~within:limits ~resource:"behavior regex size"
        ~limit:limits.Limits.max_regex_size size;
      Obs.count "usage.regex_size" size;
      let body_edge src sym dst =
        match Symbol.exit_marker sym with
        | Some (meth, k) when String.equal meth op.op_name ->
          Nfa.Builder.epsilon b src (Hashtbl.find boundary (op.op_name, k))
        | Some _ | None -> edge src sym dst
      in
      (* [~limits] bounds the shuffle-product construction for behaviors
         with interleaved (async) components. *)
      Hashtbl.add entry_points op.op_name (Glushkov.embed ~limits b ~edge:body_edge behavior))
    behaviors;
  (* Invocation edges: from a boundary state where [op] is allowed, consume
     the operation-entry event and jump into its body. *)
  let allow src (op : Model.operation) =
    List.iter
      (fun entry -> edge src (Model.entry_symbol op) entry)
      (Hashtbl.find entry_points op.op_name)
  in
  List.iter (fun op -> allow start op) (Model.initial_ops model);
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
    start
    :: List.concat_map
         (fun (op : Model.operation) ->
           List.map
             (fun (e : Model.exit_point) -> Hashtbl.find boundary (op.op_name, e.exit_id))
             op.exits)
         (Model.final_ops model)
  in
  Obs.count "usage.nfa_states" (Nfa.Builder.num_states b);
  Nfa.Builder.finish b ~start:[ start ] ~accept

let expanded_nfa ?(limits = Limits.default) model = expand ~limits model

let projected_nfa ?(limits = Limits.default) model ~field = expand ~limits ~field model

let project_subsystem ~field trace =
  List.filter_map
    (fun sym ->
      match Symbol.split_scope sym with
      | Some (scope, op) when String.equal scope field -> Some op
      | Some _ | None -> None)
    trace

(* The subsystem's usage automaton ([protocol], {!Depgraph.usage_nfa} of
   its model) over the composite's view of its calls. *)
let spec_of ~field protocol =
  Nfa.map_symbols (fun sym -> Some (Symbol.scoped ~scope:field (Symbol.name sym))) protocol

let subsystem_spec_nfa ~env ~field ~subsystem_class =
  Option.map (fun sub_model -> spec_of ~field (Depgraph.usage_nfa sub_model)) (env subsystem_class)

(* Decide how the projected call sequence fails the subsystem's protocol:
   either some call is not allowed at its position, or the whole sequence is
   a valid prefix but stops in a non-final position. *)
let diagnose_failure protocol projected =
  let rec walk config = function
    | [] -> (
      match List.rev projected with
      | last :: _ -> Report.Not_final last
      | [] -> Report.Not_final "?")
    | op :: rest ->
      let next = Nfa.step protocol config (Symbol.intern op) in
      if States.Set.is_empty next then Report.Not_allowed op else walk next rest
  in
  walk (Nfa.initial_config protocol) projected

(* Shortest trace of [impl] whose calls on [field] are not a usage of
   [spec]: [spec] is lifted with self-loops on every other symbol, which
   makes its language h⁻¹(L(spec)) for the homomorphism h that erases
   every symbol but the field's calls. *)
let lifted_counterexample ~limits ~field ~spec impl =
  let alphabet = Symbol.Set.union (Nfa.alphabet impl) (Nfa.alphabet spec) in
  let non_field_symbols = Symbol.Set.filter (fun sym -> not (field_call ~field sym)) alphabet in
  let lifted_spec = Nfa.add_self_loops non_field_symbols spec in
  Language.inclusion_counterexample ~limits ~alphabet ~impl ~spec:lifted_spec ()

(* h(r₁ ∥ r₂) = h(r₁) ∥ h(r₂), and the smart constructor drops a branch
   that h erased to ε (and [∅] annihilates). A projection left without a
   shuffle therefore had, at every fork, one branch the field never sees:
   running the branches one after the other instead gives it the same
   language. *)
let interleaves model ~field =
  List.exists
    (fun (_, r) -> not (Regex.shuffle_free r))
    (project_behaviors ~field (marked_behaviors model))

(* [L(impl) ⊆ h⁻¹(L(spec))] iff [h(L(impl)) ⊆ L(spec)]. The projection
   keeps only the field's calls, so the search steps on nothing else. *)
let projected_holds ~limits ~field ~spec model =
  Language.included ~limits ~impl:(projected_nfa ~limits model ~field) ~spec ()

let holds ?(limits = Limits.default) ~env (model : Model.t) ~field ~subsystem_class =
  match env subsystem_class with
  | None -> true
  | Some sub_model ->
    projected_holds ~limits ~field ~spec:(spec_of ~field (Depgraph.usage_nfa sub_model)) model

(* The report of a field whose projected verdict already failed: the
   shortest witness of the unprojected search over [impl], and how its
   projection fails the subsystem's protocol. *)
let report ~limits ~impl (model : Model.t) ~field ~subsystem_class ~protocol ~spec =
  match lifted_counterexample ~limits ~field ~spec (Lazy.force impl) with
  | None -> None
  | Some counterexample ->
    let projected = project_subsystem ~field counterexample in
    let failure = diagnose_failure protocol projected in
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
    let protocol = Depgraph.usage_nfa sub_model in
    report ~limits ~impl model ~field ~subsystem_class ~protocol ~spec:(spec_of ~field protocol)

(* The verdict comes from the projection; only a failing field pays for
   the unprojected search, whose shortest witness is the one reported.
   Erasing can make the projection less deterministic than the full
   expansion, so a projected search that runs out of fuel leaves the
   verdict to the unprojected one: a class never answers less than the
   full search would. [protocol] is the subsystem's usage automaton. *)
let check_field ~limits ~impl (model : Model.t) ~field ~subsystem_class ~protocol =
  let spec = spec_of ~field protocol in
  let decided =
    match projected_holds ~limits ~field ~spec model with
    | verdict -> verdict
    | exception Limits.Budget_exceeded _ -> false
  in
  if decided then None else report ~limits ~impl model ~field ~subsystem_class ~protocol ~spec

(* The caller's full expansion, or one built here on first need. *)
let full_expansion ~limits model = function
  | Some impl -> impl
  | None -> lazy (expanded_nfa ~limits model)

let check_subsystem ?(limits = Limits.default) ?impl ~env model ~field ~subsystem_class =
  match env subsystem_class with
  | None -> None
  | Some sub_model ->
    let impl = full_expansion ~limits model impl in
    check_field ~limits ~impl model ~field ~subsystem_class ~protocol:(Depgraph.usage_nfa sub_model)

(* Fields of one subsystem class share its usage automaton, built the
   first time one of them is checked. *)
let check ?(limits = Limits.default) ?impl ~env (model : Model.t) =
  match model.Model.kind with
  | `Base -> []
  | `Composite ->
    let impl = full_expansion ~limits model impl in
    let protocols = ref [] in
    let protocol subsystem_class sub_model =
      match List.assoc_opt subsystem_class !protocols with
      | Some nfa -> nfa
      | None ->
        let nfa = Depgraph.usage_nfa sub_model in
        protocols := (subsystem_class, nfa) :: !protocols;
        nfa
    in
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
          | Some sub_model ->
            check_field ~limits ~impl model ~field ~subsystem_class
              ~protocol:(protocol subsystem_class sub_model)))
      model.Model.declared_subsystems
