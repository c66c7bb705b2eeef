type node =
  | Entry of string
  | Exit of string * int

let node_label = function
  | Entry name -> name
  | Exit (name, k) -> name ^ "/" ^ string_of_int k

type t = {
  nodes : node list;
  arcs : (node * node) list;
}

let of_model (model : Model.t) =
  let nodes =
    List.concat_map
      (fun (op : Model.operation) ->
        Entry op.op_name
        :: List.map (fun (e : Model.exit_point) -> Exit (op.op_name, e.exit_id)) op.exits)
      model.operations
  in
  let arcs =
    List.concat_map
      (fun (op : Model.operation) ->
        List.concat_map
          (fun (e : Model.exit_point) ->
            (Entry op.op_name, Exit (op.op_name, e.exit_id))
            :: List.filter_map
                 (fun next ->
                   (* Arcs to unknown operations are dropped here; Validate
                      reports them. *)
                   if Model.find_op model next <> None then
                     Some (Exit (op.op_name, e.exit_id), Entry next)
                   else None)
                 e.next_ops)
          op.exits)
      model.operations
  in
  { nodes; arcs }

(* State numbering: 0 is the start; exits are numbered densely after it. *)
let exit_states (model : Model.t) =
  let table = Hashtbl.create 16 in
  let next = ref 1 in
  List.iter
    (fun (op : Model.operation) ->
      List.iter
        (fun (e : Model.exit_point) ->
          Hashtbl.add table (op.op_name, e.exit_id) !next;
          incr next)
        op.exits)
    model.operations;
  (table, !next)

let usage_nfa (model : Model.t) =
  let table, num_states = exit_states model in
  let state_of op_name exit_id = Hashtbl.find table (op_name, exit_id) in
  let b = Nfa.Builder.create () in
  ignore (Nfa.Builder.add_states b num_states);
  let invoke src (op : Model.operation) =
    List.iter
      (fun (e : Model.exit_point) ->
        Nfa.Builder.edge b src (Model.entry_symbol op) (state_of op.op_name e.exit_id))
      op.exits
  in
  List.iter (invoke 0) (Model.initial_ops model);
  Nfa.Builder.label b 0 "start";
  List.iter
    (fun (op : Model.operation) ->
      List.iter
        (fun (e : Model.exit_point) ->
          let src = state_of op.op_name e.exit_id in
          Nfa.Builder.label b src (node_label (Exit (op.op_name, e.exit_id)));
          List.iter
            (fun next ->
              match Model.find_op model next with
              | Some next_op -> invoke src next_op
              | None -> ())
            e.next_ops)
        op.exits)
    model.operations;
  let accept =
    0
    :: List.concat_map
         (fun (op : Model.operation) ->
           List.map (fun (e : Model.exit_point) -> state_of op.op_name e.exit_id) op.exits)
         (Model.final_ops model)
  in
  Nfa.Builder.finish b ~start:[ 0 ] ~accept

let reachable_ops (model : Model.t) =
  let rec grow seen frontier =
    match frontier with
    | [] -> seen
    | name :: rest ->
      if List.mem name seen then grow seen rest
      else
        let next =
          match Model.find_op model name with
          | Some op ->
            List.concat_map (fun (e : Model.exit_point) -> e.next_ops) op.exits
            |> List.filter (fun n -> Model.find_op model n <> None)
          | None -> []
        in
        grow (name :: seen) (next @ rest)
  in
  grow [] (List.map (fun (op : Model.operation) -> op.op_name) (Model.initial_ops model))
  |> List.rev

let ops_reaching_final (model : Model.t) =
  (* Fixpoint over the reversed next-op graph. *)
  let reaches = Hashtbl.create 16 in
  List.iter
    (fun (op : Model.operation) ->
      if Annotations.is_final op.op_kind then Hashtbl.replace reaches op.op_name ())
    model.operations;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (op : Model.operation) ->
        if not (Hashtbl.mem reaches op.op_name) then
          let can =
            List.exists
              (fun (e : Model.exit_point) ->
                List.exists (fun next -> Hashtbl.mem reaches next) e.next_ops)
              op.exits
          in
          if can then begin
            Hashtbl.replace reaches op.op_name ();
            changed := true
          end)
      model.operations
  done;
  List.filter (fun name -> Hashtbl.mem reaches name) (Model.op_names model)

let pp fmt g =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (src, dst) -> Format.fprintf fmt "%s -> %s@," (node_label src) (node_label dst))
    g.arcs;
  Format.fprintf fmt "@]"
