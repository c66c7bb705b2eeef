type t = {
  class_name : string;
  operations : int;
  exit_points : int;
  subsystems : int;
  claims : int;
  ir_nodes : int;
  usage_states : int;
  usage_transitions : int;
  usage_min_dfa_states : int;
  expanded_states : int;
  expanded_transitions : int;
  usages_upto_6 : int;
}

let to_counters s =
  [
    ("model.operations", s.operations);
    ("model.exit_points", s.exit_points);
    ("model.subsystems", s.subsystems);
    ("model.claims", s.claims);
    ("model.ir_nodes", s.ir_nodes);
    ("model.usage_states", s.usage_states);
    ("model.usage_transitions", s.usage_transitions);
    ("model.usage_min_dfa_states", s.usage_min_dfa_states);
    ("model.expanded_states", s.expanded_states);
    ("model.expanded_transitions", s.expanded_transitions);
  ]

let of_model (model : Model.t) =
  Obs.with_span ~args:[ ("class", model.Model.name) ] "stats" @@ fun () ->
  let usage = Depgraph.usage_nfa model in
  let usage_states, usage_transitions = Nfa.count_states_and_transitions usage in
  let expanded = Usage.expanded_nfa model in
  let expanded_states, expanded_transitions = Nfa.count_states_and_transitions expanded in
  let min_dfa = Minimize.minimize (Determinize.determinize usage) in
  let stats =
    {
    class_name = model.Model.name;
    operations = List.length model.Model.operations;
    exit_points =
      List.fold_left
        (fun acc (op : Model.operation) -> acc + List.length op.Model.exits)
        0 model.Model.operations;
    subsystems = List.length model.Model.declared_subsystems;
    claims = List.length model.Model.claims;
    ir_nodes =
      List.fold_left
        (fun acc (op : Model.operation) -> acc + Prog.size op.Model.plain_body)
        0 model.Model.operations;
    usage_states;
    usage_transitions;
    usage_min_dfa_states = Dfa.num_states min_dfa;
    expanded_states;
    expanded_transitions;
    usages_upto_6 = Trace.Set.cardinal (Nfa.words_upto ~max_len:6 usage);
    }
  in
  if Obs.enabled () then List.iter (fun (k, n) -> Obs.count k n) (to_counters stats);
  stats

let header =
  Printf.sprintf "%-14s %4s %5s %4s %6s %9s %9s %8s" "class" "ops" "exits" "sub" "irsize"
    "usage" "expanded" "minDFA"

let pp_row fmt s =
  Format.fprintf fmt "%-14s %4d %5d %4d %6d %4d/%-4d %4d/%-4d %8d" s.class_name s.operations
    s.exit_points s.subsystems s.ir_nodes s.usage_states s.usage_transitions s.expanded_states
    s.expanded_transitions s.usage_min_dfa_states
