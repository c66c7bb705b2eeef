type budget = {
  resource : string;
  limit : int;
}

type verdict =
  | Entailed
  | Not_entailed of Trace.t
  | Unknown of budget

let pp_verdict fmt = function
  | Entailed -> Format.pp_print_string fmt "entailed"
  | Not_entailed tr -> Format.fprintf fmt "not entailed (counterexample: %a)" Trace.pp tr
  | Unknown b -> Format.fprintf fmt "unknown (%s budget of %d exhausted)" b.resource b.limit

let entail_resource = "entailment configurations"

module Configs = Hashtbl.Make ((val States.key))

(* Ids hash as plain arithmetic, with no call into the runtime's hash. *)
module Vectors = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b
  let hash = Array.fold_left (fun h x -> (h * 65599) + x) 0
end)

(* An ε-closed configuration of [impl]; [row] is its nonempty successors in
   ascending event order, filled on first use: event index [row.(2j)] leads
   to configuration id [row.(2j + 1)]. *)
type config = {
  set : States.Set.t;
  accepting : bool;
  mutable row : int array option;
}

(* One obligation node per formula of a query. [dead]: some obligation is
   false, so no extension satisfies them all. [steps.(i)] is the vector
   stepped on event [i] ([-1] until computed; empty until first stepped). *)
type vector = {
  nodes : int array;
  dead : bool;
  accepts_empty : bool;
  mutable steps : int array;
}

(* Every claim question a class asks goes to one of a few implementation
   automata, so a session keeps what does not depend on the question: one
   obligation space, each configuration of [impl] and each obligation
   vector interned to a dense id, and each vector's step per event.
   Events are indexed by their position in [impl]'s sorted alphabet. *)
type session = {
  limits : Limits.t;
  impl : Nfa.t;
  events : Symbol.t array;
  space : Progression.space;
  config_ids : int Configs.t;
  mutable configs : config array;
  vector_ids : int Vectors.t;
  mutable vectors : vector array;
}

let session ?(limits = Limits.default) ~impl () =
  {
    limits;
    impl;
    events = Array.of_list (Symbol.Set.elements (Nfa.alphabet impl));
    space = Progression.space ~limits ();
    config_ids = Configs.create 64;
    configs = [||];
    vector_ids = Vectors.create 64;
    vectors = [||];
  }

let impl s = s.impl

(* [arr] with [x] at index [i], which is at most its length. *)
let push arr i x =
  let arr = if i < Array.length arr then arr else Array.append arr (Array.make (max 16 i) x) in
  arr.(i) <- x;
  arr

let config_id s set =
  match Configs.find_opt s.config_ids set with
  | Some id -> id
  | None ->
    let id = Configs.length s.config_ids in
    s.configs <- push s.configs id { set; accepting = Nfa.accepting_config s.impl set; row = None };
    Configs.add s.config_ids set id;
    id

(* The one place event order is decided: a symbol outside [impl]'s alphabet
   only ever leads to the empty configuration, which is never emitted. *)
let successors s id =
  let config = s.configs.(id) in
  match config.row with
  | Some row -> row
  | None ->
    let row =
      List.init (Array.length s.events) Fun.id
      |> List.concat_map (fun i ->
             let set' = Nfa.step s.impl config.set s.events.(i) in
             if States.Set.is_empty set' then [] else [ i; config_id s set' ])
      |> Array.of_list
    in
    config.row <- Some row;
    row

let vector_id s nodes =
  match Vectors.find_opt s.vector_ids nodes with
  | Some id -> id
  | None ->
    let id = Vectors.length s.vector_ids in
    let vector =
      {
        nodes;
        dead = Array.mem 0 nodes;
        accepts_empty = Array.for_all (Progression.accepts_empty s.space) nodes;
        steps = [||];
      }
    in
    s.vectors <- push s.vectors id vector;
    Vectors.add s.vector_ids nodes id;
    id

let step_vector s id i =
  let vector = s.vectors.(id) in
  if Array.length vector.steps = 0 then vector.steps <- Array.make (Array.length s.events) (-1);
  if vector.steps.(i) < 0 then
    vector.steps.(i) <- vector_id s (Progression.step_all s.space vector.nodes s.events.(i));
  vector.steps.(i)

(* A product state: a configuration id and an obligation-vector id.
   Memoization keys on the pair, so each reachable pair is expanded exactly
   once. In one space equal nodes are equal Boolean functions, so which
   states are equal does not depend on what the session was asked before. *)
let product_key : (int * int) Explore.key =
  (module struct
    type t = int * int

    let equal (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
    let hash (a, b) = (a * 65599) + b
  end)

(* Shortest trace in L(impl) ∩ L(f₁) ∩ … ∩ L(fₖ), by BFS over the memoized
   on-the-fly product. Only states reachable under model-feasible traces are
   materialized, and a dead state is not expanded. *)
let joint_witness s ?fuel formulas =
  Obs.with_span "entail.product" @@ fun () ->
  let limit = Option.value fuel ~default:s.limits.Limits.max_configs in
  let budget = Limits.fuel ~within:s.limits ~resource:entail_resource limit in
  let counts = Explore.counts () in
  let result =
    match
      Explore.witness product_key ~fuel:budget ~counts ~test:On_discovery
        ~goal:(fun (c, v) -> s.configs.(c).accepting && s.vectors.(v).accepts_empty)
        ~start:
          ( config_id s (Nfa.initial_config s.impl),
            vector_id s (Array.of_list (List.map (Progression.obligation s.space) formulas)) )
        ~step:(fun (c, v) emit ->
          if not s.vectors.(v).dead then begin
            let row = successors s c in
            for j = 0 to (Array.length row / 2) - 1 do
              let i = row.(2 * j) in
              emit s.events.(i) (row.((2 * j) + 1), step_vector s v i)
            done
          end)
        ()
    with
    | witness -> Ok witness
    | exception Limits.Budget_exceeded { resource; limit } -> Error { resource; limit }
  in
  Obs.count "entail.states" counts.states;
  Obs.count "entail.memo_hits" counts.memo_hits;
  result

let implies s ?fuel ~hyps goal =
  Obs.with_span "entail.implies" @@ fun () ->
  (* L(impl) ⊨ (∧ hyps) ⇒ goal  ⟺  L(impl) ∩ L(∧ hyps) ∩ L(¬goal) = ∅. *)
  match joint_witness s ?fuel (hyps @ [ Ltlf.neg goal ]) with
  | Ok None -> Entailed
  | Ok (Some tr) -> Not_entailed tr
  | Error b -> Unknown b

(* The strict construction: whole tableau NFAs, a full subset-construction
   DFA for the goal, then language inclusion. Differential oracle for tests
   and the bench baseline; it pays for entire obligation closures up front,
   which is exactly what the on-the-fly product avoids. *)
let oracle_implies ?(limits = Limits.default) ?(alphabet = Symbol.Set.empty) ~impl ~hyps
    goal =
  Obs.with_span "entail.oracle" @@ fun () ->
  let alphabet =
    List.fold_left
      (fun acc f -> Symbol.Set.union acc (Ltlf.atoms f))
      (Symbol.Set.union alphabet (Nfa.alphabet impl))
      (goal :: hyps)
  in
  let alpha_list = Symbol.Set.elements alphabet in
  try
    let constrained =
      List.fold_left
        (fun acc f ->
          Language.intersect ~limits acc (Tableau.to_nfa ~limits ~alphabet:alpha_list f))
        impl hyps
    in
    let spec =
      Dfa.to_nfa
        (Determinize.determinize ~limits ~alphabet:alpha_list
           (Tableau.to_nfa ~limits ~alphabet:alpha_list goal))
    in
    match
      Language.inclusion_counterexample ~limits ~alphabet ~impl:constrained ~spec ()
    with
    | None -> Entailed
    | Some tr -> Not_entailed tr
  with Limits.Budget_exceeded { resource; limit } ->
    Obs.count "entail.oracle_budget_exhausted" 1;
    Unknown { resource; limit }
