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

module Vectors = Hashtbl.Make (Explore.Ints)

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
   obligation space, each obligation vector interned to a dense id, and
   each vector's step per event. Configurations of [impl] are ids in
   [impl]'s own table ({!Nfa.Config}). Events are indexed by their position
   in [impl]'s sorted alphabet, and [events.(i)] is event [i] resolved once
   in the space. *)
type session = {
  limits : Limits.t;
  impl : Nfa.t;
  symbols : Symbol.t array;
  space : Progression.space;
  events : Progression.event array;
  vector_ids : int Vectors.t;
  mutable vectors : vector array;
}

let session ?(limits = Limits.default) ~impl () =
  let space = Progression.space ~limits () in
  let symbols = Nfa.symbols impl in
  {
    limits;
    impl;
    symbols;
    space;
    events = Array.map (Progression.event space) symbols;
    vector_ids = Vectors.create 64;
    vectors = [||];
  }

let impl s = s.impl

(* [arr] with [x] at index [i], which is at most its length. *)
let push arr i x =
  let arr = if i < Array.length arr then arr else Array.append arr (Array.make (max 16 i) x) in
  arr.(i) <- x;
  arr

let vector_id s nodes =
  match Vectors.find s.vector_ids nodes with
  | id -> id
  | exception Not_found ->
    let id = Vectors.length s.vector_ids in
    Vectors.add s.vector_ids nodes id;
    let vector =
      {
        nodes;
        dead = Array.mem 0 nodes;
        accepts_empty = Array.for_all (Progression.accepts_empty s.space) nodes;
        steps = [||];
      }
    in
    s.vectors <- push s.vectors id vector;
    id

let step_vector s id i =
  let vector = s.vectors.(id) in
  if Array.length vector.steps = 0 then vector.steps <- Array.make (Array.length s.events) (-1);
  if vector.steps.(i) < 0 then
    vector.steps.(i) <- vector_id s (Progression.step_all s.space vector.nodes s.events.(i));
  vector.steps.(i)

(* The product of [impl] with one obligation per formula. A product state
   is a configuration id and an obligation-vector id packed into one int,
   so each reachable pair is expanded exactly once. In one space equal
   nodes are equal Boolean functions, so which states are equal does not
   depend on what the session was asked before. [start] is the initial
   state; [successors] emits a state's successors in ascending event
   order. An event outside [impl]'s alphabet only ever leads to the empty
   configuration, which is never emitted. *)
let start s formulas =
  Explore.pack (Nfa.Config.initial s.impl)
    (vector_id s (Array.map (Progression.obligation s.space) formulas))

let successors s k emit =
  let v = Explore.low k and c = Explore.high k in
  let row = Nfa.Config.row s.impl c and live = Nfa.Config.live s.impl c in
  for j = 0 to Array.length live - 1 do
    let i = live.(j) in
    emit s.symbols.(i) (Explore.pack row.(i) (step_vector s v i))
  done

(* Run [search] under [s]'s fuel, with its counters reported as
   [entail.states] and [entail.memo_hits] however it ends. *)
let budgeted s ?fuel search =
  let limit = Option.value fuel ~default:s.limits.Limits.max_configs in
  let budget = Limits.fuel ~within:s.limits ~resource:entail_resource limit in
  let counts = Explore.counts () in
  let result =
    match search budget counts with
    | r -> Ok r
    | exception Limits.Budget_exceeded { resource; limit } -> Error { resource; limit }
  in
  Obs.count "entail.states" counts.states;
  Obs.count "entail.memo_hits" counts.memo_hits;
  result

(* Shortest trace in L(impl) ∩ L(f₁) ∩ … ∩ L(fₖ), by BFS over the memoized
   on-the-fly product. Only states reachable under model-feasible traces
   are materialized, and a dead state is not expanded. *)
let joint_witness s ?fuel formulas =
  Obs.with_span "entail.product" @@ fun () ->
  budgeted s ?fuel @@ fun fuel counts ->
  Explore.witness Explore.int ~fuel ~counts ~test:On_discovery
    ~goal:(fun k ->
      Nfa.Config.accepting s.impl (Explore.high k) && s.vectors.(Explore.low k).accepts_empty)
    ~start:(start s (Array.of_list formulas))
    ~step:(fun k emit -> if not s.vectors.(Explore.low k).dead then successors s k emit)
    ()

let implies s ?fuel ~hyps goal =
  Obs.with_span "entail.implies" @@ fun () ->
  (* L(impl) ⊨ (∧ hyps) ⇒ goal  ⟺  L(impl) ∩ L(∧ hyps) ∩ L(¬goal) = ∅. *)
  match joint_witness s ?fuel (hyps @ [ Ltlf.neg goal ]) with
  | Ok None -> Entailed
  | Ok (Some tr) -> Not_entailed tr
  | Error b -> Unknown b

(* --- Claim tables ------------------------------------------------------------

   Every claim question over one model is a predicate on the claims' truth
   values at the end of a model trace, and the product with all the
   claims' obligations decides those truth values for every trace at once.
   A table's answers are the distinct truth vectors of the accepting
   product states ('1' at [j] when formula [j] holds), in the order
   breadth-first search first discovered a state with that vector, each
   with the path to that state. Discovery order is the shortlex order of
   the states' shortlex-least paths, so the first vector meeting a
   predicate names the shortlex-least model trace meeting it: the trace
   the question's own search would return. *)

type table = {
  owner : session;
  fuel : int option;
  formulas : Ltlf.t array;
  answers : (string * Trace.t) array option;  (* [None]: out of budget, ask per query *)
}

let truth t v =
  let nodes = t.vectors.(v).nodes in
  String.init (Array.length nodes) (fun j ->
      if Progression.accepts_empty t.space nodes.(j) then '1' else '0')

let answers t (tree : (int, Symbol.t) Explore.tree) =
  let seen = Hashtbl.create 16 and found = ref [] in
  Array.iteri
    (fun id k ->
      if Nfa.Config.accepting t.impl (Explore.high k) then begin
        let v = truth t (Explore.low k) in
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          found := (v, tree.path id) :: !found
        end
      end)
    tree.nodes;
  Array.of_list (List.rev !found)

(* The table searches in a session of its own, so a table that runs out of
   budget leaves [s]'s obligation space as it found it, and the per-query
   fallback runs as it would have without the table. It draws its fuel
   from [s]'s limits like a query, and is not pruned: a state where some
   claim is already false still decides the others. *)
let table s ?fuel formulas =
  Obs.with_span "entail.table" @@ fun () ->
  let formulas = Array.of_list formulas in
  let t = session ~limits:s.limits ~impl:s.impl () in
  let answers =
    budgeted s ?fuel (fun fuel counts ->
        answers t
          (Explore.tree Explore.int ~fuel ~counts ~start:(start t formulas) ~step:(successors t) ()))
  in
  { owner = s; fuel; formulas; answers = Result.to_option answers }

let tabled t = Option.is_some t.answers

let first answers wanted = Array.find_map (fun (v, tr) -> if wanted v then Some tr else None) answers

let holds v j = v.[j] = '1'

let table_implies t ~hyps goal =
  match t.answers with
  | Some a -> (
    match first a (fun v -> List.for_all (holds v) hyps && not (holds v goal)) with
    | None -> Entailed
    | Some tr -> Not_entailed tr)
  | None -> implies t.owner ?fuel:t.fuel ~hyps:(List.map (Array.get t.formulas) hyps) t.formulas.(goal)

let table_witness t fs =
  match t.answers with
  | Some a -> Ok (first a (fun v -> List.for_all (holds v) fs))
  | None -> joint_witness t.owner ?fuel:t.fuel (List.map (Array.get t.formulas) fs)
