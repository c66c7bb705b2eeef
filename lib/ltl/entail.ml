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

(* Shortest trace in L(impl) ∩ L(f₁) ∩ … ∩ L(fₖ), by BFS over the memoized
   on-the-fly product. A product state is a configuration id and an
   obligation-vector id packed into one int, so each reachable pair is
   expanded exactly once. In one space equal nodes are equal Boolean
   functions, so which states are equal does not depend on what the
   session was asked before. Only states reachable under model-feasible
   traces are materialized, and a dead state is not expanded. Events are
   emitted in ascending order, and one outside [impl]'s alphabet only ever
   leads to the empty configuration, which is never emitted. *)
let joint_witness s ?fuel formulas =
  Obs.with_span "entail.product" @@ fun () ->
  let limit = Option.value fuel ~default:s.limits.Limits.max_configs in
  let budget = Limits.fuel ~within:s.limits ~resource:entail_resource limit in
  let counts = Explore.counts () in
  let impl = s.impl in
  let result =
    match
      Explore.witness Explore.int ~fuel:budget ~counts ~test:On_discovery
        ~goal:(fun k ->
          Nfa.Config.accepting impl (Explore.high k) && s.vectors.(Explore.low k).accepts_empty)
        ~start:
          (Explore.pack (Nfa.Config.initial impl)
             (vector_id s (Array.of_list (List.map (Progression.obligation s.space) formulas))))
        ~step:(fun k emit ->
          let v = Explore.low k in
          if not s.vectors.(v).dead then begin
            let c = Explore.high k in
            let row = Nfa.Config.row impl c and live = Nfa.Config.live impl c in
            for j = 0 to Array.length live - 1 do
              let i = live.(j) in
              emit s.symbols.(i) (Explore.pack row.(i) (step_vector s v i))
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
