(* The configuration table (module [Config] below): every ε-closed
   configuration the automaton has been stepped from, interned to a dense
   id in the order first reached; id [0] is the empty configuration.
   [rows.(c)] is [c]'s successor id per symbol index ([[||]] until [c] is
   first stepped), so once filled a step is an array read. *)
module Ids = Hashtbl.Make (States.Set)

type table = {
  ids : int Ids.t;
  mutable sets : States.Set.t array;
  mutable accepting : bool array;
  mutable rows : int array array;
  mutable live : int array array;  (** the indices of [rows.(c)] that are not [0], ascending *)
  mutable initial : int;  (** [-1] until first asked *)
}

(* A state's ε-closed successors: [targets.(j)] on symbol index [syms.(j)],
   indices ascending, only the nonempty ones. *)
type row = {
  syms : int array;
  targets : States.Set.t array;
}

(* Transitions are one sorted int array: state [q]'s edges are
   [edges.(offsets.(q)) .. edges.(offsets.(q + 1) - 1)], each edge the
   symbol's index in [symbols] in the high bits and the target state in the
   low 31 (see [edge]), so a state's edges ascend by symbol, then target. *)
type t = {
  num_states : int;
  start : States.Set.t;
  accept : States.Set.t;
  offsets : int array;
  edges : int array;
  eps : States.Set.t array;  (** [[||]] when the automaton is ε-free *)
  labels : string option array;
  alphabet : Symbol.Set.t;
  symbols : Symbol.t array;  (** [alphabet] ascending: symbol index [i] is [symbols.(i)] *)
  mutable closures : States.Set.t array;
      (** each state's ε-closure, or the empty set until first needed; the
          array itself is [[||]] until the first closure *)
  mutable rows : row option array;  (** each state's row, filled on first use *)
  mutable marks : Bytes.t;  (** visited marks for [state_closure], all zero between uses *)
  mutable table : table option;  (** created on first use *)
}

let check_state n q = if q < 0 || q >= n then invalid_arg "Nfa: state out of range"
let edge i dst = (i lsl 31) lor dst
let edge_sym e = e lsr 31
let edge_dst e = e land 0x7FFF_FFFF

(* Binary search, as a loop: a local recursive function would be a
   closure allocated per call. *)
let index_in symbols sym =
  let lo = ref 0 and hi = ref (Array.length symbols) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Symbol.compare symbols.(mid) sym in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid
  done;
  !found

(* Sorts [a.(lo) .. a.(hi - 1)] in place. A segment that arrives
   ascending, as the combinators' copies of sorted edges do, is only
   checked; any other, such as Glushkov's descending follow edges, is
   sorted. *)
let sort_segment a lo hi =
  let i = ref (lo + 1) in
  while !i < hi && a.(!i - 1) <= a.(!i) do
    incr i
  done;
  if !i < hi then begin
    let seg = Array.sub a lo (hi - lo) in
    Array.sort Int.compare seg;
    Array.blit seg 0 a lo (hi - lo)
  end

let create ?(labels = []) ~num_states ~start ~accept ~transitions ?(epsilons = []) () =
  List.iter (fun q -> check_state num_states q) start;
  List.iter (fun q -> check_state num_states q) accept;
  let offsets = Array.make (num_states + 1) 0 in
  let alphabet =
    List.fold_left
      (fun acc (src, sym, dst) ->
        check_state num_states src;
        check_state num_states dst;
        offsets.(src + 1) <- offsets.(src + 1) + 1;
        Symbol.Set.add sym acc)
      Symbol.Set.empty transitions
  in
  let symbols = Array.of_list (Symbol.Set.elements alphabet) in
  for q = 1 to num_states do
    offsets.(q) <- offsets.(q) + offsets.(q - 1)
  done;
  let edges = Array.make offsets.(num_states) 0 in
  let cursor = Array.sub offsets 0 num_states in
  List.iter
    (fun (src, sym, dst) ->
      edges.(cursor.(src)) <- edge (index_in symbols sym) dst;
      cursor.(src) <- cursor.(src) + 1)
    transitions;
  (* Sort each state's edges and squeeze out duplicates, in place. *)
  let kept = ref 0 in
  for q = 0 to num_states - 1 do
    let lo = offsets.(q) and hi = offsets.(q + 1) in
    sort_segment edges lo hi;
    offsets.(q) <- !kept;
    for j = lo to hi - 1 do
      if !kept = offsets.(q) || edges.(!kept - 1) <> edges.(j) then begin
        edges.(!kept) <- edges.(j);
        incr kept
      end
    done
  done;
  offsets.(num_states) <- !kept;
  let eps =
    if epsilons = [] then [||]
    else begin
      let eps = Array.make num_states [] in
      List.iter
        (fun (src, dst) ->
          check_state num_states src;
          check_state num_states dst;
          eps.(src) <- dst :: eps.(src))
        epsilons;
      Array.map States.of_list eps
    end
  in
  let labels_arr = Array.make num_states None in
  List.iter
    (fun (q, label) ->
      check_state num_states q;
      labels_arr.(q) <- Some label)
    labels;
  {
    num_states;
    start = States.of_list start;
    accept = States.of_list accept;
    offsets;
    edges = (if !kept = Array.length edges then edges else Array.sub edges 0 !kept);
    eps;
    labels = labels_arr;
    alphabet;
    symbols;
    closures = [||];
    rows = [||];
    marks = Bytes.empty;
    table = None;
  }

let of_graph ~accepting (g : (_, Symbol.t) Explore.graph) =
  let ids = List.init (Array.length g.keys) Fun.id in
  create ~num_states:(Array.length g.keys) ~start:[ 0 ]
    ~accept:(List.filter (fun q -> accepting g.keys.(q)) ids)
    ~transitions:
      (List.concat_map
         (fun src -> List.map (fun (sym, dst) -> (src, sym, dst)) g.succs.(src))
         ids)
    ()

let empty_language = create ~num_states:1 ~start:[ 0 ] ~accept:[] ~transitions:[] ()
let eps_language = create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ] ~transitions:[] ()

let universal alphabet =
  create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
    ~transitions:(List.map (fun sym -> (0, sym, 0)) (Symbol.Set.elements alphabet))
    ()

let symbol sym =
  create ~num_states:2 ~start:[ 0 ] ~accept:[ 1 ] ~transitions:[ (0, sym, 1) ] ()

let num_states nfa = nfa.num_states
let start nfa = nfa.start
let accept nfa = nfa.accept
let is_accept nfa q = States.Set.mem q nfa.accept
let label nfa q = nfa.labels.(q)
let eps_of nfa q = if Array.length nfa.eps = 0 then States.Set.empty else nfa.eps.(q)

let transitions nfa =
  let acc = ref [] in
  for src = nfa.num_states - 1 downto 0 do
    for j = nfa.offsets.(src + 1) - 1 downto nfa.offsets.(src) do
      let e = nfa.edges.(j) in
      acc := (src, nfa.symbols.(edge_sym e), edge_dst e) :: !acc
    done
  done;
  !acc

let epsilons nfa =
  let acc = ref [] in
  for src = Array.length nfa.eps - 1 downto 0 do
    acc := List.map (fun dst -> (src, dst)) (States.Set.elements nfa.eps.(src)) @ !acc
  done;
  !acc

let alphabet nfa = nfa.alphabet
let symbols nfa = Array.copy nfa.symbols
let symbol_index nfa sym = index_in nfa.symbols sym

(* The targets of [q]'s edges [lo .. hi - 1]. *)
let targets nfa lo hi = States.Set.of_array (Array.init (hi - lo) (fun t -> edge_dst nfa.edges.(lo + t)))

let successors nfa q sym =
  let i = symbol_index nfa sym in
  let lo = ref nfa.offsets.(q) and hi = nfa.offsets.(q + 1) in
  while !lo < hi && edge_sym nfa.edges.(!lo) < i do
    incr lo
  done;
  let stop = ref !lo in
  while !stop < hi && edge_sym nfa.edges.(!stop) = i do
    incr stop
  done;
  targets nfa !lo !stop

(* Depth-first over ε-edges, marking visited states in [marks]; the marks
   are cleared again before returning. *)
let state_closure nfa q =
  if Array.length nfa.closures = 0 then nfa.closures <- Array.make nfa.num_states States.Set.empty;
  let c = nfa.closures.(q) in
  if not (States.Set.is_empty c) then c
  else begin
    if Bytes.length nfa.marks < nfa.num_states then nfa.marks <- Bytes.make nfa.num_states '\000';
    let marks = nfa.marks in
    let seen = ref [] in
    let rec visit p =
      if Bytes.get marks p = '\000' then begin
        Bytes.set marks p '\001';
        seen := p :: !seen;
        States.Set.iter visit nfa.eps.(p)
      end
    in
    visit q;
    List.iter (fun p -> Bytes.set marks p '\000') !seen;
    let c = States.of_list !seen in
    nfa.closures.(q) <- c;
    c
  end

let eps_closure nfa set =
  if Array.length nfa.eps = 0 then set
  else States.Set.union_all (States.Set.fold (fun q acc -> state_closure nfa q :: acc) set [])

(* The closure of a union is the union of the closures, so stepping a
   configuration is a union of per-state rows, each closed once. *)
let closed_row nfa q =
  if Array.length nfa.rows = 0 then nfa.rows <- Array.make nfa.num_states None;
  match nfa.rows.(q) with
  | Some row -> row
  | None ->
    let syms = ref [] and sets = ref [] in
    let j = ref nfa.offsets.(q) and hi = nfa.offsets.(q + 1) in
    while !j < hi do
      let i = edge_sym nfa.edges.(!j) in
      let stop = ref (!j + 1) in
      while !stop < hi && edge_sym nfa.edges.(!stop) = i do
        incr stop
      done;
      syms := i :: !syms;
      sets := eps_closure nfa (targets nfa !j !stop) :: !sets;
      j := !stop
    done;
    let row = { syms = Array.of_list (List.rev !syms); targets = Array.of_list (List.rev !sets) } in
    nfa.rows.(q) <- Some row;
    row

(* The targets of [q]'s row on symbol index [i], prepended to [acc]. *)
let row_targets nfa q i acc =
  let row = closed_row nfa q in
  let rec go lo hi =
    if lo >= hi then acc
    else
      let mid = (lo + hi) lsr 1 in
      let x = row.syms.(mid) in
      if x = i then row.targets.(mid) :: acc else if x < i then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length row.syms)

let step nfa config sym =
  let i = symbol_index nfa sym in
  if i < 0 then States.Set.empty
  else States.Set.union_all (States.Set.fold (fun q acc -> row_targets nfa q i acc) config [])

let initial_config nfa = eps_closure nfa nfa.start
let accepting_config nfa config = not (States.Set.disjoint config nfa.accept)

let accepts nfa trace =
  let final = List.fold_left (step nfa) (initial_config nfa) trace in
  accepting_config nfa final

(* --- The configuration table ---------------------------------------------- *)

module Config = struct
  let empty = 0

  let table nfa =
    match nfa.table with
    | Some tbl -> tbl
    | None ->
      let ids = Ids.create 16 in
      Ids.add ids States.Set.empty empty;
      let tbl =
        {
          ids;
          sets = Array.make 16 States.Set.empty;
          accepting = Array.make 16 false;
          rows = Array.make 16 [||];
          live = Array.make 16 [||];
          initial = -1;
        }
      in
      nfa.table <- Some tbl;
      tbl

  let grow arr n x = Array.append arr (Array.make n x)

  let intern_in nfa tbl (set : States.Set.t) =
    match Ids.find tbl.ids set with
    | id -> id
    | exception Not_found ->
      let id = Ids.length tbl.ids in
      Ids.add tbl.ids set id;
      if id = Array.length tbl.sets then begin
        tbl.sets <- grow tbl.sets id States.Set.empty;
        tbl.accepting <- grow tbl.accepting id false;
        tbl.rows <- grow tbl.rows id [||];
        tbl.live <- grow tbl.live id [||]
      end;
      tbl.sets.(id) <- set;
      tbl.accepting.(id) <- accepting_config nfa set;
      id

  let initial nfa =
    let tbl = table nfa in
    if tbl.initial < 0 then tbl.initial <- intern_in nfa tbl (initial_config nfa);
    tbl.initial

  let accepting nfa c = (table nfa).accepting.(c)

  (* Every symbol's successor at once: each state's closed row drops its
     targets into per-symbol buckets, and each bucket is merged once. *)
  let fill nfa tbl c =
    let row = Array.make (Array.length nfa.symbols) empty in
    let buckets = Array.make (Array.length nfa.symbols) [] in
    States.Set.iter
      (fun q ->
        let r = closed_row nfa q in
        Array.iteri (fun j i -> buckets.(i) <- r.targets.(j) :: buckets.(i)) r.syms)
      tbl.sets.(c);
    let live = ref [] in
    for i = Array.length buckets - 1 downto 0 do
      match buckets.(i) with [] -> () | _ :: _ -> live := i :: !live
    done;
    List.iter (fun i -> row.(i) <- intern_in nfa tbl (States.Set.union_all buckets.(i))) !live;
    tbl.rows.(c) <- row;
    tbl.live.(c) <- Array.of_list !live

  (* A row is filled iff it is nonempty, or the alphabet is empty. *)
  let row nfa c =
    let tbl = table nfa in
    if Array.length tbl.rows.(c) = 0 then fill nfa tbl c;
    tbl.rows.(c)

  let live nfa c =
    let tbl = table nfa in
    if Array.length tbl.rows.(c) = 0 then fill nfa tbl c;
    tbl.live.(c)

  let next nfa c i = if i < 0 then empty else (row nfa c).(i)
end

(* --- Combinators --------------------------------------------------------- *)

let shift_list off l = List.map (fun (a, s, b) -> (a + off, s, b + off)) l
let shift_eps off l = List.map (fun (a, b) -> (a + off, b + off)) l
let shift_labels off l = List.map (fun (q, lab) -> (q + off, lab)) l

let all_labels nfa =
  Array.to_list nfa.labels
  |> List.mapi (fun q lab -> Option.map (fun l -> (q, l)) lab)
  |> List.filter_map Fun.id

let union a b =
  let off = a.num_states in
  create
    ~labels:(all_labels a @ shift_labels off (all_labels b))
    ~num_states:(a.num_states + b.num_states)
    ~start:(States.Set.elements a.start @ List.map (( + ) off) (States.Set.elements b.start))
    ~accept:(States.Set.elements a.accept @ List.map (( + ) off) (States.Set.elements b.accept))
    ~transitions:(transitions a @ shift_list off (transitions b))
    ~epsilons:(epsilons a @ shift_eps off (epsilons b))
    ()

let concat a b =
  let off = a.num_states in
  let bridge =
    List.concat_map
      (fun qa -> List.map (fun qb -> (qa, qb + off)) (States.Set.elements b.start))
      (States.Set.elements a.accept)
  in
  create
    ~labels:(all_labels a @ shift_labels off (all_labels b))
    ~num_states:(a.num_states + b.num_states)
    ~start:(States.Set.elements a.start)
    ~accept:(List.map (( + ) off) (States.Set.elements b.accept))
    ~transitions:(transitions a @ shift_list off (transitions b))
    ~epsilons:(epsilons a @ shift_eps off (epsilons b) @ bridge)
    ()

let star a =
  (* Fresh hub state: start and accept, ε to old starts, ε back from old
     accepts. The hub guarantees ε-acceptance without disturbing cycles. *)
  let hub = a.num_states in
  let to_starts = List.map (fun q -> (hub, q)) (States.Set.elements a.start) in
  let from_accepts = List.map (fun q -> (q, hub)) (States.Set.elements a.accept) in
  create ~labels:(all_labels a)
    ~num_states:(a.num_states + 1)
    ~start:[ hub ] ~accept:[ hub ] ~transitions:(transitions a)
    ~epsilons:(epsilons a @ to_starts @ from_accepts)
    ()

(* --- Transformations ------------------------------------------------------ *)

let map_symbols f nfa =
  let kept = ref [] in
  let new_eps = ref (epsilons nfa) in
  List.iter
    (fun (src, sym, dst) ->
      match f sym with
      | Some sym' -> kept := (src, sym', dst) :: !kept
      | None -> new_eps := (src, dst) :: !new_eps)
    (transitions nfa);
  create ~labels:(all_labels nfa) ~num_states:nfa.num_states
    ~start:(States.Set.elements nfa.start)
    ~accept:(States.Set.elements nfa.accept)
    ~transitions:!kept ~epsilons:!new_eps ()

let add_self_loops syms nfa =
  let loops =
    List.init nfa.num_states (fun q ->
        List.map (fun sym -> (q, sym, q)) (Symbol.Set.elements syms))
    |> List.concat
  in
  create ~labels:(all_labels nfa) ~num_states:nfa.num_states
    ~start:(States.Set.elements nfa.start)
    ~accept:(States.Set.elements nfa.accept)
    ~transitions:(loops @ transitions nfa)
    ~epsilons:(epsilons nfa) ()

let reverse nfa =
  create ~labels:(all_labels nfa) ~num_states:nfa.num_states
    ~start:(States.Set.elements nfa.accept)
    ~accept:(States.Set.elements nfa.start)
    ~transitions:(List.map (fun (a, s, b) -> (b, s, a)) (transitions nfa))
    ~epsilons:(List.map (fun (a, b) -> (b, a)) (epsilons nfa))
    ()

let reachable_from seeds ~next =
  let rec go frontier seen =
    if States.Set.is_empty frontier then seen
    else
      let advance =
        States.Set.fold (fun q acc -> States.Set.union acc (next q)) frontier States.Set.empty
      in
      let fresh = States.Set.diff advance seen in
      go fresh (States.Set.union seen fresh)
  in
  go seeds seeds

let trim nfa =
  let next nfa q =
    States.Set.union (targets nfa nfa.offsets.(q) nfa.offsets.(q + 1)) (eps_of nfa q)
  in
  let forward = reachable_from nfa.start ~next:(next nfa) in
  let rev = reverse nfa in

  let backward = reachable_from rev.start ~next:(next rev) in
  let live = States.Set.inter forward backward in
  if States.Set.is_empty live then empty_language
  else begin
    let order = States.Set.elements live in
    let rename = Hashtbl.create 16 in
    List.iteri (fun i q -> Hashtbl.add rename q i) order;
    let keep q = Hashtbl.find_opt rename q in
    let map_pairs l =
      List.filter_map
        (fun (a, b) ->
          match keep a, keep b with
          | Some a', Some b' -> Some (a', b')
          | _ -> None)
        l
    in
    create
      ~labels:
        (List.filter_map
           (fun (q, lab) -> Option.map (fun q' -> (q', lab)) (keep q))
           (all_labels nfa))
      ~num_states:(List.length order)
      ~start:(List.filter_map keep (States.Set.elements nfa.start))
      ~accept:(List.filter_map keep (States.Set.elements nfa.accept))
      ~transitions:
        (List.filter_map
           (fun (a, s, b) ->
             match keep a, keep b with
             | Some a', Some b' -> Some (a', s, b')
             | _ -> None)
           (transitions nfa))
      ~epsilons:(map_pairs (epsilons nfa))
      ()
  end

(* --- Queries -------------------------------------------------------------- *)

(* The first accepting configuration dequeued is reached by a shortest,
   shortlex-least trace: symbols are emitted in order. *)
let shortest_accepted nfa =
  Explore.witness Explore.int ~goal:(Config.accepting nfa) ~start:(Config.initial nfa)
    ~step:(fun c emit ->
      let row = Config.row nfa c in
      Array.iter (fun i -> emit nfa.symbols.(i) row.(i)) (Config.live nfa c))
    ()

let shortest_accepted_with_states nfa =
  match shortest_accepted nfa with
  | None -> None
  | Some trace ->
    (* Replay to collect the configuration at each position, then walk
       backward picking one concrete state per position. *)
    let rec replay cur acc = function
      | [] -> List.rev (cur :: acc)
      | sym :: rest -> replay (step nfa cur sym) (cur :: acc) rest
    in
    let configs_arr = Array.of_list (replay (initial_config nfa) [] trace) in
    let trace_arr = Array.of_list trace in
    let n = Array.length trace_arr in
    let step1 q sym = step nfa (eps_closure nfa (States.Set.singleton q)) sym in
    let final =
      States.Set.inter configs_arr.(n) nfa.accept |> States.Set.min_elt
    in
    let path = Array.make (n + 1) final in
    for i = n - 1 downto 0 do
      let sym = trace_arr.(i) in
      let candidates =
        States.Set.filter (fun q -> States.Set.mem path.(i + 1) (step1 q sym)) configs_arr.(i)
      in
      path.(i) <- States.Set.min_elt candidates
    done;
    Some (trace, Array.to_list path)

let is_empty nfa = Option.is_none (shortest_accepted nfa)

let words_upto ~max_len nfa =
  let acc = ref Trace.Set.empty in
  let rec go c rev_prefix depth =
    if Config.accepting nfa c then acc := Trace.Set.add (List.rev rev_prefix) !acc;
    if depth < max_len then begin
      let row = Config.row nfa c in
      Array.iter
        (fun i -> go row.(i) (nfa.symbols.(i) :: rev_prefix) (depth + 1))
        (Config.live nfa c)
    end
  in
  go (Config.initial nfa) [] 0;
  !acc

let count_states_and_transitions nfa =
  ( nfa.num_states,
    Array.length nfa.edges + Array.fold_left (fun n set -> n + States.Set.cardinal set) 0 nfa.eps )

let pp fmt nfa =
  Format.fprintf fmt "@[<v>states: %d, start: %a, accept: %a@," nfa.num_states States.pp_set
    nfa.start States.pp_set nfa.accept;
  List.iter
    (fun (a, s, b) -> Format.fprintf fmt "%d --%a--> %d@," a Symbol.pp s b)
    (transitions nfa);
  List.iter (fun (a, b) -> Format.fprintf fmt "%d --eps--> %d@," a b) (epsilons nfa);
  Format.fprintf fmt "@]"
