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
   low 31 (see [edge]), so a state's edges ascend by symbol, then target,
   with no duplicate. Every symbol of [symbols] occurs on some edge. No
   array is written after construction, so automata built from one another
   may share them. *)
type t = {
  num_states : int;
  start : States.Set.t;
  accept : States.Set.t;
  offsets : int array;
  edges : int array;
  eps : States.Set.t array;  (** [[||]] when the automaton is ε-free *)
  labels : string option array;
  symbols : Symbol.t array;  (** the alphabet ascending: symbol index [i] is [symbols.(i)] *)
  mutable alphabet : Symbol.Set.t option;  (** [symbols] as a set, made on first use *)
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

(* --- Alphabets ---------------------------------------------------------------

   Every alphabet is kept ascending by [Symbol.compare]: [sort_symbols]
   makes one, [find_symbol] searches one and [merge_symbols] joins two, and
   nothing else compares symbols. *)

let sort_symbols syms =
  Array.sort Symbol.compare syms;
  let n = Array.length syms in
  if n <= 1 then syms
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if Symbol.compare syms.(i) syms.(!k - 1) <> 0 then begin
        syms.(!k) <- syms.(i);
        incr k
      end
    done;
    if !k = n then syms else Array.sub syms 0 !k
  end

(* Binary search, as a loop: a local recursive function would be a
   closure allocated per call. *)
let find_symbol symbols sym =
  let lo = ref 0 and hi = ref (Array.length symbols) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Symbol.compare symbols.(mid) sym in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid
  done;
  !found

(* The union of two alphabets, and each one's index map into it. Both maps
   ascend, so a state's edges renumbered through one keep their order. *)
let merge_symbols sa sb =
  let na = Array.length sa and nb = Array.length sb in
  if nb = 0 then (sa, Array.init na Fun.id, [||])
  else if na = 0 then (sb, [||], Array.init nb Fun.id)
  else begin
    let out = Array.make (na + nb) sa.(0) in
    let ma = Array.make na 0 and mb = Array.make nb 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      let c =
        if !i >= na then 1 else if !j >= nb then -1 else Symbol.compare sa.(!i) sb.(!j)
      in
      if c <= 0 then begin
        out.(!k) <- sa.(!i);
        ma.(!i) <- !k;
        incr i
      end;
      if c >= 0 then begin
        out.(!k) <- sb.(!j);
        mb.(!j) <- !k;
        incr j
      end;
      incr k
    done;
    ((if !k = na + nb then out else Array.sub out 0 !k), ma, mb)
  end

(* --- Construction -------------------------------------------------------------

   Every automaton ends in [make], from arrays that already keep the
   invariants of [t]. *)

let make ~num_states ~start ~accept ~offsets ~edges ~eps ~labels ~symbols =
  {
    num_states;
    start;
    accept;
    offsets;
    edges;
    eps;
    labels;
    symbols;
    alphabet = None;
    closures = [||];
    rows = [||];
    marks = Bytes.empty;
    table = None;
  }

(* Sorts [a.(lo) .. a.(hi - 1)] in place. A segment that arrives
   ascending is only checked; any other, such as Glushkov's descending
   follow edges, is sorted. *)
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

(* Sorts each state's edges and squeezes out duplicates, moving [offsets]
   with them; the edges that are left. *)
let normalize num_states offsets edges =
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
  if !kept = Array.length edges then edges else Array.sub edges 0 !kept

(* Drops the symbols no edge uses, renumbering the edges in order. *)
let drop_unused symbols edges =
  let used = Array.make (Array.length symbols) false in
  Array.iter (fun e -> used.(edge_sym e) <- true) edges;
  if Array.for_all Fun.id used then (symbols, edges)
  else begin
    let rank = Array.make (Array.length symbols) (-1) and kept = ref [] and n = ref 0 in
    Array.iteri
      (fun i u ->
        if u then begin
          rank.(i) <- !n;
          kept := symbols.(i) :: !kept;
          incr n
        end)
      used;
    ( Array.of_list (List.rev !kept),
      Array.map (fun e -> edge rank.(edge_sym e) (edge_dst e)) edges )
  end

(* An ε-free automaton has no ε array at all. *)
let squeeze_eps eps = if Array.for_all States.Set.is_empty eps then [||] else eps

(* Scratch indexed by symbol id, shared by every construction:
   [ids_seen.(id)] is [!generation] for a symbol the current
   [index_symbols] met, and [ids_index.(id)] then its index in the
   alphabet. *)
let ids_seen = ref [||]
let ids_index = ref [||]
let generation = ref 0

(* The alphabet of [syms.(0 .. m - 1)], and the array that maps each of its
   symbols' ids to its index, valid until the next call. One pass marks the
   distinct symbols; only those are sorted. *)
let index_symbols syms m =
  let ids = Symbol.count () in
  if Array.length !ids_seen < ids then begin
    ids_seen := Array.make (2 * ids) 0;
    ids_index := Array.make (2 * ids) 0
  end;
  incr generation;
  let g = !generation and seen = !ids_seen and index = !ids_index in
  let distinct = ref [] in
  for j = 0 to m - 1 do
    let id = Symbol.to_int syms.(j) in
    if seen.(id) <> g then begin
      seen.(id) <- g;
      distinct := syms.(j) :: !distinct
    end
  done;
  let symbols = sort_symbols (Array.of_list !distinct) in
  Array.iteri (fun i sym -> index.(Symbol.to_int sym) <- i) symbols;
  (symbols, index)

(* The first [m] gathered edges, encoded over the alphabet of their
   symbols. *)
let encode_edges syms dsts m =
  let symbols, index = index_symbols syms m in
  (symbols, Array.init m (fun j -> edge index.(Symbol.to_int syms.(j)) dsts.(j)))

(* The array entry point: edges and ε-edges gathered in any order,
   duplicates allowed, grouped by source once at [finish]. *)
module Builder = struct
  type t = {
    mutable states : int;
    mutable m : int;
    mutable srcs : int array;
    mutable syms : Symbol.t array;
    mutable dsts : int array;
    mutable k : int;
    mutable eps_srcs : int array;
    mutable eps_dsts : int array;
    mutable labels : (int * string) list;
  }

  let create () =
    {
      states = 0;
      m = 0;
      srcs = [||];
      syms = [||];
      dsts = [||];
      k = 0;
      eps_srcs = [||];
      eps_dsts = [||];
      labels = [];
    }

  let add_states b n =
    let first = b.states in
    b.states <- first + n;
    first

  let num_states b = b.states

  let grown a n x =
    let a' = Array.make (max 16 (2 * n)) x in
    Array.blit a 0 a' 0 n;
    a'

  let edge b src sym dst =
    if b.m = Array.length b.srcs then begin
      b.srcs <- grown b.srcs b.m 0;
      b.syms <- grown b.syms b.m sym;
      b.dsts <- grown b.dsts b.m 0
    end;
    b.srcs.(b.m) <- src;
    b.syms.(b.m) <- sym;
    b.dsts.(b.m) <- dst;
    b.m <- b.m + 1

  let epsilon b src dst =
    if b.k = Array.length b.eps_srcs then begin
      b.eps_srcs <- grown b.eps_srcs b.k 0;
      b.eps_dsts <- grown b.eps_dsts b.k 0
    end;
    b.eps_srcs.(b.k) <- src;
    b.eps_dsts.(b.k) <- dst;
    b.k <- b.k + 1

  let label b q text = b.labels <- (q, text) :: b.labels

  (* A counting sort by source: [offsets], and [values] grouped by their
     [srcs] in that order. *)
  let group n count srcs values =
    let offsets = Array.make (n + 1) 0 in
    for j = 0 to count - 1 do
      offsets.(srcs.(j) + 1) <- offsets.(srcs.(j) + 1) + 1
    done;
    for q = 1 to n do
      offsets.(q) <- offsets.(q) + offsets.(q - 1)
    done;
    let cursor = Array.sub offsets 0 n and grouped = Array.make count 0 in
    for j = 0 to count - 1 do
      let q = srcs.(j) in
      grouped.(cursor.(q)) <- values.(j);
      cursor.(q) <- cursor.(q) + 1
    done;
    (offsets, grouped)

  let finish b ~start ~accept =
    let n = b.states in
    List.iter (check_state n) start;
    List.iter (check_state n) accept;
    for j = 0 to b.m - 1 do
      check_state n b.srcs.(j);
      check_state n b.dsts.(j)
    done;
    for j = 0 to b.k - 1 do
      check_state n b.eps_srcs.(j);
      check_state n b.eps_dsts.(j)
    done;
    let symbols, codes = encode_edges b.syms b.dsts b.m in
    let offsets, edges = group n b.m b.srcs codes in
    let edges = normalize n offsets edges in
    let eps =
      if b.k = 0 then [||]
      else begin
        let eps_offsets, flat = group n b.k b.eps_srcs b.eps_dsts in
        Array.init n (fun q ->
            States.Set.of_array
              (Array.sub flat eps_offsets.(q) (eps_offsets.(q + 1) - eps_offsets.(q))))
      end
    in
    let labels = Array.make n None in
    List.iter
      (fun (q, text) ->
        check_state n q;
        labels.(q) <- Some text)
      (List.rev b.labels);
    make ~num_states:n ~start:(States.of_list start) ~accept:(States.of_list accept) ~offsets
      ~edges ~eps ~labels ~symbols
end

let create ?(labels = []) ~num_states ~start ~accept ~transitions ?(epsilons = []) () =
  let b = Builder.create () in
  ignore (Builder.add_states b num_states);
  List.iter (fun (src, sym, dst) -> Builder.edge b src sym dst) transitions;
  List.iter (fun (src, dst) -> Builder.epsilon b src dst) epsilons;
  List.iter (fun (q, text) -> Builder.label b q text) labels;
  Builder.finish b ~start ~accept

let of_graph ~symbols ~accepting (g : (_, int) Explore.graph) =
  let n = Array.length g.keys in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun q succs -> offsets.(q + 1) <- offsets.(q) + List.length succs) g.succs;
  let edges = Array.make offsets.(n) 0 in
  Array.iteri
    (fun q succs -> List.iteri (fun j (i, dst) -> edges.(offsets.(q) + j) <- edge i dst) succs)
    g.succs;
  let edges = normalize n offsets edges in
  let symbols, edges = drop_unused symbols edges in
  let accept = ref [] in
  Array.iteri (fun q key -> if accepting key then accept := q :: !accept) g.keys;
  make ~num_states:n ~start:(States.Set.singleton 0) ~accept:(States.of_list (List.rev !accept))
    ~offsets ~edges ~eps:[||] ~labels:(Array.make n None) ~symbols

let empty_language = create ~num_states:1 ~start:[ 0 ] ~accept:[] ~transitions:[] ()
let eps_language = create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ] ~transitions:[] ()

let universal alphabet =
  let symbols = sort_symbols (Array.of_list (Symbol.Set.elements alphabet)) in
  let loops = Array.init (Array.length symbols) (fun i -> edge i 0) in
  let nfa =
    make ~num_states:1 ~start:(States.Set.singleton 0) ~accept:(States.Set.singleton 0)
      ~offsets:[| 0; Array.length loops |] ~edges:loops ~eps:[||] ~labels:[| None |] ~symbols
  in
  nfa.alphabet <- Some alphabet;
  nfa

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

let alphabet nfa =
  match nfa.alphabet with
  | Some set -> set
  | None ->
    let set = Symbol.Set.of_list (Array.to_list nfa.symbols) in
    nfa.alphabet <- Some set;
    set

let symbols nfa = Array.copy nfa.symbols
let symbol_index nfa sym = find_symbol nfa.symbols sym

let iter_edges nfa f =
  for src = 0 to nfa.num_states - 1 do
    for j = nfa.offsets.(src) to nfa.offsets.(src + 1) - 1 do
      let e = nfa.edges.(j) in
      f src nfa.symbols.(edge_sym e) (edge_dst e)
    done
  done

let iter_epsilons nfa f = Array.iteri (fun src set -> States.Set.iter (f src) set) nfa.eps

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

(* --- Combinators ---------------------------------------------------------------

   Each copies its operands' edge arrays over the union of their alphabets:
   the index maps ascend, so each state's edges stay sorted and distinct.
   The result equals what {!create} builds from the operands' transition
   lists, labels included. *)

let full_eps nfa = if Array.length nfa.eps = 0 then Array.make nfa.num_states States.Set.empty else nfa.eps
let shift_set off (set : States.Set.t) = States.Set.of_array (Array.map (( + ) off) (set :> int array))

(* [b]'s states after [a]'s: the states, edges, ε-edges and labels of both,
   side by side. *)
let juxtapose a b =
  let symbols, ma, mb = merge_symbols a.symbols b.symbols in
  let na = a.num_states and nb = b.num_states in
  let ea = Array.length a.edges in
  let offsets = Array.make (na + nb + 1) 0 in
  Array.blit a.offsets 0 offsets 0 na;
  for q = 0 to nb do
    offsets.(na + q) <- ea + b.offsets.(q)
  done;
  let edges = Array.make (ea + Array.length b.edges) 0 in
  Array.iteri (fun j e -> edges.(j) <- edge ma.(edge_sym e) (edge_dst e)) a.edges;
  Array.iteri (fun j e -> edges.(ea + j) <- edge mb.(edge_sym e) (edge_dst e + na)) b.edges;
  let eps =
    if Array.length a.eps = 0 && Array.length b.eps = 0 then [||]
    else Array.append (full_eps a) (Array.map (shift_set na) (full_eps b))
  in
  (symbols, offsets, edges, eps, Array.append a.labels b.labels)

let union a b =
  let symbols, offsets, edges, eps, labels = juxtapose a b in
  let off = a.num_states in
  make ~num_states:(a.num_states + b.num_states)
    ~start:(States.Set.union a.start (shift_set off b.start))
    ~accept:(States.Set.union a.accept (shift_set off b.accept))
    ~offsets ~edges ~eps ~labels ~symbols

let concat a b =
  let symbols, offsets, edges, eps, labels = juxtapose a b in
  let off = a.num_states in
  let bridge = shift_set off b.start in
  let eps =
    if States.Set.is_empty a.accept || States.Set.is_empty bridge then eps
    else begin
      let eps = if Array.length eps = 0 then Array.make (off + b.num_states) States.Set.empty else eps in
      States.Set.iter (fun q -> eps.(q) <- States.Set.union eps.(q) bridge) a.accept;
      eps
    end
  in
  make ~num_states:(off + b.num_states) ~start:a.start ~accept:(shift_set off b.accept) ~offsets
    ~edges ~eps ~labels ~symbols

(* A fresh hub state: start and accept, ε to the old starts, ε back from
   the old accepts. The hub accepts the empty trace without disturbing
   cycles. *)
let star a =
  let hub = a.num_states in
  let offsets = Array.append a.offsets [| Array.length a.edges |] in
  let eps = Array.append (full_eps a) [| a.start |] in
  let back = States.Set.singleton hub in
  States.Set.iter (fun q -> eps.(q) <- States.Set.union eps.(q) back) a.accept;
  make ~num_states:(hub + 1) ~start:back ~accept:back ~offsets ~edges:a.edges
    ~eps:(squeeze_eps eps) ~labels:(Array.append a.labels [| None |]) ~symbols:a.symbols

(* --- Transformations ----------------------------------------------------------- *)

(* [f] is asked once per alphabet symbol. The edges are re-encoded over
   the image alphabet; an erased edge joins its source's ε-set. Only when
   [f] does not keep the alphabet's order (or merges symbols) are the
   states' edges sorted again. *)
let map_symbols f nfa =
  let image = Array.map f nfa.symbols in
  let symbols = sort_symbols (Array.of_list (List.filter_map Fun.id (Array.to_list image))) in
  let index = Array.map (function Some sym -> find_symbol symbols sym | None -> -1) image in
  let ordered = ref true and last = ref (-1) in
  Array.iter
    (fun i ->
      if i >= 0 then begin
        if i <= !last then ordered := false;
        last := i
      end)
    index;
  let n = nfa.num_states in
  let offsets = Array.make (n + 1) 0 in
  let edges = Array.make (Array.length nfa.edges) 0 in
  let eps = ref (if Array.length nfa.eps = 0 then [||] else Array.copy nfa.eps) in
  let kept = ref 0 in
  for q = 0 to n - 1 do
    offsets.(q) <- !kept;
    let erased = ref [] in
    for j = nfa.offsets.(q) to nfa.offsets.(q + 1) - 1 do
      let e = nfa.edges.(j) in
      let i = index.(edge_sym e) in
      if i >= 0 then begin
        edges.(!kept) <- edge i (edge_dst e);
        incr kept
      end
      else erased := edge_dst e :: !erased
    done;
    if !erased <> [] then begin
      if Array.length !eps = 0 then eps := Array.make n States.Set.empty;
      !eps.(q) <- States.Set.union !eps.(q) (States.of_list !erased)
    end
  done;
  offsets.(n) <- !kept;
  let edges = if !kept = Array.length edges then edges else Array.sub edges 0 !kept in
  let edges = if !ordered then edges else normalize n offsets edges in
  make ~num_states:n ~start:nfa.start ~accept:nfa.accept ~offsets ~edges ~eps:!eps
    ~labels:nfa.labels ~symbols

(* Each state's edges, renumbered into the union alphabet, merged with its
   loops: one ascending merge per state. *)
let add_self_loops syms nfa =
  let n = nfa.num_states in
  let loops = if n = 0 then [||] else sort_symbols (Array.of_list (Symbol.Set.elements syms)) in
  let symbols, mold, mloop = merge_symbols nfa.symbols loops in
  let offsets = Array.make (n + 1) 0 in
  let edges = Array.make (Array.length nfa.edges + (n * Array.length loops)) 0 in
  let k = ref 0 in
  for q = 0 to n - 1 do
    offsets.(q) <- !k;
    let push e =
      if !k = offsets.(q) || edges.(!k - 1) <> e then begin
        edges.(!k) <- e;
        incr k
      end
    in
    let j = ref nfa.offsets.(q) and hi = nfa.offsets.(q + 1) and l = ref 0 in
    while !j < hi || !l < Array.length mloop do
      let old =
        if !j < hi then edge mold.(edge_sym nfa.edges.(!j)) (edge_dst nfa.edges.(!j)) else max_int
      in
      let loop = if !l < Array.length mloop then edge mloop.(!l) q else max_int in
      if old <= loop then begin
        push old;
        incr j
      end
      else begin
        push loop;
        incr l
      end
    done
  done;
  offsets.(n) <- !k;
  make ~num_states:n ~start:nfa.start ~accept:nfa.accept ~offsets
    ~edges:(if !k = Array.length edges then edges else Array.sub edges 0 !k)
    ~eps:nfa.eps ~labels:nfa.labels ~symbols

let reverse nfa =
  let b = Builder.create () in
  ignore (Builder.add_states b nfa.num_states);
  iter_edges nfa (fun src sym dst -> Builder.edge b dst sym src);
  iter_epsilons nfa (fun src dst -> Builder.epsilon b dst src);
  Array.iteri (fun q -> Option.iter (Builder.label b q)) nfa.labels;
  Builder.finish b ~start:(States.Set.elements nfa.accept) ~accept:(States.Set.elements nfa.start)

(* --- Liveness -------------------------------------------------------------------

   One forward pass from the start states over edges and ε-edges, and one
   backward pass from the accepting states over the same arrows flipped
   (grouped by target once, as a counting sort). A state is live when both
   marked it. *)

(* Depth-first from [seeds] along [next q visit], which visits each
   state one step from [q]. *)
let marks n seeds next =
  let seen = Bytes.make n '\000' in
  let stack = ref [] in
  let visit q =
    if Bytes.get seen q = '\000' then begin
      Bytes.set seen q '\001';
      stack := q :: !stack
    end
  in
  States.Set.iter visit seeds;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
      stack := rest;
      next q visit
  done;
  fun q -> Bytes.get seen q <> '\000'

let forward nfa =
  marks nfa.num_states nfa.start (fun q visit ->
      for j = nfa.offsets.(q) to nfa.offsets.(q + 1) - 1 do
        visit (edge_dst nfa.edges.(j))
      done;
      States.Set.iter visit (eps_of nfa q))

let backward nfa =
  let n = nfa.num_states in
  let into = Array.make (n + 1) 0 in
  let each f =
    for src = 0 to n - 1 do
      for j = nfa.offsets.(src) to nfa.offsets.(src + 1) - 1 do
        f src (edge_dst nfa.edges.(j))
      done;
      States.Set.iter (f src) (eps_of nfa src)
    done
  in
  each (fun _ dst -> into.(dst + 1) <- into.(dst + 1) + 1);
  for q = 1 to n do
    into.(q) <- into.(q) + into.(q - 1)
  done;
  let preds = Array.make into.(n) 0 and cursor = Array.sub into 0 n in
  each (fun src dst ->
      preds.(cursor.(dst)) <- src;
      cursor.(dst) <- cursor.(dst) + 1);
  marks n nfa.accept (fun q visit ->
      for j = into.(q) to into.(q + 1) - 1 do
        visit preds.(j)
      done)

(* An edge survives {!trim} iff its source is reachable and its target can
   reach acceptance: the source can then reach acceptance through it, and
   the target is reachable through it. *)
let live_symbols nfa =
  let reached = forward nfa and useful = backward nfa in
  let used = Array.make (Array.length nfa.symbols) false in
  for q = 0 to nfa.num_states - 1 do
    if reached q then
      for j = nfa.offsets.(q) to nfa.offsets.(q + 1) - 1 do
        let e = nfa.edges.(j) in
        if useful (edge_dst e) then used.(edge_sym e) <- true
      done
  done;
  let live = ref Symbol.Set.empty in
  Array.iteri (fun i u -> if u then live := Symbol.Set.add nfa.symbols.(i) !live) used;
  !live

(* The live states, renumbered in order, and the arrows between them. *)
let trim nfa =
  let reached = forward nfa and useful = backward nfa in
  let b = Builder.create () in
  let rename =
    Array.init nfa.num_states (fun q -> if reached q && useful q then Builder.add_states b 1 else -1)
  in
  if Builder.num_states b = 0 then empty_language
  else begin
    let live q = rename.(q) >= 0 in
    iter_edges nfa (fun src sym dst ->
        if live src && live dst then Builder.edge b rename.(src) sym rename.(dst));
    iter_epsilons nfa (fun src dst ->
        if live src && live dst then Builder.epsilon b rename.(src) rename.(dst));
    Array.iteri (fun q l -> if live q then Option.iter (Builder.label b rename.(q)) l) nfa.labels;
    let kept set =
      List.filter_map (fun q -> if live q then Some rename.(q) else None) (States.Set.elements set)
    in
    Builder.finish b ~start:(kept nfa.start) ~accept:(kept nfa.accept)
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
