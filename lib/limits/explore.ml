module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

type 'k key = (module KEY with type t = 'k)

(* Order-sensitive and odd, so the low bits that pick a bucket depend on
   every component. *)
let combine h x = (h * 65599) + x

(* A bucket is picked by a hash's low bits, which in a product or a sum
   depend on the operands' low bits only: fold the high half down, then
   keep a multiplicative hash's middle bits, which depend on all of them. *)
let mix k =
  let k = k lxor (k lsr 31) in
  (k * 0x1E3779B97F4A7C15) lsr 20

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = mix
end

module Ints = struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  let hash a =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := combine !h a.(i)
    done;
    mix !h
end

let int : int key = (module Int_key)
let ints : int array key = (module Ints)

let pair (type a b) ((module A) : a key) ((module B) : b key) : (a * b) key =
  (module struct
    type t = a * b

    let equal (a1, b1) (a2, b2) = A.equal a1 a2 && B.equal b1 b2
    let hash (a, b) = combine (A.hash a) (B.hash b)
  end)

let pack a b = (a lsl 31) lor b
let high k = k lsr 31
let low k = k land 0x7FFF_FFFF

type counts = {
  mutable states : int;
  mutable memo_hits : int;
}

let counts () = { states = 0; memo_hits = 0 }

type ('k, 'l) graph = {
  keys : 'k array;
  succs : ('l * int) list array;
}

type test =
  | On_dequeue
  | On_discovery

(* [!arr.(i) <- x] on a doubling array whose used length is [i] or more. *)
let store arr i x =
  if i = Array.length !arr then begin
    let bigger = Array.make (max 16 (2 * i)) x in
    Array.blit !arr 0 bigger 0 i;
    arr := bigger
  end;
  !arr.(i) <- x

exception Stop of int

(* The one loop. Ids are dense in discovery order, so expanding ids in
   increasing order is breadth-first: the key array is the queue. [admit k
   id] runs once per new key, after its fuel is charged and before it is
   counted; [true] ends the search at that key, once counted, by raising
   [Stop id] — as does the expander to end it at a dequeued key. [expand
   visit] is the expander: called once, so that the closures it makes are
   made once per search, not once per key. *)
let search (type k) ((module K) : k key) ~fuel ~counts ~start ~admit ~expand =
  let module H = Hashtbl.Make (K) in
  let ids = H.create 16 in
  let keys = ref [||] and n = ref 0 in
  let visit k =
    match H.find ids k with
    | id ->
      counts.memo_hits <- counts.memo_hits + 1;
      id
    | exception Not_found ->
      Option.iter Limits.spend fuel;
      let id = !n in
      let stop = admit k id in
      H.add ids k id;
      store keys id k;
      incr n;
      counts.states <- counts.states + 1;
      if stop then raise (Stop id);
      id
  in
  ignore (visit start);
  let expand = expand visit in
  let head = ref 0 in
  while !head < !n do
    expand !head !keys.(!head);
    incr head
  done;
  Array.sub !keys 0 !n

let graph key ?fuel ?(counts = counts ()) ~start ~step () =
  let succs = ref [||] in
  let keys =
    search key ~fuel ~counts ~start
      ~admit:(fun _ _ -> false)
      ~expand:(fun visit ->
        let out = ref [] in
        let emit label k' = out := (label, visit k') :: !out in
        fun id k ->
          out := [];
          step k emit;
          store succs id (List.rev !out))
  in
  { keys; succs = Array.sub !succs 0 (Array.length keys) }

(* Parent pointers: the id each id was discovered from ([-1] for the start)
   and the label of that edge, which spell out its path. The label of the
   edge being followed sits in [via], a ref made at the first emission, so
   following an edge allocates nothing. [src] is the id being expanded. *)
type 'l parents = {
  parent : int array ref;
  label : 'l array ref;
  mutable src : int;
  mutable via : 'l ref option;
}

let parents () = { parent = ref [||]; label = ref [||]; src = -1; via = None }

(* Record how the new key [id] was reached: from [src] along [via]. *)
let record p id =
  store p.parent id p.src;
  match p.via with
  | Some label ->
    if Array.length !(p.label) = 0 then p.label := Array.make 16 !label;
    store p.label id !label
  | None -> ()

(* The emitter handed to [step]: note the edge's label, then visit its
   target. *)
let follow p visit label k' =
  (match p.via with
   | Some r -> r := label
   | None -> p.via <- Some (ref label));
  ignore (visit k')

let rec path p id acc = if id = 0 then acc else path p !(p.parent).(id) (!(p.label).(id) :: acc)

type ('k, 'l) tree = {
  nodes : 'k array;
  path : int -> 'l list;
}

let tree key ?fuel ?(counts = counts ()) ~start ~step () =
  let p = parents () in
  let nodes =
    search key ~fuel ~counts ~start
      ~admit:(fun _ id ->
        record p id;
        false)
      ~expand:(fun visit ->
        let emit = follow p visit in
        fun id k ->
          p.src <- id;
          step k emit)
  in
  { nodes; path = (fun id -> path p id []) }

let witness key ?fuel ?(counts = counts ()) ?(test = On_dequeue) ~goal ~start ~step () =
  let p = parents () in
  let on_dequeue = test = On_dequeue and on_discovery = test = On_discovery in
  match
    search key ~fuel ~counts ~start
      ~admit:(fun k id ->
        record p id;
        on_discovery && goal k)
      ~expand:(fun visit ->
        let emit = follow p visit in
        fun id k ->
          if on_dequeue && goal k then raise (Stop id);
          p.src <- id;
          step k emit)
  with
  | _ -> None
  | exception Stop id -> Some (path p id [])
