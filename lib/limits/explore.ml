module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

type 'k key = (module KEY with type t = 'k)

(* Order-sensitive and odd, so the low bits that pick a bucket depend on
   every component. *)
let combine h x = (h * 65599) + x

let pair (type a b) ((module A) : a key) ((module B) : b key) : (a * b) key =
  (module struct
    type t = a * b

    let equal (a1, b1) (a2, b2) = A.equal a1 a2 && B.equal b1 b2
    let hash (a, b) = combine (A.hash a) (B.hash b)
  end)

let list (type a) ((module A) : a key) : a list key =
  (module struct
    type t = a list

    let equal = List.equal A.equal
    let hash l = List.fold_left (fun h x -> combine h (A.hash x)) 0 l
  end)

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
  if i = Array.length !arr then arr := Array.append !arr (Array.make (max 16 i) x);
  !arr.(i) <- x

exception Stop of int

(* The one loop. Ids are dense in discovery order, so expanding ids in
   increasing order is breadth-first: the key array is the queue. [admit k
   id] runs once per new key, after its fuel is charged and before it is
   counted; [true] ends the search at that key, once counted, by raising
   [Stop id] — as does [expand] to end it at a dequeued key. *)
let search (type k) ((module K) : k key) ~fuel ~counts ~start ~admit ~expand =
  let module H = Hashtbl.Make (K) in
  let ids = H.create 16 in
  let keys = ref [||] and n = ref 0 in
  let visit k =
    match H.find_opt ids k with
    | Some id ->
      counts.memo_hits <- counts.memo_hits + 1;
      id
    | None ->
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
  let head = ref 0 in
  while !head < !n do
    expand !head !keys.(!head) visit;
    incr head
  done;
  Array.sub !keys 0 !n

let graph key ?fuel ?(counts = counts ()) ~start ~step () =
  let succs = ref [||] in
  let keys =
    search key ~fuel ~counts ~start
      ~admit:(fun _ _ -> false)
      ~expand:(fun id k visit ->
        let out = ref [] in
        step k (fun label k' -> out := (label, visit k') :: !out);
        store succs id (List.rev !out))
  in
  { keys; succs = Array.sub !succs 0 (Array.length keys) }

let witness key ?fuel ?(counts = counts ()) ?(test = On_dequeue) ~goal ~start ~step () =
  (* Parent pointers: the edge each id was discovered by ([None] for the
     start), which spells out its path. *)
  let parents = ref [||] and src = ref (-1) and via = ref None in
  let rec path id acc =
    match !parents.(id) with
    | _, None -> acc
    | parent, Some label -> path parent (label :: acc)
  in
  match
    search key ~fuel ~counts ~start
      ~admit:(fun k id ->
        store parents id (!src, !via);
        test = On_discovery && goal k)
      ~expand:(fun id k visit ->
        if test = On_dequeue && goal k then raise (Stop id);
        src := id;
        step k (fun label k' ->
            via := Some label;
            ignore (visit k')))
  with
  | _ -> None
  | exception Stop id -> Some (path id [])
