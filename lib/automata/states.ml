type t = int

module Set = struct
  type elt = int
  type t = int array

  let empty = [||]
  let is_empty s = Array.length s = 0
  let singleton q = [| q |]
  let cardinal = Array.length

  (* [a] sorted in place, then its duplicates squeezed out. *)
  let of_sorted_dups a =
    let n = Array.length a in
    if n <= 1 then a
    else begin
      let k = ref 1 in
      for i = 1 to n - 1 do
        if a.(i) <> a.(!k - 1) then begin
          a.(!k) <- a.(i);
          incr k
        end
      done;
      if !k = n then a else Array.sub a 0 !k
    end

  let of_array a =
    let i = ref 1 in
    while !i < Array.length a && a.(!i - 1) < a.(!i) do
      incr i
    done;
    if !i >= Array.length a then a
    else begin
      Array.sort Int.compare a;
      of_sorted_dups a
    end

  let of_list l = of_array (Array.of_list l)

  (* Loops over local refs, which allocate nothing (a local recursive
     function would be a closure). *)
  let mem q s =
    let lo = ref 0 and hi = ref (Array.length s) in
    while !lo < !hi && s.((!lo + !hi) lsr 1) <> q do
      let mid = (!lo + !hi) lsr 1 in
      if s.(mid) < q then lo := mid + 1 else hi := mid
    done;
    !lo < !hi

  (* One linear merge of two sorted arrays; [keep_a]/[keep_b]/[keep_both]
     say which elements of "only in a", "only in b" and "in both" survive. *)
  let merge ~keep_a ~keep_b ~keep_both a b =
    let na = Array.length a and nb = Array.length b in
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let push x =
      out.(!k) <- x;
      incr k
    in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        if keep_a then push x;
        incr i
      end
      else if y < x then begin
        if keep_b then push y;
        incr j
      end
      else begin
        if keep_both then push x;
        incr i;
        incr j
      end
    done;
    if keep_a then
      while !i < na do
        push a.(!i);
        incr i
      done;
    if keep_b then
      while !j < nb do
        push b.(!j);
        incr j
      done;
    if !k = Array.length out then out else Array.sub out 0 !k

  let union a b =
    if Array.length a = 0 then b
    else if Array.length b = 0 then a
    else merge ~keep_a:true ~keep_b:true ~keep_both:true a b

  let union_all sets = List.fold_left union empty sets

  let inter a b = merge ~keep_a:false ~keep_b:false ~keep_both:true a b
  let diff a b = if Array.length b = 0 then a else merge ~keep_a:true ~keep_b:false ~keep_both:false a b

  let disjoint a b =
    let na = Array.length a and nb = Array.length b in
    let i = ref 0 and j = ref 0 in
    while !i < na && !j < nb && a.(!i) <> b.(!j) do
      if a.(!i) < b.(!j) then incr i else incr j
    done;
    !i >= na || !j >= nb

  let filter p s =
    let kept = Array.of_list (List.filter p (Array.to_list s)) in
    if Array.length kept = Array.length s then s else kept

  let equal = Explore.Ints.equal

  let compare a b =
    let na = Array.length a and nb = Array.length b in
    let rec go i =
      if i >= na then if i >= nb then 0 else -1
      else if i >= nb then 1
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  let hash = Explore.Ints.hash

  let min_elt s = if Array.length s = 0 then raise Not_found else s.(0)
  let elements = Array.to_list
  let iter = Array.iter
  let fold f s acc = Array.fold_left (fun acc q -> f q acc) acc s
end

let pp_set fmt set =
  Format.fprintf fmt "{%s}"
    (Set.elements set |> List.map string_of_int |> String.concat ", ")

let of_list = Set.of_list
