type t = int

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let pp_set fmt set =
  Format.fprintf fmt "{%s}"
    (Set.elements set |> List.map string_of_int |> String.concat ", ")

let of_list l = Set.of_list l

let key : Set.t Explore.key =
  (module struct
    type t = Set.t

    let equal = Set.equal

    (* By elements in ascending order, so equal sets of different tree
       shapes hash alike. *)
    let hash s = Set.fold (fun q h -> (h * 65599) + q) s 0
  end)
