(* A ledger entry tracks cumulative fuel drawn against one named resource by
   every counter created from the same [t] — observability accounting only,
   never consulted for enforcement (each construction's own [fuel] does
   that). *)
type entry = {
  e_limit : int;
  mutable e_spent : int;
  mutable e_peak : int;  (* the most any one counter has drawn *)
}

type ledger = (string, entry) Hashtbl.t

type t = {
  max_states : int;
  max_configs : int;
  max_regex_size : int;
  deadline : float option;
  ledger : ledger;
}

exception Budget_exceeded of { resource : string; limit : int }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { resource; limit } ->
      Some (Printf.sprintf "Limits.Budget_exceeded(%s, limit %d)" resource limit)
    | _ -> None)

let create ~max_states ~max_configs ~max_regex_size ~deadline =
  { max_states; max_configs; max_regex_size; deadline; ledger = Hashtbl.create 8 }

let default =
  create ~max_states:50_000 ~max_configs:1_000_000 ~max_regex_size:500_000 ~deadline:None

let make ?(max_states = default.max_states) ?(max_configs = default.max_configs)
    ?(max_regex_size = default.max_regex_size) ?deadline () =
  create ~max_states ~max_configs ~max_regex_size ~deadline

(* /10 keeps the retry's fuel proportional to the configured budget, so a
   user-raised budget still degrades rather than resetting to a constant.
   Fresh ledger: the retry is a fresh attempt and its fuel accounting must
   answer to the reduced limits. *)
let reduced t =
  create
    ~max_states:(max 1 (t.max_states / 10))
    ~max_configs:(max 1 (t.max_configs / 10))
    ~max_regex_size:(max 1 (t.max_regex_size / 10))
    ~deadline:t.deadline

let exceeded ~resource ~limit = raise (Budget_exceeded { resource; limit })

let entry_of t ~resource ~limit =
  match Hashtbl.find_opt t.ledger resource with
  | Some e -> e
  | None ->
    let e = { e_limit = limit; e_spent = 0; e_peak = 0 } in
    Hashtbl.add t.ledger resource e;
    e

let check ?within ~resource ~limit n =
  if n > limit then exceeded ~resource ~limit;
  match within with
  | None -> ()
  | Some t ->
    (* Size-style checks are high-water marks, not countdowns: record the
       largest size that passed. *)
    let e = entry_of t ~resource ~limit in
    e.e_spent <- max e.e_spent n

type fuel = {
  mutable remaining : int;
  resource : string;
  limit : int;
  entry : entry option;
}

let fuel ?within ~resource limit =
  let entry = Option.map (fun t -> entry_of t ~resource ~limit) within in
  { remaining = limit; resource; limit; entry }

let spend f =
  if f.remaining <= 0 then exceeded ~resource:f.resource ~limit:f.limit;
  f.remaining <- f.remaining - 1;
  match f.entry with
  | None -> ()
  | Some e ->
    e.e_spent <- e.e_spent + 1;
    let drawn = f.limit - f.remaining in
    if drawn > e.e_peak then e.e_peak <- drawn

let snapshot t =
  Hashtbl.fold (fun resource e acc -> (resource, e.e_limit - e.e_spent) :: acc) t.ledger []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let peak t ~resource =
  match Hashtbl.find_opt t.ledger resource with
  | Some e -> e.e_peak
  | None -> 0

let consumed t ~before =
  List.filter_map
    (fun (resource, remaining_after) ->
      let remaining_before =
        match List.assoc_opt resource before with
        | Some r -> r
        | None -> (Hashtbl.find t.ledger resource).e_limit
      in
      let d = remaining_before - remaining_after in
      if d > 0 then Some (resource, d) else None)
    (snapshot t)

let describe = function
  | Budget_exceeded { resource; limit } ->
    Some (Printf.sprintf "%s budget exceeded (limit %d)" resource limit)
  | _ -> None
