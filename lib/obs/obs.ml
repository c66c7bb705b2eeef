type event = {
  ev_name : string;
  ev_args : (string * string) list;
  ev_ts_us : int;
  ev_begin : bool;
}

type profile = {
  unit_name : string;
  events : event list;
  counters : (string * int) list;
}

type state = {
  mutable events : event list;  (* reversed *)
  mutable ctrs : (string, int) Hashtbl.t;
  mutable stable_ctrs : (string, int) Hashtbl.t;
      (* deterministic orchestrator counters (cache hits/misses, …): unlike
         [ctrs] these are shown in the --stats table, so only byte-stable
         values belong here — never timings *)
  mutable unit_profiles : (int * profile) list;  (* reversed *)
  mutable ticks : int;  (* fake-clock position, meaningful iff [fake] *)
  fake : bool;
  mutable epoch : float;  (* real-clock origin, on Clock.now *)
}

(* The whole enabled/disabled story is this one ref: [None] means every
   instrumentation entry point is a single branch and nothing allocates. *)
let state : state option ref = ref None

let enabled () = !state <> None
let using_fake_clock () =
  match !state with
  | Some st -> st.fake
  | None -> false

let enable ?fake_clock () =
  let fake = match fake_clock with Some b -> b | None -> Clock.fake_requested () in
  state :=
    Some
      {
        events = [];
        ctrs = Hashtbl.create 32;
        stable_ctrs = Hashtbl.create 8;
        unit_profiles = [];
        ticks = 0;
        fake;
        epoch = Clock.now ();
      }

let disable () = state := None

let reset () =
  match !state with
  | None -> ()
  | Some st ->
    st.events <- [];
    st.ctrs <- Hashtbl.create 32;
    st.stable_ctrs <- Hashtbl.create 8;
    st.unit_profiles <- [];
    st.ticks <- 0;
    st.epoch <- Clock.now ()

(* Fake mode: every read advances one tick = 1 ms, so durations count clock
   reads — deterministic for a deterministic span structure. *)
let now_us st =
  if st.fake then begin
    let t = st.ticks * 1000 in
    st.ticks <- st.ticks + 1;
    t
  end
  else int_of_float ((Clock.now () -. st.epoch) *. 1e6)

let count key n =
  match !state with
  | None -> ()
  | Some st -> (
    match Hashtbl.find_opt st.ctrs key with
    | Some v -> Hashtbl.replace st.ctrs key (v + n)
    | None -> Hashtbl.add st.ctrs key n)

(* Stable counters live in their own table so [in_unit]'s buffer swap never
   redirects them: they always describe the orchestrator's own bookkeeping. *)
let count_stable key n =
  match !state with
  | None -> ()
  | Some st -> (
    match Hashtbl.find_opt st.stable_ctrs key with
    | Some v -> Hashtbl.replace st.stable_ctrs key (v + n)
    | None -> Hashtbl.add st.stable_ctrs key n)

let with_span ?(args = []) name f =
  match !state with
  | None -> f ()
  | Some st ->
    st.events <-
      { ev_name = name; ev_args = args; ev_ts_us = now_us st; ev_begin = true }
      :: st.events;
    let close () =
      (* Re-read [!state]: [f] may have swapped buffers (units) or disabled
         the recorder; close on whatever recorder is live now so B/E stay
         paired within one buffer. *)
      match !state with
      | None -> ()
      | Some st ->
        st.events <-
          { ev_name = name; ev_args = []; ev_ts_us = now_us st; ev_begin = false }
          :: st.events
    in
    Fun.protect ~finally:close f

module Span = struct
  let run = with_span
end

module Counter = struct
  let add = count
end

module Ledger = struct
  type t = {
    totals : (string, int) Hashtbl.t;
    record : string -> int -> unit;  (* [count] or [count_stable] *)
  }

  let create ?(stable = false) () =
    { totals = Hashtbl.create 16; record = (if stable then count_stable else count) }

  let get t key = Option.value ~default:0 (Hashtbl.find_opt t.totals key)

  let add t key n =
    Hashtbl.replace t.totals key (get t key + n);
    t.record key n
end

let sorted_counters tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let in_unit ~name f =
  match !state with
  | None -> (f (), None)
  | Some st ->
    let saved_events = st.events in
    let saved_ctrs = st.ctrs in
    let saved_ticks = st.ticks in
    st.events <- [];
    st.ctrs <- Hashtbl.create 32;
    if st.fake then st.ticks <- 0;
    let restore () =
      st.events <- saved_events;
      st.ctrs <- saved_ctrs;
      if st.fake then st.ticks <- saved_ticks
    in
    (match with_span ~args:[ ("file", name) ] "unit" f with
    | result ->
      let profile =
        {
          unit_name = name;
          events = List.rev st.events;
          counters = sorted_counters st.ctrs;
        }
      in
      restore ();
      (result, Some profile)
    | exception exn ->
      restore ();
      raise exn)

let add_unit ~lane profile =
  match !state with
  | None -> ()
  | Some st -> st.unit_profiles <- (lane, profile) :: st.unit_profiles

let units () =
  match !state with
  | None -> []
  | Some st -> List.rev st.unit_profiles

let profile_total_us (p : profile) =
  match p.events with
  | [] -> 0
  | first :: _ ->
    let last_ts = List.fold_left (fun _ ev -> ev.ev_ts_us) first.ev_ts_us p.events in
    max 0 (last_ts - first.ev_ts_us)

let counters () =
  match !state with
  | None -> []
  | Some st -> sorted_counters st.ctrs

let stable_counters () =
  match !state with
  | None -> []
  | Some st -> sorted_counters st.stable_ctrs

let unit_counters () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (_, p) ->
      List.iter
        (fun (k, n) ->
          match Hashtbl.find_opt tbl k with
          | Some v -> Hashtbl.replace tbl k (v + n)
          | None -> Hashtbl.add tbl k n)
        p.counters)
    (units ());
  sorted_counters tbl

(* Phase aggregation over merged unit profiles: walk each profile's events
   with an explicit stack (they are well-nested by construction) and total
   the B→E durations per span name, in order of first appearance. *)
let phase_totals () =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((_ : int), (p : profile)) ->
      let stack = ref [] in
      List.iter
        (fun ev ->
          if ev.ev_begin then stack := (ev.ev_name, ev.ev_ts_us) :: !stack
          else
            match !stack with
            | [] -> ()
            | (name, t0) :: rest ->
              stack := rest;
              let dur = max 0 (ev.ev_ts_us - t0) in
              (match Hashtbl.find_opt tbl name with
              | Some (c, tot) -> Hashtbl.replace tbl name (c + 1, tot + dur)
              | None ->
                order := name :: !order;
                Hashtbl.add tbl name (1, dur)))
        p.events)
    (units ());
  List.rev_map
    (fun name ->
      let c, tot = Hashtbl.find tbl name in
      (name, c, tot))
    !order

let clock_label () =
  match !state with
  | None -> "off"
  | Some st -> if st.fake then "fake" else "real"

(* --- sinks ----------------------------------------------------------------- *)

let merge_counter_lists lists =
  let tbl = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some v0 -> Hashtbl.replace tbl k (v0 + v)
         | None -> Hashtbl.add tbl k v))
    lists;
  sorted_counters tbl

let render_stats fmt =
  let phases = phase_totals () in
  let n_units = List.length (units ()) in
  Format.fprintf fmt "== shelley run stats (%d unit%s, clock: %s) ==@." n_units
    (if n_units = 1 then "" else "s")
    (clock_label ());
  if phases = [] then Format.fprintf fmt "(no profiles recorded)@."
  else begin
    Format.fprintf fmt "%-36s %7s %12s %12s@." "phase" "count" "total_us" "mean_us";
    List.iter
      (fun (name, c, tot) ->
        Format.fprintf fmt "%-36s %7d %12d %12d@." name c tot (tot / max 1 c))
      phases
  end;
  (* Unit counters plus the stable orchestrator counters (cache behavior):
     both are byte-stable for a given corpus, so — unlike the worker-pool
     timing counters, which feed only the metrics sink — they may appear in
     this table. A warm all-hits run has no unit profiles at all, but its
     cache counters still print. *)
  let ctrs = merge_counter_lists [ unit_counters (); stable_counters () ] in
  if ctrs <> [] then begin
    Format.fprintf fmt "counters@.";
    List.iter (fun (k, v) -> Format.fprintf fmt "  %-44s %12d@." k v) ctrs
  end

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_metrics_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"shelley.metrics/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"clock\": \"%s\",\n" (clock_label ()));
  (* units *)
  Buffer.add_string b "  \"units\": [";
  let first = ref true in
  List.iter
    (fun (lane, (p : profile)) ->
      if not !first then Buffer.add_string b ",";
      first := false;
      Buffer.add_string b
        (Printf.sprintf "\n    {\"name\": \"%s\", \"lane\": %d, \"total_us\": %d, \"spans\": %d}"
           (json_escape p.unit_name) lane (profile_total_us p)
           (List.length (List.filter (fun ev -> ev.ev_begin) p.events))))
    (units ());
  Buffer.add_string b (if !first then "],\n" else "\n  ],\n");
  (* phases *)
  Buffer.add_string b "  \"phases\": [";
  let first = ref true in
  List.iter
    (fun (name, c, tot) ->
      if not !first then Buffer.add_string b ",";
      first := false;
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"name\": \"%s\", \"count\": %d, \"total_us\": %d, \"mean_us\": %d}"
           (json_escape name) c tot (tot / max 1 c)))
    (phase_totals ());
  Buffer.add_string b (if !first then "],\n" else "\n  ],\n");
  (* counters: unit sums, then recorder-level (worker pool etc.) and the
     stable orchestrator counters (cache behavior) merged in *)
  let merged = merge_counter_lists [ unit_counters (); counters (); stable_counters () ] in
  Buffer.add_string b "  \"counters\": {";
  let first = ref true in
  List.iter
    (fun (k, v) ->
      if not !first then Buffer.add_string b ",";
      first := false;
      Buffer.add_string b (Printf.sprintf "\n    \"%s\": %d" (json_escape k) v))
    merged;
  Buffer.add_string b (if !first then "}\n" else "\n  }\n");
  Buffer.add_string b "}\n";
  Buffer.contents b

let render_chrome_trace () =
  let b = Buffer.create 4096 in
  let emitted_something = ref false in
  let emit_raw s =
    if !emitted_something then Buffer.add_string b ",\n";
    emitted_something := true;
    Buffer.add_string b ("  " ^ s)
  in
  let emit_meta ~tid ~name ~value =
    emit_raw
      (Printf.sprintf
         "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": {\"name\": \"%s\"}}"
         name tid (json_escape value))
  in
  let emit_event ~tid ev =
    if ev.ev_begin then begin
      let args =
        String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
             ev.ev_args)
      in
      emit_raw
        (Printf.sprintf
           "{\"name\": \"%s\", \"cat\": \"shelley\", \"ph\": \"B\", \"ts\": %d, \"pid\": 1, \
            \"tid\": %d, \"args\": {%s}}"
           (json_escape ev.ev_name) ev.ev_ts_us tid args)
    end
    else
      emit_raw
        (Printf.sprintf "{\"name\": \"%s\", \"ph\": \"E\", \"ts\": %d, \"pid\": 1, \"tid\": %d}"
           (json_escape ev.ev_name) ev.ev_ts_us tid)
  in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  emit_meta ~tid:0 ~name:"process_name" ~value:"shelley";
  emit_meta ~tid:0 ~name:"thread_name" ~value:"orchestrator";
  let lanes =
    List.sort_uniq compare (List.map fst (units ()))
  in
  List.iter
    (fun lane ->
      emit_meta ~tid:(lane + 1) ~name:"thread_name"
        ~value:(Printf.sprintf "worker %d" lane))
    lanes;
  (* Orchestrator events (tid 0): whatever the parent recorded outside units.
     Parent buffers are reversed; unit profiles are already chronological. *)
  (match !state with
  | None -> ()
  | Some st -> List.iter (emit_event ~tid:0) (List.rev st.events));
  List.iter
    (fun (lane, (p : profile)) -> List.iter (emit_event ~tid:(lane + 1)) p.events)
    (units ());
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
