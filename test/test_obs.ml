(* The observability layer: recorder semantics (disabled = inert, spans
   well-nested, fake clock deterministic), the Limits fuel ledger
   (snapshot/consumed), sink schemas (metrics JSON, Chrome trace), worker
   lanes, and the contract that matters most: enabling observability never
   changes a single byte of report output. *)

(* --- a minimal JSON reader, enough to validate our own sinks --------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Json_error of string

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Json_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
        | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
        | Some 'u' ->
          advance ();
          pos := !pos + 4;
          Buffer.add_char b '?';
          go ()
        | Some c -> advance (); Buffer.add_char b c; go ()
        | None -> fail "unterminated escape")
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> Alcotest.failf "missing key %S" key)
  | _ -> Alcotest.failf "not an object (looking for %S)" key

let as_str = function
  | Str s -> s
  | _ -> Alcotest.fail "expected a string"

let as_int = function
  | Num f -> int_of_float f
  | _ -> Alcotest.fail "expected a number"

let as_arr = function
  | Arr l -> l
  | _ -> Alcotest.fail "expected an array"

(* Every test leaves the global recorder disabled, whatever happens. *)
let with_obs ?fake_clock f =
  Obs.enable ?fake_clock ();
  Fun.protect ~finally:Obs.disable f

(* --- recorder semantics ---------------------------------------------------- *)

let test_disabled_inert () =
  Obs.disable ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Obs.count "nope" 1;
  let r = Obs.with_span "nope" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span is the identity" 42 r;
  let r, profile = Obs.in_unit ~name:"nope" (fun () -> "x") in
  Alcotest.(check string) "in_unit is the identity" "x" r;
  Alcotest.(check bool) "no profile" true (profile = None);
  Alcotest.(check int) "no units" 0 (List.length (Obs.units ()));
  Alcotest.(check int) "no counters" 0 (List.length (Obs.counters ()))

let test_counters_accumulate () =
  with_obs @@ fun () ->
  Obs.count "a" 2;
  Obs.count "b" 5;
  Obs.count "a" 3;
  Alcotest.(check (list (pair string int)))
    "summed and sorted"
    [ ("a", 5); ("b", 7 - 2) ]
    (Obs.counters ())

let test_span_nesting_and_exceptions () =
  with_obs ~fake_clock:true @@ fun () ->
  let _, profile =
    Obs.in_unit ~name:"u" (fun () ->
        Obs.with_span "outer" (fun () ->
            (try Obs.with_span "inner" (fun () -> failwith "boom")
             with Failure _ -> ());
            Obs.with_span "sibling" (fun () -> ())))
  in
  let p = Option.get profile in
  (* Well-nested: walk with a stack; every E closes the matching B. *)
  let stack = ref [] in
  List.iter
    (fun (ev : Obs.event) ->
      if ev.Obs.ev_begin then stack := ev.Obs.ev_name :: !stack
      else
        match !stack with
        | top :: rest when String.equal top ev.Obs.ev_name -> stack := rest
        | _ -> Alcotest.failf "E %S does not close the innermost B" ev.Obs.ev_name)
    p.Obs.events;
  Alcotest.(check (list string)) "stack drained" [] !stack;
  (* The exception-killed span still closed. *)
  let names = List.map (fun (ev : Obs.event) -> ev.Obs.ev_name) p.Obs.events in
  Alcotest.(check int) "inner appears as B and E" 2
    (List.length (List.filter (String.equal "inner") names))

let test_fake_clock_deterministic () =
  let run () =
    with_obs ~fake_clock:true @@ fun () ->
    let _, profile =
      Obs.in_unit ~name:"u" (fun () ->
          Obs.with_span "a" (fun () -> Obs.with_span "b" (fun () -> ()));
          Obs.count "k" 3)
    in
    Option.iter (Obs.add_unit ~lane:0) profile;
    let buf = Buffer.create 256 in
    Obs.render_stats (Format.formatter_of_buffer buf);
    Buffer.contents buf
  in
  let first = run () in
  let second = run () in
  Alcotest.(check string) "two runs render identically" first second;
  Alcotest.(check bool) "fake clock label" true
    (Testutil.contains first "clock: fake")

let test_unit_isolation () =
  (* Ticks and counters restart per unit, so a unit's profile is independent
     of what ran before it — the property that makes -j 1 and -j N agree. *)
  with_obs ~fake_clock:true @@ fun () ->
  let work () = Obs.with_span "w" (fun () -> Obs.count "c" 1) in
  let _, p1 = Obs.in_unit ~name:"first" work in
  Obs.count "parent-noise" 99;
  let _, p2 = Obs.in_unit ~name:"second" work in
  let p1 = Option.get p1 and p2 = Option.get p2 in
  Alcotest.(check (list (pair string int))) "same counters" p1.Obs.counters p2.Obs.counters;
  let times (p : Obs.profile) = List.map (fun (e : Obs.event) -> e.Obs.ev_ts_us) p.Obs.events in
  Alcotest.(check (list int)) "same timestamps" (times p1) (times p2)

(* --- Limits ledger --------------------------------------------------------- *)

let test_snapshot_empty_and_monotone () =
  let t = Limits.make () in
  Alcotest.(check (list (pair string int))) "fresh budget: empty" [] (Limits.snapshot t);
  let f = Limits.fuel ~within:t ~resource:"r" 100 in
  Alcotest.(check (list (pair string int)))
    "resource appears untouched" [ ("r", 100) ] (Limits.snapshot t);
  (* Remaining never increases, whatever we do. *)
  let prev = ref 100 in
  for _ = 1 to 10 do
    Limits.spend f;
    match Limits.snapshot t with
    | [ ("r", remaining) ] ->
      Alcotest.(check bool) "monotone non-increasing" true (remaining <= !prev);
      prev := remaining
    | _ -> Alcotest.fail "unexpected snapshot shape"
  done;
  Alcotest.(check int) "exact remaining" 90 !prev

let test_snapshot_multiple_constructions () =
  (* Two counters drawing on the same budget field under the same name:
     the ledger records the cumulative draw (and may go negative). *)
  let t = Limits.make () in
  let f1 = Limits.fuel ~within:t ~resource:"s" 5 in
  let f2 = Limits.fuel ~within:t ~resource:"s" 5 in
  for _ = 1 to 4 do
    Limits.spend f1;
    Limits.spend f2
  done;
  Alcotest.(check (list (pair string int)))
    "cumulative across counters" [ ("s", 5 - 8) ] (Limits.snapshot t)

let test_consumed_deltas () =
  let t = Limits.make () in
  let f = Limits.fuel ~within:t ~resource:"a" 100 in
  Limits.spend f;
  Limits.spend f;
  let before = Limits.snapshot t in
  Alcotest.(check (list (pair string int))) "nothing since before" []
    (Limits.consumed t ~before);
  Limits.spend f;
  let g = Limits.fuel ~within:t ~resource:"b" 50 in
  Limits.spend g;
  Limits.spend g;
  Alcotest.(check (list (pair string int)))
    "per-resource deltas (new resource counts from its limit)"
    [ ("a", 1); ("b", 2) ]
    (Limits.consumed t ~before)

let test_check_high_water () =
  let t = Limits.make () in
  Limits.check ~within:t ~resource:"size" ~limit:100 30;
  Limits.check ~within:t ~resource:"size" ~limit:100 70;
  Limits.check ~within:t ~resource:"size" ~limit:100 10;
  Alcotest.(check (list (pair string int)))
    "high-water mark, not a sum" [ ("size", 30) ] (Limits.snapshot t);
  Alcotest.(check bool) "over limit still raises" true
    (match Limits.check ~within:t ~resource:"size" ~limit:100 101 with
    | () -> false
    | exception Limits.Budget_exceeded _ -> true)

let test_reduced_fresh_ledger () =
  let t = Limits.make () in
  let f = Limits.fuel ~within:t ~resource:"r" 100 in
  Limits.spend f;
  let r = Limits.reduced t in
  Alcotest.(check (list (pair string int))) "retry budget starts clean" []
    (Limits.snapshot r);
  Alcotest.(check (list (pair string int)))
    "original untouched" [ ("r", 99) ] (Limits.snapshot t)

(* --- Supervisor lanes ------------------------------------------------------ *)

let test_inline_lane_zero () =
  (* A closed pool runs every task in-process: no worker, so lane 0. *)
  let pool = Supervisor.create (Supervisor.config ~jobs:2 ()) (fun n -> n) in
  Supervisor.shutdown pool;
  List.iter
    (fun (s : _ Supervisor.settled) ->
      Alcotest.(check int) "inline lane" 0 s.Supervisor.lane)
    (Supervisor.run pool [ 1; 2; 3 ])

let test_lanes_bounded () =
  let pool =
    Supervisor.create (Supervisor.config ~jobs:2 ()) (fun n -> n * n)
  in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown pool) @@ fun () ->
  let got = Supervisor.run ~deadline:30.0 pool [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "all settled" 5 (List.length got);
  List.iter
    (fun (s : _ Supervisor.settled) ->
      (match s.Supervisor.outcome with
      | Supervisor.Done _ -> ()
      | _ -> Alcotest.fail "expected Done");
      Alcotest.(check bool) "lane within pool" true
        (s.Supervisor.lane >= 0 && s.Supervisor.lane < 2))
    got;
  (* map is run minus the lanes and attempts. *)
  let plain = Supervisor.map ~deadline:30.0 pool [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "map = outcomes of run" true
    (plain = List.map (fun (s : _ Supervisor.settled) -> s.Supervisor.outcome) got)

(* --- corpus for the end-to-end sink tests ---------------------------------- *)

let valve_source =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
|}

let bad_sector_source =
  valve_source
  ^ {|
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return []
            case ["clean"]:
                self.a.clean()
                return []
|}

let corpus_dir =
  lazy
    (let dir = Filename.temp_file "shelley_obs" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     let write name contents =
       let path = Filename.concat dir name in
       let oc = open_out_bin path in
       output_string oc contents;
       close_out oc;
       path
     in
     [ write "ok.py" valve_source; write "bad.py" bad_sector_source ])

(* --- metrics JSON schema --------------------------------------------------- *)

let test_metrics_json_schema () =
  with_obs ~fake_clock:true @@ fun () ->
  let verdicts = Checker.check_files ~jobs:1 (Lazy.force corpus_dir) in
  Alcotest.(check int) "both units profiled" 2
    (List.length (List.filter (fun (v : Checker.verdict) -> v.Checker.profile <> None) verdicts));
  let j = parse_json (Obs.render_metrics_json ()) in
  Alcotest.(check string) "schema tag" "shelley.metrics/1" (as_str (member "schema" j));
  Alcotest.(check string) "clock" "fake" (as_str (member "clock" j));
  let units = as_arr (member "units" j) in
  Alcotest.(check int) "one entry per file" 2 (List.length units);
  List.iter
    (fun u ->
      ignore (as_str (member "name" u));
      ignore (as_int (member "lane" u));
      Alcotest.(check bool) "total_us >= 0" true (as_int (member "total_us" u) >= 0);
      Alcotest.(check bool) "spans > 0" true (as_int (member "spans" u) > 0))
    units;
  let phases = as_arr (member "phases" j) in
  Alcotest.(check bool) "phases present" true (List.length phases > 0);
  let phase_names = List.map (fun p -> as_str (member "name" p)) phases in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " phase present") true
        (List.mem expected phase_names))
    [ "unit"; "parse"; "extract"; "usage"; "claims"; "language.product" ];
  List.iter
    (fun p ->
      let count = as_int (member "count" p) in
      let total = as_int (member "total_us" p) in
      let mean = as_int (member "mean_us" p) in
      Alcotest.(check bool) "count > 0" true (count > 0);
      Alcotest.(check int) "mean consistent" (total / count) mean)
    phases;
  match member "counters" j with
  | Obj counters ->
    List.iter
      (fun key ->
        Alcotest.(check bool) (key ^ " counted") true
          (match List.assoc_opt key counters with
          | Some (Num f) -> f > 0.0
          | _ -> false))
      [ "parse.classes"; "models.extracted"; "usage.nfa_states" ]
  | _ -> Alcotest.fail "counters must be an object"

(* --- Chrome trace ---------------------------------------------------------- *)

let trace_events () =
  let j = parse_json (Obs.render_chrome_trace ()) in
  Alcotest.(check string) "ms display" "ms" (as_str (member "displayTimeUnit" j));
  as_arr (member "traceEvents" j)

let test_trace_well_nested_with_lanes () =
  with_obs ~fake_clock:true @@ fun () ->
  (* jobs = 2 forces the fork path: profiles come back over the pipe and are
     merged under their pool lanes. *)
  let verdicts = Checker.check_files ~jobs:2 (Lazy.force corpus_dir) in
  Alcotest.(check int) "two files" 2 (List.length verdicts);
  let events = trace_events () in
  let by_ph ph =
    List.filter (fun e -> String.equal (as_str (member "ph" e)) ph) events
  in
  (* One thread_name metadata row per lane that appears, plus the
     orchestrator; every worker tid is a real pool lane + 1. *)
  let meta_tids =
    by_ph "M"
    |> List.filter (fun e -> String.equal (as_str (member "name" e)) "thread_name")
    |> List.map (fun e -> as_int (member "tid" e))
  in
  let b_tids = List.sort_uniq compare (List.map (fun e -> as_int (member "tid" e)) (by_ph "B")) in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "tid %d has a thread_name row" tid)
        true (List.mem tid meta_tids);
      Alcotest.(check bool)
        (Printf.sprintf "tid %d is a worker lane" tid)
        true
        (tid >= 1 && tid <= 2))
    b_tids;
  (* Well-nestedness per tid: every E closes the innermost open B. *)
  let tids = List.sort_uniq compare (List.map (fun e -> as_int (member "tid" e)) events) in
  List.iter
    (fun tid ->
      let stack = ref [] in
      List.iter
        (fun e ->
          if as_int (member "tid" e) = tid then
            match as_str (member "ph" e) with
            | "B" -> stack := as_str (member "name" e) :: !stack
            | "E" -> (
              let name = as_str (member "name" e) in
              match !stack with
              | top :: rest when String.equal top name -> stack := rest
              | _ -> Alcotest.failf "tid %d: E %S unmatched" tid name)
            | _ -> ())
        events;
      Alcotest.(check (list string))
        (Printf.sprintf "tid %d fully closed" tid)
        [] !stack)
    tids;
  (* Both unit spans present, one per file. *)
  let unit_bs =
    by_ph "B" |> List.filter (fun e -> String.equal (as_str (member "name" e)) "unit")
  in
  Alcotest.(check int) "one unit span per file" 2 (List.length unit_bs)

(* --- byte identity --------------------------------------------------------- *)

(* Observability must never change what the user sees: for any jobs level,
   per-file outputs and codes with the recorder on equal those with it off. *)
let test_output_byte_identical =
  QCheck2.Test.make ~count:8 ~name:"report output identical with obs on/off"
    QCheck2.Gen.(int_range 1 4)
    (fun jobs ->
      Obs.disable ();
      let off = Checker.check_files ~jobs (Lazy.force corpus_dir) in
      let on =
        with_obs ~fake_clock:true @@ fun () ->
        Checker.check_files ~jobs (Lazy.force corpus_dir)
      in
      List.for_all2
        (fun (a : Checker.verdict) (b : Checker.verdict) ->
          String.equal a.Checker.output b.Checker.output && a.Checker.code = b.Checker.code)
        off on)

let () =
  Alcotest.run "obs"
    [
      ( "recorder",
        [
          Alcotest.test_case "disabled recorder is inert" `Quick test_disabled_inert;
          Alcotest.test_case "counters accumulate" `Quick test_counters_accumulate;
          Alcotest.test_case "spans nest, survive exceptions" `Quick
            test_span_nesting_and_exceptions;
          Alcotest.test_case "fake clock renders deterministically" `Quick
            test_fake_clock_deterministic;
          Alcotest.test_case "units isolated from each other" `Quick test_unit_isolation;
        ] );
      ( "limits-ledger",
        [
          Alcotest.test_case "snapshot empty then monotone" `Quick
            test_snapshot_empty_and_monotone;
          Alcotest.test_case "cumulative across constructions" `Quick
            test_snapshot_multiple_constructions;
          Alcotest.test_case "consumed diffs snapshots" `Quick test_consumed_deltas;
          Alcotest.test_case "check records high-water marks" `Quick test_check_high_water;
          Alcotest.test_case "reduced budget gets a fresh ledger" `Quick
            test_reduced_fresh_ledger;
        ] );
      ( "runner-lanes",
        [
          Alcotest.test_case "inline path is lane 0" `Quick test_inline_lane_zero;
          Alcotest.test_case "lanes bounded by pool size" `Quick test_lanes_bounded;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "metrics JSON schema" `Quick test_metrics_json_schema;
          Alcotest.test_case "chrome trace well-nested, worker lanes" `Quick
            test_trace_well_nested_with_lanes;
          QCheck_alcotest.to_alcotest test_output_byte_identical;
        ] );
    ]
