(* The served workload, [serve_edits]: editor traffic against a warm
   [shelley serve --cache -j N] daemon, driven open loop. One client
   process sends on a fixed schedule over at most N persistent connections,
   pipelining requests and matching replies by id, and times each request
   from when it was due, not from when it went out, so a stall is charged
   to every request it delays.

   Most requests re-check an unchanged file: a cache hit, answered by the
   daemon without a worker. A seeded tenth first rewrites a file with a
   new generated variant: a miss, verified by a worker and stored through
   the deferred write path. *)

let dir = Filename.concat Run.work_dir "serve_edits"
let socket = Filename.concat dir "d.sock"
let cache_dir = Filename.concat dir "cache"
let stable_count = 64
let edit_targets = 16
(* One request in fifty is an edit. The daemon runs one request at a time,
   so a hit that arrives during a miss waits for it: misses plus the hits
   they delay stay a few percent of the traffic, the p90 falls among
   undelayed hits and the p99 among misses, never on a boundary between
   the two where a small shift in either would swing it. *)
let edit_share = 0.02

(* Offered load. The latency metrics come from the base rate; the ladder
   then steps the rate up and reports the highest step that still meets
   the p99 limit with every request answered and no backlog left behind. *)
let base_rps = 500.
let ladder = [ 750.; 1500.; 2250. ]
let p99_limit_ms = 50.
let base_share = 0.7  (** of the run's seconds; the ladder steps share the rest *)

(* Base-phase percentiles are taken per window of this many seconds (a
   thousand requests at the base rate, so ten beyond the p99) and the
   median over windows is reported: a burst of load from outside the
   benchmark spoils one window, not the run. *)
let window_s = 2.0

(* Sequential files only: the counterexample a worker renders for an
   interleaved behavior can depend on which files that process verified
   before (ties between equally short schedules are broken by symbol
   interning order), so a daemon's answer for an async file is not always
   byte-identical to a fresh one-shot run. The batch workloads fork their
   workers after the reference run, so they share its interning and keep
   their async files. *)
let concurrency = false

type request = {
  offset : float;  (** seconds after its phase starts *)
  path : string;
  edit : string option;  (** new contents, written just before sending *)
  expect : string * int;  (** the one-shot output and exit code *)
}

(* --- Inputs ------------------------------------------------------------------ *)

let oneshot path =
  match Checker.check_files ~jobs:1 [ path ] with
  | [ v ] ->
    let ok = if v.Checker.code = 0 then "OK: specification verified\n" else "" in
    (v.Checker.output ^ ok, v.Checker.code)
  | _ -> ("", -1)

(* Requests of one phase at [rate] for [seconds]; [edits] numbers the
   rewritten variants across phases. Misses need their expected answers
   now, so each variant is written and checked in schedule order, exactly
   as the daemon will see it. Returns the wrong known answers too. *)
let schedule rng ~stable ~rate ~seconds ~edits =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let wrong = ref 0 in
  let reqs =
    List.init n (fun i ->
        let offset = float_of_int i /. rate in
        if Random.State.float rng 1.0 < edit_share then begin
          let k = !edits in
          incr edits;
          let path = Filename.concat dir (Printf.sprintf "edit/e%02d.py" (k mod edit_targets)) in
          let f =
            Gen.project_file ~concurrency ~shape:(Gen.rng_of ~seed:(1000 + k) ~salt:3) rng ~name:path
          in
          let source = f.Gen.source ^ Printf.sprintf "\n# edit %d\n" k in
          Gen.write_file path source;
          let expect = oneshot path in
          if snd expect <> f.Gen.code then incr wrong;
          { offset; path; edit = Some source; expect }
        end
        else begin
          let path, expect = stable.(Random.State.int rng (Array.length stable)) in
          { offset; path; edit = None; expect }
        end)
  in
  (reqs, !wrong)

(* --- The daemon --------------------------------------------------------------- *)

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let call line =
  match Serve.client_call ~socket line with
  | Ok resp -> Jsonl.parse resp |> Result.to_option |> Fun.flip Option.bind (Jsonl.member "result")
  | Error _ -> None

type daemon = { pid : int }

(* Daemons not yet stopped; an aborted run still takes them down. *)
let live = ref []

let start ~shelley ~jobs ~extra =
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    Array.of_list
      ([ shelley; "serve"; "--socket"; socket; "-j"; string_of_int jobs; "--cache"; cache_dir ]
      @ extra)
  in
  let pid = Unix.create_process shelley argv devnull devnull Unix.stderr in
  Unix.close devnull;
  live := pid :: !live;
  let deadline = Probe.now () +. 20. in
  let rec wait () =
    match connect () with
    | Some fd -> Unix.close fd
    | None ->
      if Probe.now () > deadline then failwith "the daemon did not come up";
      Unix.sleepf 0.005;
      wait ()
  in
  wait ();
  { pid }

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Ask the daemon to drain; past the grace period, SIGKILL it. *)
let reap ?(grace = 20.) pid =
  let deadline = Probe.now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Probe.now () < deadline ->
      Unix.sleepf 0.005;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (waitpid pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let stop d =
  ignore (Serve.client_call ~socket "{\"id\":0,\"method\":\"shutdown\"}");
  reap d.pid

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          reap ~grace:5. pid)
        !live)

let status_field key =
  match call "{\"id\":0,\"method\":\"status\"}" with
  | Some r -> Jsonl.member key r
  | None -> None

let worker_pids () =
  match status_field "workers" with
  | Some (Jsonl.Arr pids) -> List.filter_map (fun p -> Option.map int_of_float (Jsonl.to_num p)) pids
  | _ -> []

(* --- The open-loop client ------------------------------------------------------- *)

type phase = {
  rate : float;
  sent : int;
  ok : int;
  failed : int;
  latencies : float list;  (** ms from due time to reply, answered requests *)
  timed : (float * float) list;  (** (due, s after the phase starts; latency ms) *)
  lags : float list;  (** ms the generator sent late *)
  backlog_max : int;
  backlog_end : int;  (** requests unanswered when the last one was sent *)
  span_s : float;  (** first due time to last reply *)
  by_id : (int * float) list;  (** (id, latency ms) for the access-log join *)
}

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let request_line id path =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", Jsonl.Num (float_of_int id));
         ("method", Jsonl.Str "check");
         ("params", Jsonl.Obj [ ("files", Jsonl.Arr [ Jsonl.Str path ]) ]);
       ])
  ^ "\n"

let rec write_all fd s pos =
  if pos < String.length s then
    write_all fd s (pos + Unix.write_substring fd s pos (String.length s - pos))

let chunk = Bytes.create 65536

let run_phase conns ~first_id ~rate reqs =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let outstanding = Hashtbl.create 256 in
  let ok = ref 0 and failed = ref 0 and latencies = ref [] and lags = ref [] and by_id = ref [] in
  let timed = ref [] in
  let t0 = Probe.now () +. 0.01 in
  let backlog_max = ref 0 and backlog_end = ref 0 and last_reply = ref 0.0 in
  let answer line =
    match Jsonl.parse line with
    | Error _ -> incr failed
    | Ok j -> (
      let id = Option.value (Option.map int_of_float (Jsonl.mem_num "id" j)) ~default:(-1) in
      match Hashtbl.find_opt outstanding id with
      | None -> incr failed
      | Some (due, path, (out, code)) ->
        Hashtbl.remove outstanding id;
        let now = Probe.now () in
        last_reply := now;
        let correct =
          match Jsonl.member "result" j with
          | Some r -> Jsonl.mem_str "output" r = Some out && Jsonl.mem_int "code" r = Some code
          | None -> false (* shed, expired or any other error reply *)
        in
        if correct then begin
          incr ok;
          let ms = (now -. due) *. 1000. in
          latencies := ms :: !latencies;
          timed := (due -. t0, ms) :: !timed;
          by_id := (id, ms) :: !by_id
        end
        else begin
          if !failed < 3 then
            Printf.eprintf "WRONG reply to request %d (%s): %s\n%!" id path
              (if String.length line > 300 then String.sub line 0 300 else line);
          incr failed
        end)
  in
  let pump timeout =
    let fds = List.map (fun c -> c.fd) conns in
    match Unix.select fds [] [] (Float.max 0.0 timeout) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "the daemon closed a connection"
            | k ->
              Buffer.add_subbytes c.buf chunk 0 k;
              let s = Buffer.contents c.buf in
              let lines = String.split_on_char '\n' s in
              let rec go = function
                | [ rest ] ->
                  Buffer.clear c.buf;
                  Buffer.add_string c.buf rest
                | line :: more ->
                  answer line;
                  go more
                | [] -> ()
              in
              go lines)
        conns
  in
  let conns_a = Array.of_list conns in
  Array.iteri
    (fun i r ->
      let due = t0 +. r.offset in
      let rec until_due () =
        let left = due -. Probe.now () in
        if left > 0.0 then begin
          pump left;
          until_due ()
        end
      in
      until_due ();
      Option.iter (Gen.write_file r.path) r.edit;
      let id = first_id + i in
      Hashtbl.replace outstanding id (due, r.path, r.expect);
      write_all conns_a.(i mod Array.length conns_a).fd (request_line id r.path) 0;
      lags := (Probe.now () -. due) *. 1000. :: !lags;
      backlog_max := max !backlog_max (Hashtbl.length outstanding);
      (* Drain whatever already arrived without waiting. *)
      pump 0.0)
    reqs;
  backlog_end := Hashtbl.length outstanding;
  let drain_deadline = Probe.now () +. 10. in
  while Hashtbl.length outstanding > 0 && Probe.now () < drain_deadline do
    pump (drain_deadline -. Probe.now ())
  done;
  (* Unanswered requests are failures. *)
  failed := !failed + Hashtbl.length outstanding;
  {
    rate;
    sent = n;
    ok = !ok;
    failed = !failed;
    latencies = !latencies;
    timed = !timed;
    lags = !lags;
    backlog_max = !backlog_max;
    backlog_end = !backlog_end;
    span_s = Float.max 1e-3 (!last_reply -. t0);
    by_id = !by_id;
  }

let windowed q p =
  let windows = Hashtbl.create 16 in
  List.iter
    (fun (at, ms) ->
      let w = int_of_float (at /. window_s) in
      Hashtbl.replace windows w (ms :: Option.value (Hashtbl.find_opt windows w) ~default:[]))
    p.timed;
  Probe.median (Hashtbl.fold (fun _ l acc -> Probe.quantile q l :: acc) windows [])

let passes p =
  p.failed = 0
  && Probe.quantile 0.99 p.latencies <= p99_limit_ms
  && float_of_int p.backlog_end <= (p.rate *. p99_limit_ms /. 1000.) +. 2.

(* --- Set-up ------------------------------------------------------------------- *)

type setup = {
  daemon : daemon;
  phases : (float * request list) list;  (** (rate, requests), the base phase first *)
  wrong : int;
  primed : int;
  prime_failed : int;
  stable : (string * (string * int)) array;
}

let connections jobs =
  List.init jobs (fun _ ->
      match connect () with
      | Some fd -> { fd; buf = Buffer.create 4096 }
      | None -> failwith "cannot connect to the daemon")

let close_conns = List.iter (fun c -> Unix.close c.fd)

(* Generate the project, start a daemon that checks every stable file once
   (filling the cache, flushed when it drains), then start the daemon under
   test on the warm cache and wake its workers with two misses. *)
let setup ~shelley ~jobs ~seed ~seconds ~ladder ~extra =
  Probe.fresh_dir dir;
  Probe.mkdir_p (Filename.concat dir "src");
  Probe.mkdir_p (Filename.concat dir "edit");
  let files =
    Gen.corpus ~seed ~salt:4 ~count:stable_count ~dir:(Filename.concat dir "src")
      (Gen.project_file ~concurrency)
  in
  List.iter Gen.write files;
  let stable =
    Array.of_list (List.map (fun (f : Gen.file) -> (f.Gen.name, oneshot f.Gen.name)) files)
  in
  let wrong =
    List.fold_left2
      (fun acc (f : Gen.file) (_, (_, code)) -> if code = f.Gen.code then acc else acc + 1)
      0 files (Array.to_list stable)
  in
  let rng = Gen.rng_of ~seed ~salt:5 in
  let edits = ref 0 in
  let base_s = seconds *. base_share in
  let step_s = seconds *. (1. -. base_share) /. float_of_int (max 1 (List.length ladder)) in
  let phases, wrong =
    List.fold_left
      (fun (acc, wrong) (rate, secs) ->
        let reqs, w = schedule rng ~stable ~rate ~seconds:secs ~edits in
        ((rate, reqs) :: acc, wrong + w))
      ([], wrong)
      ((base_rps, base_s) :: List.map (fun r -> (r, step_s)) ladder)
  in
  let warm = List.init 2 (fun i -> Filename.concat dir (Printf.sprintf "edit/warm%d.py" i)) in
  List.iteri
    (fun i path ->
      Gen.write (Gen.project_file ~shape:(Gen.rng_of ~seed:i ~salt:6) rng ~name:path))
    warm;
  let prime = start ~shelley ~jobs ~extra:[] in
  let conns = connections jobs in
  let primed =
    run_phase conns ~first_id:1 ~rate:base_rps
      (Array.to_list
         (Array.mapi
            (fun i (path, expect) -> { offset = float_of_int i /. base_rps; path; edit = None; expect })
            stable))
  in
  close_conns conns;
  stop prime;
  let daemon = start ~shelley ~jobs ~extra in
  List.iter (fun path -> ignore (call (String.trim (request_line 0 path)))) warm;
  {
    daemon;
    phases = List.rev phases;
    wrong;
    primed = primed.sent;
    prime_failed = primed.failed;
    stable;
  }

let timed_setups ~shelley ~jobs ~seed ~seconds ~ladder ~extra =
  let rec go k acc =
    let t0 = Probe.now () in
    let s = setup ~shelley ~jobs ~seed ~seconds ~ladder ~extra in
    let acc = Probe.ms_since t0 /. 1000. :: acc in
    if k <= 1 then (s, acc)
    else begin
      stop s.daemon;
      go (k - 1) acc
    end
  in
  go Run.setup_repeats []

(* CPU of the daemon (with the workers it reaped) and its live workers. *)
let served_cpu d workers = Probe.cpu_ms d.pid +. Probe.sum (List.map (Probe.cpu_ms ~children:false) workers)

let measure ~shelley ~seed ~seconds ~jobs =
  let s, setup_times = timed_setups ~shelley ~jobs ~seed ~seconds ~ladder ~extra:[] in
  let conns = connections jobs in
  let workers0 = worker_pids () in
  let cpu0 = served_cpu s.daemon workers0 +. Probe.cpu_ms Probe.self_pid in
  let phases =
    List.fold_left
      (fun (acc, first_id) (rate, reqs) ->
        let p = run_phase conns ~first_id ~rate reqs in
        (p :: acc, first_id + p.sent))
      ([], 1_000_000) s.phases
    |> fst |> List.rev
  in
  let workers = List.sort_uniq compare (workers0 @ worker_pids ()) in
  let cpu = served_cpu s.daemon workers +. Probe.cpu_ms Probe.self_pid -. cpu0 in
  let peak =
    List.fold_left Float.max 0.0
      (List.map Probe.peak_rss_mb (Probe.self_pid :: s.daemon.pid :: workers))
  in
  close_conns conns;
  stop s.daemon;
  let base = List.hd phases in
  let steps = List.tl phases in
  let sustained =
    List.fold_left
      (fun acc p -> if passes p then float_of_int p.ok /. p.span_s else acc)
      0.0 steps
  in
  let sent = List.fold_left (fun acc p -> acc + p.sent) 0 phases in
  let rows =
    Printf.sprintf "primed %d files; %d requests at -j %d over %d connections" s.primed sent jobs jobs
    :: List.map
         (fun p ->
           Printf.sprintf
             "  %6.0f rps offered: %5d sent, %5d failed, p50 %.2f p99 %.2f ms, lag p99 %.2f ms, backlog max %d end %d -> %s"
             p.rate p.sent p.failed (Probe.quantile 0.5 p.latencies) (Probe.quantile 0.99 p.latencies)
             (Probe.quantile 0.99 p.lags) p.backlog_max p.backlog_end
             (if passes p then "meets the limit" else "misses the limit"))
         phases
  in
  (* A ladder step beyond capacity is expected to miss the limit; only the
     base phase's failures are the workload's. *)
  Run.report
    ~attempted:(base.sent + s.primed + Array.length s.stable)
    ~failed:(base.failed + s.prime_failed + s.wrong)
    ~rows
    [
      ("setup_s", Probe.median setup_times);
      ("units_per_s", float_of_int base.ok /. base.span_s);
      ("cpu_ms_per_unit", cpu /. float_of_int sent);
      ("peak_rss_mb", peak);
      ("latency_p50_ms", windowed 0.5 base);
      ("latency_p90_ms", windowed 0.9 base);
      ("latency_p99_ms", windowed 0.99 base);
      ("sustained_rps", sustained);
    ]

(* --- The traced run ----------------------------------------------------------------

   First the base phase's requests replay in-process against a cache of
   the benchmark's own, primed with the stable files and in deferred-write
   mode like the daemon's: a hit is one [Cache.find] on the request's key,
   a miss runs the check pipeline's layers and one [Cache.store]. Then the
   same phase runs against a daemon that writes an access log and its
   [Obs] metrics, for the serve and pool counters. *)

type payload = string * int

let replay_cache stable =
  let path = Filename.concat dir "replay-cache" in
  Probe.rm_rf path;
  match Cache.open_dir path with
  | Error msg -> failwith msg
  | Ok c ->
    Array.iter
      (fun (file, (expect : payload)) ->
        Cache.store c (Checker.check_cache_key ~path:file (Probe.read_file file)) expect)
      stable;
    Cache.defer_writes c;
    c

let replay tr cache reqs =
  List.fold_left
    (fun (i, wrong) r ->
      tr.Probe.unit_id <- i;
      let ok =
        Probe.span tr "unit" (fun () ->
            Option.iter (Gen.write_file r.path) r.edit;
            let source = Probe.read_file r.path in
            let key, found =
              Probe.span tr "cache.lookup" (fun () ->
                  let key = Checker.check_cache_key ~path:r.path source in
                  (key, (Cache.find cache key : payload option)))
            in
            match found with
            | Some hit -> hit = r.expect
            | None ->
              let code = Layers.check tr source in
              Probe.span tr "cache.store" (fun () -> Cache.store cache key (r.expect : payload));
              code = snd r.expect)
      in
      (i + 1, if ok then wrong else wrong + 1))
    (0, 0) reqs
  |> snd

let json_file path = Result.to_option (Jsonl.parse (Probe.read_file path))
let num path j = List.fold_left (fun acc k -> Option.bind acc (Jsonl.member k)) (Some j) path |> Fun.flip Option.bind Jsonl.to_num |> Option.value ~default:0.0

(* Client latency minus the daemon's own queue and execution time, per
   request, joined with the access log by id. *)
let transport_ms ~log by_id =
  let daemon_ms = Hashtbl.create 1024 in
  String.split_on_char '\n' (Probe.read_file log)
  |> List.iter (fun line ->
         match Jsonl.parse line with
         | Ok j -> (
           match Jsonl.mem_num "id" j with
           | Some id -> Hashtbl.replace daemon_ms (int_of_float id) (num [ "queue_ms" ] j +. num [ "exec_ms" ] j)
           | None -> ())
         | Error _ -> ());
  List.filter_map
    (fun (id, ms) -> Option.map (fun d -> ms -. d) (Hashtbl.find_opt daemon_ms id))
    by_id

let trace ~shelley ~seed ~seconds ~jobs =
  let log = Filename.concat dir "access.jsonl" and metrics_out = Filename.concat dir "metrics.json" in
  let s =
    setup ~shelley ~jobs ~seed ~seconds ~ladder:[]
      ~extra:[ "--access-log"; log; "--metrics-out"; metrics_out ]
  in
  let rate, reqs = List.hd s.phases in
  let plain_ms =
    Run.untraced_ms (fun () ->
        ignore (replay (Probe.tracer ~on:false) (replay_cache s.stable) reqs : int))
  in
  let cache = replay_cache s.stable in
  let tr = Probe.tracer ~on:true in
  Obs.enable ~fake_clock:false ();
  let t0 = Probe.now () in
  let replay_wrong = Probe.span tr "replay" (fun () -> replay tr cache reqs) in
  let replay_ms = Probe.ms_since t0 in
  let counters = Obs.counters () @ Obs.stable_counters () in
  Obs.disable ();
  Probe.write_spans tr (Filename.concat Run.work_dir "serve_edits-spans.json");
  (* The daemon, for real. *)
  let conns = connections jobs in
  let p = run_phase conns ~first_id:1_000_000 ~rate reqs in
  let metrics = call "{\"id\":0,\"method\":\"metrics\"}" in
  close_conns conns;
  stop s.daemon;
  let m path = Option.fold ~none:0.0 ~some:(num path) metrics in
  let obs = json_file metrics_out in
  let daemon_counters =
    match Option.bind obs (Jsonl.mem_obj "counters") with
    | Some kvs -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, int_of_float f)) (Jsonl.to_num v)) kvs
    | None -> []
  in
  let unit_us =
    match Option.bind obs (Jsonl.member "units") with
    | Some (Jsonl.Arr units) -> List.fold_left (fun acc u -> acc + int_of_float (num [ "total_us" ] u)) 0 units
    | _ -> 0
  in
  let transport = transport_ms ~log p.by_id in
  let c = Run.counter counters in
  let lookups = c "cache.hits" +. c "cache.misses" in
  let pool = Run.pool_metrics ~jobs ~wall_ms:(p.span_s *. 1000.) ~counters:daemon_counters ~unit_us in
  let self = Probe.self_ms tr in
  let self_of name = Option.value (List.assoc_opt name self) ~default:0.0 in
  Run.report
    ~attempted:(2 * List.length reqs + s.primed + Array.length s.stable)
    ~failed:(p.failed + replay_wrong + s.prime_failed + s.wrong)
    ~rows:
      (Printf.sprintf "traced: replay of %d requests, then %d at %.0f rps through the daemon" (List.length reqs)
         p.sent rate
      :: Run.queue_wait_flag pool)
    (Run.replay_metrics ~replay_ms ~plain_ms ~self ~counters
       ~bytes:(List.fold_left (fun acc r -> acc + Option.fold ~none:0 ~some:String.length r.edit) 0 reqs)
    @ pool
    @ [
        ("cache.hit_ratio", Run.ratio (c "cache.hits") lookups);
        ("cache.lookup_us", Run.ratio (self_of "cache.lookup" *. 1000.) lookups);
        ("cache.store_us", Run.ratio (self_of "cache.store" *. 1000.) (c "cache.deferred_stores"));
        ("cache.bytes_read_per_hit", Run.ratio (c "cache.bytes_read") (c "cache.hits"));
        ("cache.corrupt_entries", c "cache.corrupt_entries");
        ("serve.queue_ms.p50", m [ "methods"; "check"; "queue_ms"; "p50" ]);
        ("serve.queue_ms.p99", m [ "methods"; "check"; "queue_ms"; "p99" ]);
        ("serve.exec_ms.p50", m [ "methods"; "check"; "exec_ms"; "p50" ]);
        ("serve.exec_ms.p99", m [ "methods"; "check"; "exec_ms"; "p99" ]);
        ("serve.transport_ms.p50", Probe.quantile 0.5 transport);
        ("serve.transport_ms.p99", Probe.quantile 0.99 transport);
        ("serve.shed", m [ "load"; "shed" ]);
        ("serve.expired", m [ "load"; "expired" ]);
        ("serve.worker_restarts", m [ "pool"; "restarts" ]);
        ("serve.backlog_max", float_of_int p.backlog_max);
        ("harness.generator_lag_ms.p99", Probe.quantile 0.99 p.lags);
      ])
