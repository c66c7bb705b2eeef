(* Overload benchmark for [shelley serve]: floods a daemon with parallel
   clients and pins down the three invariants the overload machinery
   promises, emitting machine-readable results to BENCH_serve.json:

   - responsiveness: [status] bypasses the admission queue, so the daemon
     must keep answering it while worker-bound requests flood in — the max
     probe latency is recorded and bounded (it can never exceed one
     in-flight verification, since dispatch blocks the loop for exactly
     that long);
   - deterministic sheds: with one worker pinned by a slow verification
     and the whole burst buffered before the admission round, a burst of B
     requests against a Q-slot queue sheds exactly B - Q of them with a
     structured [overloaded] error, every round, every repeat;
   - byte-identity under load: every request the daemon accepts — during
     the flood, inside the bursts, and after the overload has passed —
     returns output byte-identical to the one-shot engine, and
     self-healing clients ([Serve.client_request]) ride out the sheds
     without surfacing them.

   Any violated invariant exits 1: this is a benchmark and a regression
   gate in one, same as bench_parallel's determinism checks.

   Run: dune exec bench/bench_serve.exe [--smoke] *)

let smoke = Array.exists (String.equal "--smoke") Sys.argv
let flood_clients = if smoke then 4 else 8
let requests_per_client = if smoke then 3 else 10
let burst_rounds = if smoke then 2 else 3
let burst_size = 8
let burst_queue = 4
let status_latency_budget_ms = 5000.0

(* --- small plumbing ----------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let wait_for ?(timeout = 10.) pred =
  let deadline = Clock.now () +. timeout in
  let rec go () =
    if pred () then true
    else if Clock.now () > deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send_raw fd s =
  let b = Bytes.of_string s in
  let rec go pos =
    if pos < Bytes.length b then go (pos + Unix.write fd b pos (Bytes.length b - pos))
  in
  go 0

let recv_line ?(timeout = 60.) fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Clock.now () +. timeout in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> Some (String.sub s 0 i)
    | None ->
      let left = deadline -. Clock.now () in
      if left <= 0.0 then None
      else (
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> None
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let spawn_daemon ~socket serve =
  (* Children must not inherit (and later replay) buffered stdout. *)
  flush stdout;
  match Unix.fork () with
  | 0 -> ( try Unix._exit (serve ()) with _ -> Unix._exit 99)
  | pid ->
    if not (wait_for (fun () -> Sys.file_exists socket)) then
      fail "daemon socket %s never appeared" socket;
    pid

(* A parameterless RPC line: [status], [health], [metrics], [shutdown]. *)
let request id meth = Jsonl.(to_string (Obj [ ("id", int id); ("method", Str meth) ]))

let graceful_stop ~socket pid =
  (match Serve.client_call ~socket (request 99 "shutdown") with
  | Ok _ -> ()
  | Error msg -> fail "shutdown request failed: %s" msg);
  match waitpid_eintr pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> fail "daemon exited %d, not 0" n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> fail "daemon died by signal"

let check_request files =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", Jsonl.Num 1.);
         ("method", Jsonl.Str "check");
         ("params", Jsonl.Obj [ ("files", Jsonl.Arr (List.map (fun f -> Jsonl.Str f) files)) ]);
       ])

(* (output, code) of a result response; None for error responses. *)
let result_of line =
  match Jsonl.parse line with
  | Error _ -> None
  | Ok j -> (
    match Jsonl.member "result" j with
    | None -> None
    | Some r -> (
      match (Jsonl.mem_str "output" r, Jsonl.mem_num "code" r) with
      | Some output, Some code -> Some (output, int_of_float code)
      | _ -> None))

let is_shed line =
  match Jsonl.parse line with
  | Ok j -> Jsonl.mem_str "error_code" j = Some "overloaded"
  | Error _ -> false

(* What one-shot `shelley check` prints for [files] — the identity target. *)
let oneshot files =
  let verdicts = Checker.check_files ~jobs:1 files in
  let code = Checker.exit_code verdicts in
  let buf = Buffer.create 256 in
  List.iter (fun (v : Checker.verdict) -> Buffer.add_string buf v.Checker.output) verdicts;
  if code = 0 then Buffer.add_string buf "OK: specification verified\n";
  (Buffer.contents buf, code)

let health_verdict ~socket =
  match Serve.client_call ~socket (request 9 "health") with
  | Error msg -> fail "health failed: %s" msg
  | Ok resp -> (
    match Jsonl.parse resp with
    | Error msg -> fail "unparsable health: %s" msg
    | Ok j -> (
      match Option.bind (Jsonl.member "result" j) (Jsonl.mem_str "health") with
      | Some v -> v
      | None -> fail "health response lacks a verdict: %s" resp))

(* (count, p50, p90, p99, max) of methods.check.<which> from the metrics
   RPC — the daemon-side latency distribution, not a client-side clock. *)
let metrics_quantiles ~socket which =
  match Serve.client_call ~socket (request 10 "metrics") with
  | Error msg -> fail "metrics failed: %s" msg
  | Ok resp -> (
    match Jsonl.parse resp with
    | Error msg -> fail "unparsable metrics: %s" msg
    | Ok j -> (
      let hist =
        Option.bind (Jsonl.member "result" j) (fun r ->
            Option.bind (Jsonl.member "methods" r) (fun m ->
                Option.bind (Jsonl.member "check" m) (Jsonl.member which)))
      in
      match hist with
      | None -> fail "metrics lacks methods.check.%s" which
      | Some h ->
        let f name =
          match Jsonl.mem_num name h with
          | Some v -> int_of_float v
          | None -> fail "metrics check.%s lacks a numeric %s" which name
        in
        (f "count", f "p50", f "p90", f "p99", f "max")))

let load_counter ~socket field =
  match Serve.client_call ~socket (request 7 "status") with
  | Error msg -> fail "status failed: %s" msg
  | Ok resp -> (
    match Jsonl.parse resp with
    | Error msg -> fail "unparsable status: %s" msg
    | Ok j -> (
      match
        Option.bind (Jsonl.member "result" j) (fun r ->
            Option.bind (Jsonl.member "load" r) (Jsonl.mem_num field))
      with
      | Some f -> int_of_float f
      | None -> fail "status lacks load.%s" field))

(* --- the benchmark ------------------------------------------------------------ *)

let () =
  let dir = Filename.temp_file "shelley_bserve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let quick = Filename.concat dir "valve.py" in
  write_file quick Sources.valve;
  let pin = Filename.concat dir "pin.py" in
  write_file pin Sources.valve;
  let expected_out, expected_code = oneshot [ quick ] in
  let pin_out, pin_code = oneshot [ pin ] in
  Printf.printf "serve overload: %d clients x %d requests, burst %d vs queue %d x %d rounds%s\n\n"
    flood_clients requests_per_client burst_size burst_queue burst_rounds
    (if smoke then " [smoke]" else "");

  (* --- Phase 1: parallel-client flood, status probed throughout ------------- *)
  let socket1 = Filename.concat dir "flood.sock" in
  let d1 = spawn_daemon ~socket:socket1 (fun () -> Serve.serve ~socket:socket1 ~jobs:2 ~max_queue:16 ()) in
  let t0 = Clock.now () in
  flush stdout;
  let clients =
    List.init flood_clients (fun _ ->
        match Unix.fork () with
        | 0 ->
          let req = check_request [ quick ] in
          for _ = 1 to requests_per_client do
            match Serve.client_request ~socket:socket1 req with
            | Error (`Unreachable _) -> Unix._exit 2
            | Error (`Overloaded _) -> Unix._exit 4
            | Ok line -> (
              match result_of line with
              | Some (out, code) when out = expected_out && code = expected_code -> ()
              | Some _ -> Unix._exit 3 (* wrong bytes *)
              | None -> Unix._exit 5 (* unexpected structured error *))
          done;
          Unix._exit 0
        | pid -> pid)
  in
  (* Probe status and health while the flood runs: both are answered at
     read time, bypassing the admission queue, so both share the same
     latency budget however deep the backlog is. *)
  let latencies = ref [] in
  let health_latencies = ref [] in
  let live = ref clients in
  while !live <> [] do
    live :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _, Unix.WEXITED 0 -> false
          | _, Unix.WEXITED n -> fail "flood client exited %d (2=unreachable 3=bytes 4=shed-exhausted 5=protocol)" n
          | _, _ -> fail "flood client died by signal"
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
        !live;
    if !live <> [] then begin
      let p0 = Clock.now () in
      (match Serve.client_call ~socket:socket1 (request 8 "status") with
      | Ok _ -> latencies := (Clock.now () -. p0) *. 1000. :: !latencies
      | Error msg -> fail "status probe failed mid-flood: %s" msg);
      let h0 = Clock.now () in
      ignore (health_verdict ~socket:socket1);
      health_latencies := (Clock.now () -. h0) *. 1000. :: !health_latencies;
      Unix.sleepf 0.05
    end
  done;
  let flood_wall = Clock.now () -. t0 in
  let flood_sheds = load_counter ~socket:socket1 "shed" in
  let total_requests = flood_clients * requests_per_client in
  (* The daemon-side latency distribution, via the metrics RPC: the whole
     flood is in the check histograms, and the quantiles must be real. *)
  let q_count, q_p50, q_p90, q_p99, q_max = metrics_quantiles ~socket:socket1 "queue_ms" in
  let e_count, e_p50, e_p90, e_p99, e_max = metrics_quantiles ~socket:socket1 "exec_ms" in
  if e_count < total_requests then
    fail "metrics exec histogram has %d entries, expected at least %d" e_count
      total_requests;
  (* The queue histogram also counts refusals, so it can only be larger. *)
  if q_count < e_count then
    fail "metrics queue histogram has %d entries, fewer than exec's %d" q_count e_count;
  graceful_stop ~socket:socket1 d1;
  let latency_max = List.fold_left Float.max 0.0 !latencies in
  let latency_mean =
    match !latencies with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  if latency_max > status_latency_budget_ms then
    fail "status latency %.1f ms exceeds the %.0f ms budget" latency_max
      status_latency_budget_ms;
  let health_latency_max = List.fold_left Float.max 0.0 !health_latencies in
  if health_latency_max > status_latency_budget_ms then
    fail "health latency %.1f ms exceeds the %.0f ms budget" health_latency_max
      status_latency_budget_ms;
  Printf.printf
    "  flood: %d requests in %.2f s (%.1f req/s), %d shed-and-retried, every \
     response byte-identical\n"
    total_requests flood_wall
    (float_of_int total_requests /. flood_wall)
    flood_sheds;
  Printf.printf "  status under flood: %d probes, max %.1f ms, mean %.1f ms (budget %.0f ms)\n"
    (List.length !latencies) latency_max latency_mean status_latency_budget_ms;
  Printf.printf "  health under flood: %d probes, max %.1f ms (same budget)\n"
    (List.length !health_latencies) health_latency_max;
  Printf.printf
    "  daemon-side check latency (metrics RPC): queue p50/p90/p99/max %d/%d/%d/%d ms, \
     exec p50/p90/p99/max %d/%d/%d/%d ms over %d dispatches\n\n"
    q_p50 q_p90 q_p99 q_max e_p50 e_p90 e_p99 e_max e_count;

  (* --- Phase 2: deterministic sheds under a pinned worker ------------------- *)
  (* The fault seam slows only pin.py; the daemon inherits the armed state
     at fork, the parent disarms immediately after. *)
  let socket2 = Filename.concat dir "burst.sock" in
  Checker.fault_injection := true;
  Unix.putenv "SHELLEY_FAULT" "slow:pin.py";
  (* A short health window lets the run observe the overloaded -> ok flip
     after the storm without waiting out the 10 s default. *)
  let health_window = 2.0 in
  let d2 =
    spawn_daemon ~socket:socket2 (fun () ->
        Serve.serve ~socket:socket2 ~jobs:1 ~max_queue:burst_queue
          ~health_window ())
  in
  Checker.fault_injection := false;
  Unix.putenv "SHELLEY_FAULT" "";
  let expected_sheds = burst_size - burst_queue in
  let sheds_per_round =
    List.init burst_rounds (fun round ->
        (* Register every connection while the daemon is idle: accepts
           happen in connect order, so once the last one answers status
           they all exist. Then pin the single worker and fire the burst
           while it is blocked — every burst request is buffered before
           the daemon's next admission round, so exactly burst - queue of
           them shed. *)
        let pin_fd = raw_connect socket2 in
        let conns = List.init burst_size (fun _ -> raw_connect socket2) in
        let last = List.nth conns (burst_size - 1) in
        send_raw last (request 0 "status" ^ "\n");
        (match recv_line last with
        | Some _ -> ()
        | None -> fail "burst handshake failed (round %d)" round);
        send_raw pin_fd (check_request [ pin ] ^ "\n");
        Unix.sleepf 0.2;
        List.iter (fun fd -> send_raw fd (check_request [ quick ] ^ "\n")) conns;
        (* Full backlog: the queue is loaded behind a pinned worker and the
           overflow just shed. health must still answer within the status
           budget, and must say overloaded. *)
        let h0 = Clock.now () in
        let verdict = health_verdict ~socket:socket2 in
        let h_ms = (Clock.now () -. h0) *. 1000. in
        if h_ms > status_latency_budget_ms then
          fail "health at full backlog took %.1f ms (budget %.0f, round %d)" h_ms
            status_latency_budget_ms round;
        if verdict <> "overloaded" then
          fail "health at full backlog said %S, expected overloaded (round %d)" verdict
            round;
        let responses =
          List.map
            (fun fd ->
              match recv_line fd with
              | Some line -> line
              | None -> fail "a burst client got no response (round %d)" round)
            conns
        in
        let sheds = List.filter is_shed responses in
        List.iter
          (fun line ->
            if not (is_shed line) then
              match result_of line with
              | Some (out, code) when out = expected_out && code = expected_code -> ()
              | _ -> fail "an admitted burst request lost byte-identity (round %d)" round)
          responses;
        List.iter
          (fun line ->
            match Jsonl.parse line with
            | Ok j when Jsonl.mem_num "retry_after_ms" j <> None -> ()
            | _ -> fail "a shed lacks its retry_after_ms hint (round %d)" round)
          sheds;
        (match recv_line pin_fd with
        | Some line -> (
          match result_of line with
          | Some (out, code) when out = pin_out && code = pin_code -> ()
          | _ -> fail "the pinned request lost byte-identity (round %d)" round)
        | None -> fail "the pinned request got no response (round %d)" round);
        List.iter Unix.close (pin_fd :: conns);
        List.length sheds)
  in
  List.iteri
    (fun i n ->
      if n <> expected_sheds then
        fail "round %d shed %d requests, expected exactly %d" i n expected_sheds)
    sheds_per_round;
  let counted = load_counter ~socket:socket2 "shed" in
  if counted <> burst_rounds * expected_sheds then
    fail "serve.shed says %d, expected %d" counted (burst_rounds * expected_sheds);
  Printf.printf "  bursts: %d rounds of %d vs queue %d — exactly %d shed each round\n"
    burst_rounds burst_size burst_queue expected_sheds;

  (* --- Recovery: one plain self-healing request after the storm ------------- *)
  (match Serve.client_request ~socket:socket2 (check_request [ quick ]) with
  | Ok line -> (
    match result_of line with
    | Some (out, code) when out = expected_out && code = expected_code -> ()
    | _ -> fail "post-overload request lost byte-identity")
  | Error _ -> fail "post-overload request failed");
  (* Once the window passes with no fresh sheds, the verdict flips back. *)
  Unix.sleepf (health_window +. 0.5);
  (match health_verdict ~socket:socket2 with
  | "ok" -> ()
  | v -> fail "health after the storm said %S, expected ok" v);
  graceful_stop ~socket:socket2 d2;
  Printf.printf
    "  recovery: post-overload response byte-identical, health overloaded -> ok — OK\n";

  let ms = Bench_json.fixed 2 in
  let quantiles count p50 p90 p99 top =
    Jsonl.(Obj [ ("count", int count); ("p50", int p50); ("p90", int p90); ("p99", int p99);
                 ("max", int top) ])
  in
  Bench_json.write "BENCH_serve.json"
    Jsonl.(
      Obj
        [ ("benchmark", Str "serve_overload"); ("smoke", Bool smoke);
          ( "flood",
            Obj
              [ ("clients", int flood_clients); ("requests_per_client", int requests_per_client);
                ("wall_seconds", Bench_json.fixed 6 flood_wall);
                ("throughput_rps", Bench_json.fixed 1 (float_of_int total_requests /. flood_wall));
                ("sheds_absorbed_by_retry", int flood_sheds); ("clients_failed", int 0);
                ("status_probes", int (List.length !latencies));
                ("status_latency_max_ms", ms latency_max);
                ("status_latency_mean_ms", ms latency_mean);
                ("status_latency_budget_ms", Num status_latency_budget_ms) ] );
          ( "latency_ms",
            Obj [ ("source", Str "metrics_rpc");
                  ("check_queue", quantiles q_count q_p50 q_p90 q_p99 q_max);
                  ("check_exec", quantiles e_count e_p50 e_p90 e_p99 e_max) ] );
          ( "health",
            Obj [ ("probes_under_flood", int (List.length !health_latencies));
                  ("latency_max_ms", ms health_latency_max);
                  ("overloaded_at_full_backlog", Bool true);
                  ("recovered_ok", Bool true) ] );
          ( "burst",
            Obj [ ("rounds", int burst_rounds); ("burst_size", int burst_size);
                  ("max_queue", int burst_queue);
                  ("sheds_per_round_expected", int expected_sheds);
                  ("sheds_per_round", Arr (List.map int sheds_per_round));
                  ("deterministic", Bool true) ] );
          ("byte_identity_under_load", Bool true); ("recovery_byte_identical", Bool true) ]);
  Printf.printf "\nwrote BENCH_serve.json; all overload invariants held\n";
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  rm dir
