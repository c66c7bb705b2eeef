(* The serve daemon's one-shot-equivalence contract, proven two ways:
   in-process (Serve.handle_line is a pure string -> string handler, so the
   QCheck property drives it with no socket at all) and end-to-end (a forked
   daemon on a real Unix socket, SIGTERM-ed mid-request, must drain
   gracefully: complete response bytes, exit 0, cache persisted, socket
   unlinked, no orphan workers). *)

open Testutil

(* --- Corpus generation (same shapes as test_cache) ---------------------------- *)

type spec =
  | Valve
  | Bad
  | Broken
  | Gen of Prog.t

let read_sample name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../samples" name; Filename.concat "samples" name ]
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let valve_source = read_sample "valve.py"
let bad_source = read_sample "bad_sector.py"
let broken_source = "@sys\nclass Broken:\n    def oops(self:\n        return [\n"
let driver_alphabet = List.map sym [ "test"; "open"; "close"; "clean" ]

let render_prog p =
  let buf = Buffer.create 256 in
  let pad n = String.make n ' ' in
  let rec stmt indent p =
    match (p : Prog.t) with
    | Call f -> Buffer.add_string buf (pad indent ^ "self.a." ^ Symbol.name f ^ "()\n")
    | Skip -> Buffer.add_string buf (pad indent ^ "print(\"skip\")\n")
    | Return -> Buffer.add_string buf (pad indent ^ "return []\n")
    | Seq (a, b) ->
      stmt indent a;
      stmt indent b
    | If (a, b) ->
      Buffer.add_string buf (pad indent ^ "if self.flag.value():\n");
      stmt (indent + 4) a;
      Buffer.add_string buf (pad indent ^ "else:\n");
      stmt (indent + 4) b
    | Loop a ->
      Buffer.add_string buf (pad indent ^ "while self.flag.value():\n");
      stmt (indent + 4) a
    | Par (a, b) ->
      (* This corpus generator never emits [Par]; render any future use as
         its sequentialization. *)
      stmt indent a;
      stmt indent b
  in
  stmt 8 p;
  Buffer.contents buf

let gen_source p =
  valve_source
  ^ Printf.sprintf
      {|

@sys(["a"])
class Driver:
    def __init__(self):
        self.a = Valve()
        self.flag = Pin(25, IN)

    @op_initial_final
    def run(self):
%s        return []
|}
      (render_prog p)

let source_of = function
  | Valve -> valve_source
  | Bad -> bad_source
  | Broken -> broken_source
  | Gen p -> gen_source p

let spec_name = function
  | Valve -> "valve"
  | Bad -> "bad"
  | Broken -> "broken"
  | Gen p -> "gen " ^ Prog.to_string p

let spec_gen : spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [
      (1, return Valve);
      (1, return Bad);
      (1, return Broken);
      (3, map (fun p -> Gen p) (prog_gen_over driver_alphabet));
    ]

let corpus_gen = QCheck2.Gen.(list_size (int_range 1 4) spec_gen)

let spec_shrink = function
  | Valve -> Seq.empty
  | Bad | Broken -> Seq.return Valve
  | Gen p -> Seq.map (fun p' -> Gen p') (prog_shrink p)

let rec corpus_shrink = function
  | [] -> Seq.empty
  | x :: rest ->
    Seq.append
      (Seq.return rest)
      (Seq.append
         (Seq.map (fun x' -> x' :: rest) (spec_shrink x))
         (Seq.map (fun rest' -> x :: rest') (corpus_shrink rest)))

let corpus_arb =
  arbitrary
    ~print:(fun specs -> String.concat " | " (List.map spec_name specs))
    ~shrink:corpus_shrink corpus_gen

let counter = ref 0

let with_corpus specs f =
  incr counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "shelley_servetest_%d_%d" (Unix.getpid ()) !counter)
  in
  Unix.mkdir dir 0o755;
  let files =
    List.mapi
      (fun i spec ->
        let path = Filename.concat dir (Printf.sprintf "unit_%d.py" i) in
        let oc = open_out_bin path in
        output_string oc (source_of spec);
        close_out oc;
        path)
      specs
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir files)

(* --- handle_line plumbing ----------------------------------------------------- *)

let with_state ?(jobs = 2) ?max_worker_mem ?telemetry ?fake_clock body =
  let st = Serve.make_state ?max_worker_mem ?telemetry ?fake_clock ~jobs () in
  Fun.protect ~finally:(fun () -> Serve.shutdown_state st) (fun () -> body st)

let request ?priority ?deadline_ms files =
  let params =
    [ ("files", Jsonl.Arr (List.map (fun f -> Jsonl.Str f) files)) ]
    @ (match priority with
      | Some p -> [ ("priority", Jsonl.Num (float_of_int p)) ]
      | None -> [])
    @
    match deadline_ms with
    | Some ms -> [ ("deadline_ms", Jsonl.Num ms) ]
    | None -> []
  in
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", Jsonl.Num 1.);
         ("method", Jsonl.Str "check");
         ("params", Jsonl.Obj params);
       ])

let check_request files = request files

(* Extract (output, code) from a result response; fail loudly otherwise. *)
let result_of resp =
  match Jsonl.parse resp with
  | Error msg -> Alcotest.failf "unparsable response: %s" msg
  | Ok j -> (
    match Jsonl.member "result" j with
    | None -> Alcotest.failf "error response: %s" resp
    | Some r -> (
      match (Jsonl.mem_str "output" r, Jsonl.mem_num "code" r) with
      | Some output, Some code -> (output, int_of_float code)
      | _ -> Alcotest.failf "malformed result: %s" resp))

(* What one-shot `shelley check` prints on stdout, from its own engine. *)
let oneshot ?(jobs = 1) files =
  let verdicts = Checker.check_files ~jobs files in
  let code = Checker.exit_code verdicts in
  let buf = Buffer.create 256 in
  List.iter (fun (v : Checker.verdict) -> Buffer.add_string buf v.Checker.output) verdicts;
  if code = 0 then Buffer.add_string buf "OK: specification verified\n";
  (Buffer.contents buf, code)

(* --- The equivalence property -------------------------------------------------- *)

let prop_serve_matches_oneshot =
  qtest_arb "serve check = one-shot check -j 1" ~count:10 corpus_arb (fun specs ->
      with_corpus specs (fun _dir files ->
          with_state @@ fun st ->
          let resp, k = Serve.handle_line st (check_request files) in
          assert (k = `Continue);
          let output, code = result_of resp in
          let exp_output, exp_code = oneshot files in
          (* Telemetry must be invisible on the wire: the same request
             against a recorder-off daemon yields byte-identical response
             bytes. *)
          let resp_off =
            with_state ~telemetry:false @@ fun st_off ->
            fst (Serve.handle_line st_off (check_request files))
          in
          String.equal output exp_output && code = exp_code
          && String.equal resp resp_off))

let with_fault spec f =
  Checker.fault_injection := true;
  Unix.putenv "SHELLEY_FAULT" spec;
  Fun.protect
    ~finally:(fun () ->
      Checker.fault_injection := false;
      Unix.putenv "SHELLEY_FAULT" "")
    f

let prop_serve_matches_oneshot_under_crashes =
  (* With a worker SIGKILL injected on the first unit, the daemon's response
     must still be byte-identical to the pooled one-shot engine under the
     same fault — the crashed unit carries its Worker_crashed block, and the
     response arrives instead of the daemon dying with its worker. *)
  qtest_arb "serve check = one-shot under worker crashes" ~count:6 corpus_arb
    (fun specs ->
      with_corpus specs (fun _dir files ->
          with_fault "crash:unit_0.py" @@ fun () ->
          with_state @@ fun st ->
          let resp, k = Serve.handle_line st (check_request files) in
          assert (k = `Continue);
          let output, code = result_of resp in
          let exp_output, exp_code = oneshot ~jobs:2 files in
          String.equal output exp_output && code = exp_code
          && contains output "WORKER CRASHED"))

(* --- Protocol robustness -------------------------------------------------------- *)

let test_handle_line_robustness () =
  with_state @@ fun st ->
  let errorish line =
    let resp, k = Serve.handle_line st line in
    Alcotest.(check bool) (line ^ ": continues") true (k = `Continue);
    Alcotest.(check bool) (line ^ ": error response") true (contains resp "\"error\"")
  in
  errorish "{not json";
  errorish "{\"id\":1}";
  errorish "{\"id\":1,\"method\":\"frobnicate\"}";
  errorish "{\"id\":1,\"method\":\"check\",\"params\":{\"files\":[]}}";
  (* A missing model file is a per-unit verdict, not a dead daemon. *)
  let resp, _ = Serve.handle_line st (check_request [ "no/such/file.py" ]) in
  let output, code = result_of resp in
  Alcotest.(check int) "unreadable file is code 2" 2 code;
  Alcotest.(check bool) "rendered" true (contains output "cannot read file");
  (* shutdown acknowledges and asks the loop to drain. *)
  let resp, k = Serve.handle_line st "{\"id\":9,\"method\":\"shutdown\"}" in
  Alcotest.(check bool) "shutdown acked" true (contains resp "\"ok\":true");
  Alcotest.(check bool) "drain requested" true (k = `Shutdown)

let test_status_reports_pool () =
  with_state @@ fun st ->
  with_corpus [ Valve ] (fun _dir files ->
      let _ = Serve.handle_line st (check_request files) in
      let resp, _ = Serve.handle_line st "{\"id\":2,\"method\":\"status\"}" in
      match Jsonl.parse resp with
      | Error msg -> Alcotest.failf "unparsable status: %s" msg
      | Ok j ->
        let r = Option.get (Jsonl.member "result" j) in
        Alcotest.(check bool) "pid present" true (Jsonl.mem_num "pid" r <> None);
        let pool = Option.get (Jsonl.member "pool" r) in
        let spawns = int_of_float (Option.get (Jsonl.mem_num "spawns" pool)) in
        Alcotest.(check bool) "workers spawned for the check" true (spawns >= 1))

(* --- Budget parameters ---------------------------------------------------------- *)

(* The stdout and exit code a cram golden pins for [command]: the indented
   lines after "  $ command", up to the next command or prose line, with
   a trailing "  [N]" read as the exit code. *)
let cram_output ~golden command =
  let ic = open_in_bin golden in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
    |> String.split_on_char '\n'
  in
  let rec after = function
    | [] -> Alcotest.failf "%s: no command '%s'" golden command
    | l :: rest when String.equal l ("  $ " ^ command) -> rest
    | _ :: rest -> after rest
  in
  let buf = Buffer.create 256 in
  let rec collect = function
    | l :: rest
      when String.starts_with ~prefix:"  " l && not (String.starts_with ~prefix:"  $ " l)
      -> (
      let text = String.sub l 2 (String.length l - 2) in
      match Scanf.sscanf_opt text "[%d]%!" Fun.id with
      | Some code -> code
      | None ->
        Buffer.add_string buf text;
        Buffer.add_char buf '\n';
        collect rest)
    | _ -> 0
  in
  let code = collect (after lines) in
  (Buffer.contents buf, code)

let budget_request meth files params =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", Jsonl.Num 1.);
         ("method", Jsonl.Str meth);
         ( "params",
           Jsonl.Obj
             (("files", Jsonl.Arr (List.map (fun f -> Jsonl.Str f) files))
             :: List.map (fun (k, v) -> (k, Jsonl.Num (float_of_int v))) params) );
       ])

(* serve's budget parameters reach the engine exactly as the one-shot
   flags do: each response is byte-identical to the one-shot run the cram
   goldens pin. Requests run from the fixture directory so file names
   render as they do there; the pool's workers fork inside it. *)
let test_budget_params () =
  let check = ("../samples", "cli.t/run.t", "check") in
  let lint = ("lint.t", "lint.t/run.t", "lint") in
  let cases =
    [
      (check, [ "bad_sector.py" ], [ ("fuel", 5) ], "shelley check --fuel 5 bad_sector.py");
      ( check,
        [ "bad_sector.py" ],
        [ ("max_states", 2) ],
        "shelley check --max-states 2 bad_sector.py" );
      ( lint,
        [ "redundant.py"; "contradict.py" ],
        [ ("entail_fuel", 1) ],
        "shelley lint --entail-fuel 1 redundant.py contradict.py" );
      ( lint,
        [ "clean.py"; "dead_op.py" ],
        [ ("max_states", 2) ],
        "shelley lint --max-states 2 clean.py dead_op.py" );
    ]
  in
  List.iter
    (fun ((dir, golden, meth), files, params, command) ->
      let exp_output, exp_code = cram_output ~golden command in
      let cwd = Sys.getcwd () in
      Sys.chdir dir;
      let resp =
        Fun.protect
          ~finally:(fun () -> Sys.chdir cwd)
          (fun () ->
            with_state @@ fun st ->
            fst (Serve.handle_line st (budget_request meth files params)))
      in
      let output, code = result_of resp in
      Alcotest.(check string) (command ^ ": output") exp_output output;
      Alcotest.(check int) (command ^ ": code") exp_code code)
    cases

(* --- SIGTERM drain, end to end -------------------------------------------------- *)

let wait_for ?(timeout = 10.) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let test_sigterm_drains_cleanly () =
  with_corpus [ Valve; Bad; Valve ] @@ fun dir files ->
  let socket = Filename.concat dir "d.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let cache =
    match Cache.open_dir cache_dir with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  (* Arm the slow fault before forking so the daemon inherits it: the first
     unit's verification stalls ~1 s, leaving a window to SIGTERM the daemon
     mid-request. *)
  with_fault "slow:unit_0.py" @@ fun () ->
  let daemon =
    match Unix.fork () with
    | 0 -> (
      (* Child: become the daemon. _exit so the test runner's own at_exit
         machinery never runs twice. *)
      try Unix._exit (Serve.serve ~socket ~jobs:2 ~cache ()) with _ -> Unix._exit 99)
    | pid -> pid
  in
  if not (wait_for (fun () -> Sys.file_exists socket)) then
    Alcotest.fail "daemon socket never appeared";
  (* One quick request first (the slow fault only matches unit_0), so the
     workers exist and status can tell us their pids. *)
  (match Serve.client_call ~socket (check_request [ List.nth files 1 ]) with
  | Error msg -> Alcotest.failf "warm-up check failed: %s" msg
  | Ok _ -> ());
  let worker_pids =
    match Serve.client_call ~socket "{\"id\":1,\"method\":\"status\"}" with
    | Error msg -> Alcotest.failf "status failed: %s" msg
    | Ok resp -> (
      match Jsonl.parse resp with
      | Error msg -> Alcotest.failf "unparsable status: %s" msg
      | Ok j ->
        Option.get (Jsonl.member "result" j)
        |> Jsonl.member "workers" |> Option.get |> Jsonl.to_list |> Option.get
        |> List.filter_map Jsonl.to_num |> List.map int_of_float)
  in
  Alcotest.(check bool) "workers live before the drain" true (worker_pids <> []);
  let killer =
    match Unix.fork () with
    | 0 ->
      Unix.sleepf 0.4;
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  (* The check request is in flight when the SIGTERM lands; the drain
     contract says we still receive the complete one-shot-identical bytes. *)
  let resp =
    match Serve.client_call ~socket (check_request files) with
    | Error msg -> Alcotest.failf "check during drain failed: %s" msg
    | Ok resp -> resp
  in
  let output, code = result_of resp in
  let exp_output, exp_code = oneshot files in
  Alcotest.(check string) "drained response byte-identical" exp_output output;
  Alcotest.(check int) "drained code" exp_code code;
  ignore (waitpid_eintr killer);
  (match waitpid_eintr daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d, not 0" n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Alcotest.fail "daemon did not exit cleanly");
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
  (* Finished units' cache entries were flushed before exit. *)
  let entries = ref 0 in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter (fun e -> walk (Filename.concat path e)) (Sys.readdir path)
    else if Filename.check_suffix path ".entry" then incr entries
  in
  walk cache_dir;
  Alcotest.(check bool) "cache entries persisted" true (!entries >= 1);
  (* No orphans: every worker the daemon reported is gone. *)
  List.iter
    (fun pid ->
      match Unix.kill pid 0 with
      | () -> Alcotest.failf "worker %d orphaned by the drain" pid
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
      | exception _ -> ())
    worker_pids

(* --- Admission scheduling (pure) ------------------------------------------------ *)

let submit_ok q ~client ?(priority = 0) ?deadline payload =
  match Admission.submit q ~client ~priority ~deadline ~now:0.0 payload with
  | Admission.Admitted -> ()
  | Admission.Shed _ -> Alcotest.failf "unexpected shed of %s" payload
  | Admission.Expired -> Alcotest.failf "unexpected expiry of %s" payload

let drain_order ?(now = 0.0) q =
  let rec go acc =
    match Admission.next q ~now with
    | Some (_, p) -> go (p :: acc)
    | None -> List.rev acc
  in
  go []

let test_admission_fairness () =
  (* Client 1 floods three requests before clients 2 and 3 queue one and
     two: dispatch interleaves per client instead of draining the flood. *)
  let q = Admission.create ~max_queue:16 in
  submit_ok q ~client:1 "A1";
  submit_ok q ~client:1 "A2";
  submit_ok q ~client:1 "A3";
  submit_ok q ~client:2 "B1";
  submit_ok q ~client:3 "C1";
  submit_ok q ~client:3 "C2";
  Alcotest.(check (list string))
    "round-robin across clients"
    [ "A1"; "B1"; "C1"; "A2"; "C2"; "A3" ]
    (drain_order q)

let test_admission_priority () =
  let q = Admission.create ~max_queue:16 in
  submit_ok q ~client:1 "low1";
  submit_ok q ~client:1 "low2";
  submit_ok q ~client:2 ~priority:5 "high";
  Alcotest.(check (list string))
    "priority preempts arrival and fairness"
    [ "high"; "low1"; "low2" ] (drain_order q)

let test_admission_priority_clamp () =
  (* priority is client-supplied: an absurd value buys no more precedence
     than max_priority, so the flood still round-robins with a client at
     the (clamped-equal) top level instead of starving it. *)
  let q = Admission.create ~max_queue:16 in
  submit_ok q ~client:1 ~priority:1_000_000 "A1";
  submit_ok q ~client:1 ~priority:1_000_000 "A2";
  submit_ok q ~client:1 ~priority:1_000_000 "A3";
  submit_ok q ~client:2 ~priority:Admission.max_priority "B1";
  Alcotest.(check (list string))
    "million-priority flood clamps to max and round-robins"
    [ "A1"; "B1"; "A2"; "A3" ]
    (drain_order q)

let test_admission_aging () =
  (* A queued request gains one effective level per second waited, so even
     a continuous max-priority flood cannot starve the lowest priority. *)
  let q = Admission.create ~max_queue:16 in
  (match
     Admission.submit q ~client:1 ~priority:Admission.min_priority
       ~deadline:None ~now:0.0 "patient"
   with
  | Admission.Admitted -> ()
  | Admission.Shed _ | Admission.Expired -> Alcotest.fail "unexpected refusal");
  (match
     Admission.submit q ~client:2 ~priority:Admission.max_priority
       ~deadline:None ~now:25.0 "vip"
   with
  | Admission.Admitted -> ()
  | Admission.Shed _ | Admission.Expired -> Alcotest.fail "unexpected refusal");
  (* After 25 s queued, patient's effective priority (-10 + 25) beats a
     fresh +10. *)
  Alcotest.(check (list string))
    "aged low-priority request outranks a fresh max-priority one"
    [ "patient"; "vip" ]
    (drain_order ~now:25.0 q);
  (* Without the wait, priority order holds. *)
  let q2 = Admission.create ~max_queue:16 in
  submit_ok q2 ~client:1 ~priority:Admission.min_priority "low";
  submit_ok q2 ~client:2 ~priority:Admission.max_priority "high";
  Alcotest.(check (list string))
    "fresh requests dispatch by priority" [ "high"; "low" ]
    (drain_order q2)

let test_admission_shed () =
  let q = Admission.create ~max_queue:2 in
  submit_ok q ~client:1 "a";
  submit_ok q ~client:2 "b";
  (match Admission.submit q ~client:3 ~priority:0 ~deadline:None ~now:0.0 "c" with
  | Admission.Shed hint ->
    Alcotest.(check int) "hint scales with backlog" 200 hint
  | Admission.Admitted | Admission.Expired -> Alcotest.fail "full queue must shed");
  Alcotest.(check int) "queue untouched by the shed" 2 (Admission.length q)

let test_admission_expiry () =
  let q = Admission.create ~max_queue:16 in
  (* Dead on arrival: the deadline predates submission. *)
  (match Admission.submit q ~client:1 ~priority:0 ~deadline:(Some 1.0) ~now:2.0 "doa" with
  | Admission.Expired -> ()
  | Admission.Admitted | Admission.Shed _ -> Alcotest.fail "past deadline must expire");
  submit_ok q ~client:1 ~deadline:5.0 "mortal";
  submit_ok q ~client:2 "patient";
  Alcotest.(check (list string))
    "deadline passed while queued"
    [ "mortal" ]
    (List.map snd (Admission.expired q ~now:6.0));
  Alcotest.(check (list string)) "patient request survives" [ "patient" ] (drain_order q)

let test_admission_drop_client () =
  let q = Admission.create ~max_queue:16 in
  submit_ok q ~client:1 "a1";
  submit_ok q ~client:1 "a2";
  submit_ok q ~client:2 "b1";
  Alcotest.(check int) "dropped both queued requests" 2 (Admission.drop_client q 1);
  Alcotest.(check (list string)) "other client unaffected" [ "b1" ] (drain_order q)

(* --- Raw-socket plumbing for the degradation tests ------------------------------- *)

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

(* One response line (newline stripped); [None] on timeout or EOF-first. *)
let recv_line ?(timeout = 15.) fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> Some (String.sub s 0 i)
    | None ->
      let left = deadline -. Unix.gettimeofday () in
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

let recv_eof ?(timeout = 10.) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> false
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | _ -> go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let spawn_daemon ~socket serve =
  match Unix.fork () with
  | 0 -> ( try Unix._exit (serve ()) with _ -> Unix._exit 99)
  | pid ->
    if wait_for (fun () -> Sys.file_exists socket) then pid
    else begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_eintr pid);
      Alcotest.fail "daemon socket never appeared"
    end

let graceful_stop ~socket pid =
  (match Serve.client_call ~socket "{\"id\":99,\"method\":\"shutdown\"}" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "shutdown request failed: %s" msg);
  match waitpid_eintr pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d, not 0" n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Alcotest.fail "daemon died by signal"

(* Fork the daemon, run [body], shut down gracefully; SIGKILL it instead if
   [body] fails, so one failing test never leaks a daemon into the next. *)
let with_daemon ~socket serve body =
  let pid = spawn_daemon ~socket serve in
  match body () with
  | () -> graceful_stop ~socket pid
  | exception exn ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_eintr pid);
    raise exn

let status_field ~socket field =
  match Serve.client_call ~socket "{\"id\":7,\"method\":\"status\"}" with
  | Error msg -> Alcotest.failf "status failed: %s" msg
  | Ok resp -> (
    match Jsonl.parse resp with
    | Error msg -> Alcotest.failf "unparsable status: %s" msg
    | Ok j ->
      Option.get (Jsonl.member "result" j)
      |> Jsonl.member "load" |> Option.get |> Jsonl.mem_num field |> Option.get
      |> int_of_float)

(* --- Degradation paths, end to end ----------------------------------------------- *)

let test_oversized_frame () =
  with_corpus [] @@ fun dir _files ->
  let socket = Filename.concat dir "d.sock" in
  with_daemon ~socket
    (fun () -> Serve.serve ~socket ~jobs:1 ~max_frame_bytes:1024 ())
  @@ fun () ->
  (* A complete oversized line. *)
  let fd = raw_connect socket in
  send_raw fd (String.make 2048 'x' ^ "\n");
  (match recv_line fd with
  | Some resp ->
    Alcotest.(check bool) "structured error" true (contains resp "frame_too_large")
  | None -> Alcotest.fail "no response to the oversized frame");
  Alcotest.(check bool) "connection closed" true (recv_eof fd);
  Unix.close fd;
  (* A partial frame already larger than any legal frame: shed without
     waiting for a newline that would only make it bigger. *)
  let fd2 = raw_connect socket in
  send_raw fd2 (String.make 2048 'y');
  (match recv_line fd2 with
  | Some resp ->
    Alcotest.(check bool) "partial shed early" true (contains resp "frame_too_large")
  | None -> Alcotest.fail "no response to the oversized partial");
  Alcotest.(check bool) "partial's connection closed" true (recv_eof fd2);
  Unix.close fd2;
  Alcotest.(check int) "both counted" 2 (status_field ~socket "frames_oversized")

let test_slow_loris_reap () =
  with_corpus [] @@ fun dir _files ->
  let socket = Filename.concat dir "d.sock" in
  with_daemon ~socket
    (fun () -> Serve.serve ~socket ~jobs:1 ~read_deadline:0.3 ())
  @@ fun () ->
  (* An idle connection (no partial frame) must never be reaped... *)
  let idle = raw_connect socket in
  (* ...while a connection that starts a frame and stalls must be. *)
  let loris = raw_connect socket in
  send_raw loris "{\"id\":1,";
  (match recv_line ~timeout:10. loris with
  | Some resp ->
    Alcotest.(check bool) "structured reap" true (contains resp "read_timeout")
  | None -> Alcotest.fail "slow-loris connection never reaped");
  Alcotest.(check bool) "loris closed" true (recv_eof loris);
  Unix.close loris;
  (* The idle connection outlived the reap and still gets served. *)
  send_raw idle "{\"id\":2,\"method\":\"status\"}\n";
  (match recv_line idle with
  | Some resp ->
    Alcotest.(check bool) "idle conn survived and counted the reap" true
      (contains resp "\"conns_reaped\":1")
  | None -> Alcotest.fail "idle connection was wrongly reaped");
  Unix.close idle

let test_connection_cap () =
  with_corpus [] @@ fun dir _files ->
  let socket = Filename.concat dir "d.sock" in
  with_daemon ~socket (fun () -> Serve.serve ~socket ~jobs:1 ~max_conns:2 ())
  @@ fun () ->
  let a = raw_connect socket in
  let b = raw_connect socket in
  (* A status round-trip on [a] proves both accepts are registered, so the
     third connect below is deterministically over the cap. *)
  send_raw a "{\"id\":1,\"method\":\"status\"}\n";
  (match recv_line a with
  | Some _ -> ()
  | None -> Alcotest.fail "status handshake failed");
  let c = raw_connect socket in
  (match recv_line c with
  | Some resp ->
    Alcotest.(check bool) "retryable structured refusal" true
      (contains resp "overloaded");
    Alcotest.(check bool) "refusal carries a retry hint" true
      (contains resp "retry_after_ms")
  | None -> Alcotest.fail "no refusal on the over-cap connection");
  Alcotest.(check bool) "over-cap connection closed" true (recv_eof c);
  Unix.close c;
  (* The accepted connections are unharmed, and the refusal was counted. *)
  send_raw b "{\"id\":2,\"method\":\"status\"}\n";
  (match recv_line b with
  | Some resp ->
    Alcotest.(check bool) "accepted conns survive; rejection counted" true
      (contains resp "\"conns_rejected\":1")
  | None -> Alcotest.fail "accepted connection wedged by the refusal");
  Unix.close a;
  Unix.close b

let test_queue_full_shed () =
  with_corpus [ Valve ] @@ fun dir files ->
  let socket = Filename.concat dir "d.sock" in
  let slow_file = List.hd files in
  with_fault "slow:unit_0.py" @@ fun () ->
  with_daemon ~socket (fun () -> Serve.serve ~socket ~jobs:1 ~max_queue:1 ())
  @@ fun () ->
  let a = raw_connect socket
  and b = raw_connect socket
  and c = raw_connect socket in
  (* Accepts happen in connect order: once C answers a status request, all
     three connections are registered, so B's and C's requests below are
     guaranteed to contend in the same admission round. *)
  send_raw c "{\"id\":0,\"method\":\"status\"}\n";
  (match recv_line c with
  | Some _ -> ()
  | None -> Alcotest.fail "status handshake failed");
  (* A occupies the single worker (the slow fault stalls it ~1 s)... *)
  send_raw a (check_request [ slow_file ] ^ "\n");
  Unix.sleepf 0.4;
  (* ...so B and C are both buffered when the daemon next reads: both are
     admitted in the same round, the queue holds one, exactly one sheds. *)
  send_raw b (check_request [ slow_file ] ^ "\n");
  send_raw c (check_request [ slow_file ] ^ "\n");
  (match recv_line a with
  | Some resp ->
    let _, code = result_of resp in
    Alcotest.(check int) "the in-flight request completed" 0 code
  | None -> Alcotest.fail "A never answered");
  let rb = recv_line b
  and rc = recv_line c in
  let is_shed = function
    | Some resp -> contains resp "\"error_code\":\"overloaded\""
    | None -> false
  in
  Alcotest.(check int)
    "exactly one of the two sheds" 1
    (List.length (List.filter is_shed [ rb; rc ]));
  List.iter
    (fun r ->
      match r with
      | Some resp when is_shed r ->
        Alcotest.(check bool) "shed carries code 4" true (contains resp "\"code\":4");
        Alcotest.(check bool)
          "shed carries a retry hint" true
          (contains resp "\"retry_after_ms\":")
      | Some resp ->
        let _, code = result_of resp in
        Alcotest.(check int) "the admitted request completed" 0 code
      | None -> Alcotest.fail "a flood client never answered")
    [ rb; rc ];
  Alcotest.(check int) "shed counted" 1 (status_field ~socket "shed");
  List.iter Unix.close [ a; b; c ]

let test_queued_deadline_expiry () =
  with_corpus [ Valve ] @@ fun dir files ->
  let socket = Filename.concat dir "d.sock" in
  let slow_file = List.hd files in
  with_fault "slow:unit_0.py" @@ fun () ->
  with_daemon ~socket (fun () -> Serve.serve ~socket ~jobs:1 ~max_queue:8 ())
  @@ fun () ->
  let a = raw_connect socket
  and b = raw_connect socket
  and c = raw_connect socket in
  (* Same handshake as the shed test: all three registered before the flood. *)
  send_raw c "{\"id\":0,\"method\":\"status\"}\n";
  (match recv_line c with
  | Some _ -> ()
  | None -> Alcotest.fail "status handshake failed");
  (* A occupies the worker; B (higher priority) is guaranteed the next
     dispatch slot; C's 100 ms queue budget therefore expires while B's
     slow verification runs. *)
  send_raw a (check_request [ slow_file ] ^ "\n");
  Unix.sleepf 0.4;
  send_raw b (request ~priority:1 [ slow_file ] ^ "\n");
  send_raw c (request ~deadline_ms:100. [ slow_file ] ^ "\n");
  (match recv_line c with
  | Some resp ->
    Alcotest.(check bool) "expired, not run" true (contains resp "\"error_code\":\"expired\"");
    Alcotest.(check bool) "expiry is exit 3" true (contains resp "\"code\":3")
  | None -> Alcotest.fail "C never answered");
  List.iter
    (fun fd ->
      match recv_line fd with
      | Some resp ->
        let _, code = result_of resp in
        Alcotest.(check int) "dispatched request completed" 0 code
      | None -> Alcotest.fail "a dispatched request never answered")
    [ a; b ];
  Alcotest.(check int) "expiry counted" 1 (status_field ~socket "expired");
  List.iter Unix.close [ a; b; c ]

let test_worker_mem_cap () =
  (* A ballooning verification under --max-worker-mem dies on a catchable
     Out_of_memory inside the worker and is rendered as a resource-limit
     verdict (exit 3) — same class as running out of fuel, not a crash.
     512 MiB sits comfortably above the OCaml runtime's own reservations
     and far below the balloon's 4 GiB bound. *)
  with_corpus [ Valve ] @@ fun _dir files ->
  with_fault "balloon:unit_0.py" @@ fun () ->
  with_state ~jobs:1 ~max_worker_mem:512 @@ fun st ->
  let resp, _ = Serve.handle_line st (check_request files) in
  let output, code = result_of resp in
  Alcotest.(check int) "resource-limit exit code" 3 code;
  Alcotest.(check bool)
    "classified, not crashed" true
    (contains output "RESOURCE LIMIT EXCEEDED");
  Alcotest.(check bool)
    "names the cap" true
    (contains output "worker address space MiB (limit 512)");
  Alcotest.(check bool) "not a worker crash" false (contains output "WORKER CRASHED")

let test_client_request_backoff () =
  (* Against a socket nobody listens on: the retry loop must consume its
     whole budget with capped exponential backoff before reporting
     unreachable. The sleep seam records the waits. *)
  let sleeps = ref [] in
  let sleep s = sleeps := s :: !sleeps in
  match
    Serve.client_request ~socket:"/nonexistent/shelley-test.sock" ~retries:3
      ~backoff_base_ms:10 ~backoff_cap_ms:40 ~sleep "{\"id\":1,\"method\":\"status\"}"
  with
  | Ok _ -> Alcotest.fail "connected to a nonexistent socket?"
  | Error (`Overloaded _) -> Alcotest.fail "misclassified as overloaded"
  | Error (`Unreachable (attempts, _)) ->
    Alcotest.(check int) "whole budget consumed" 4 attempts;
    let waits = List.rev !sleeps in
    Alcotest.(check int) "one backoff per retry" 3 (List.length waits);
    (* Expected bases 10, 20, 40 ms; jitter multiplies by [0.75, 1.25). *)
    List.iteri
      (fun i w ->
        let base = float_of_int (10 * (1 lsl i)) /. 1000.0 in
        Alcotest.(check bool)
          (Printf.sprintf "wait %d within jitter band" i)
          true
          (w >= base *. 0.75 && w <= base *. 1.25))
      waits

(* --- Telemetry: metrics and health RPCs -------------------------------------------- *)

let json_path resp path =
  match Jsonl.parse resp with
  | Error msg -> Alcotest.failf "unparsable response: %s" msg
  | Ok j ->
    List.fold_left
      (fun acc k -> match acc with None -> None | Some v -> Jsonl.member k v)
      (Some j) path

let num_at resp path =
  match json_path resp path with
  | Some (Jsonl.Num n) -> int_of_float n
  | _ -> Alcotest.failf "no number at %s in %s" (String.concat "." path) resp

let str_at resp path =
  match json_path resp path with
  | Some (Jsonl.Str s) -> s
  | _ -> Alcotest.failf "no string at %s in %s" (String.concat "." path) resp

let test_metrics_rpc () =
  with_corpus [ Valve ] @@ fun _dir files ->
  with_state ~fake_clock:true @@ fun st ->
  ignore (Serve.handle_line st (check_request files));
  ignore (Serve.handle_line st (check_request files));
  let resp, k = Serve.handle_line st "{\"id\":7,\"method\":\"metrics\"}" in
  Alcotest.(check bool) "continues" true (k = `Continue);
  Alcotest.(check string)
    "schema" "shelley.serve-metrics/1"
    (str_at resp [ "result"; "schema" ]);
  Alcotest.(check string) "fake clock" "fake" (str_at resp [ "result"; "clock" ]);
  (* Two serial requests under the fake clock: every queue and exec wait is
     exactly one tick, so the whole distribution collapses onto 1 ms. *)
  let check_hist which =
    let at f = num_at resp [ "result"; "methods"; "check"; which; f ] in
    Alcotest.(check int) (which ^ " count") 2 (at "count");
    Alcotest.(check int) (which ^ " p50") 1 (at "p50");
    Alcotest.(check int) (which ^ " p99") 1 (at "p99");
    Alcotest.(check int) (which ^ " max") 1 (at "max")
  in
  check_hist "queue_ms";
  check_hist "exec_ms";
  Alcotest.(check int)
    "both finished ok" 2
    (num_at resp [ "result"; "outcomes"; "ok"; "count" ]);
  (* The ring keeps completion order; the socketless path has no client. *)
  (match json_path resp [ "result"; "recent" ] with
  | Some (Jsonl.Arr entries) ->
    Alcotest.(check int) "ring has both" 2 (List.length entries);
    List.iteri
      (fun i e ->
        let field name =
          match Jsonl.mem_num name e with Some n -> int_of_float n | None -> -99
        in
        Alcotest.(check int) (Printf.sprintf "seq of entry %d" i) (i + 1) (field "seq");
        Alcotest.(check int) (Printf.sprintf "client of entry %d" i) (-1) (field "client");
        Alcotest.(check (option string))
          (Printf.sprintf "outcome of entry %d" i)
          (Some "ok") (Jsonl.mem_str "outcome" e))
      entries
  | _ -> Alcotest.fail "recent missing or not an array");
  (* Lint saw no traffic: empty histograms render null quantiles, not 0s. *)
  match json_path resp [ "result"; "methods"; "lint"; "queue_ms"; "p50" ] with
  | Some Jsonl.Null -> ()
  | _ -> Alcotest.fail "empty histogram p50 should be null"

let test_metrics_rpc_deterministic () =
  (* The acceptance bar for cram pinning: two fresh daemons fed the same
     serial requests produce byte-identical metrics snapshots once worker
     pids (the only real-world leak) are masked. *)
  let snapshot () =
    with_corpus [ Valve ] @@ fun _dir files ->
    with_state ~fake_clock:true @@ fun st ->
    ignore (Serve.handle_line st (check_request files));
    fst (Serve.handle_line st "{\"id\":7,\"method\":\"metrics\"}")
  in
  let mask s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let tag = "\"pid\":" in
    let i = ref 0 in
    while !i < n do
      if !i + String.length tag <= n && String.sub s !i (String.length tag) = tag
      then begin
        Buffer.add_string buf tag;
        i := !i + String.length tag;
        let d0 = !i in
        while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
          incr i
        done;
        if !i > d0 then Buffer.add_char buf '0'
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  Alcotest.(check string)
    "snapshots byte-identical modulo pids" (mask (snapshot ()))
    (mask (snapshot ()))

let test_health_rpc () =
  with_state ~fake_clock:true @@ fun st ->
  let resp, k = Serve.handle_line st "{\"id\":1,\"method\":\"health\"}" in
  Alcotest.(check bool) "continues" true (k = `Continue);
  Alcotest.(check string) "idle daemon is ok" "ok" (str_at resp [ "result"; "health" ]);
  (match json_path resp [ "result"; "reasons" ] with
  | Some (Jsonl.Arr []) -> ()
  | _ -> Alcotest.fail "ok verdict should carry no reasons");
  Alcotest.(check int) "no sheds" 0 (num_at resp [ "result"; "shed" ]);
  Alcotest.(check int) "no expiries" 0 (num_at resp [ "result"; "expired" ])

let test_health_transitions () =
  (* Drive the verdict state machine directly: queue pressure and windowed
     shed/expiry/restart marks, each decaying back to ok once the fake
     clock moves past the window. *)
  let t = Telemetry.create ~fake_clock:true () in
  let verdict ?(depth = 0) ?(cap = 8) () =
    let h, reasons = Telemetry.health t ~queue_depth:depth ~queue_cap:cap ~window_ms:10 in
    (Telemetry.health_label h, reasons)
  in
  let check_verdict name expected got =
    Alcotest.(check (pair string (list string))) name expected got
  in
  let advance_past_window () =
    for _ = 1 to 20 do
      ignore (Telemetry.now_ms t)
    done
  in
  let refuse outcome =
    let p = Telemetry.start t ~id:(Jsonl.Num 1.) ~meth:`Check in
    ignore (Telemetry.finish t p ~outcome ())
  in
  check_verdict "fresh recorder" ("ok", []) (verdict ());
  check_verdict "full queue" ("overloaded", [ "queue_full" ]) (verdict ~depth:8 ());
  check_verdict "half-full queue" ("degraded", [ "queue_backlog" ]) (verdict ~depth:4 ());
  refuse `Shed;
  check_verdict "recent shed" ("overloaded", [ "recent_sheds" ]) (verdict ());
  advance_past_window ();
  check_verdict "shed decays" ("ok", []) (verdict ());
  refuse `Expired;
  check_verdict "recent expiry" ("degraded", [ "recent_expiries" ]) (verdict ());
  advance_past_window ();
  Telemetry.note_restart t;
  check_verdict "recent restart"
    ("degraded", [ "recent_worker_restarts" ])
    (verdict ());
  advance_past_window ();
  check_verdict "restart decays" ("ok", []) (verdict ());
  (* Overload and degradation signals compose: a full queue with a fresh
     expiry reports both reason classes. *)
  refuse `Expired;
  check_verdict "composed reasons"
    ("overloaded", [ "queue_full"; "recent_expiries" ])
    (verdict ~depth:8 ())

let test_shed_outcome_recorded () =
  (* The refusal path feeds the shed histogram and the ring entry carries
     the retry hint — without ever touching the exec histogram. *)
  let t = Telemetry.create ~fake_clock:true () in
  let p = Telemetry.start t ~id:(Jsonl.Num 3.) ~meth:`Check in
  (match Telemetry.finish t p ~outcome:`Shed ~retry_after_ms:50 () with
  | None -> Alcotest.fail "enabled recorder returned no entry"
  | Some e ->
    Alcotest.(check (option int)) "retry hint kept" (Some 50) e.Telemetry.e_retry_after_ms;
    Alcotest.(check int) "never dispatched" 0 e.Telemetry.e_exec_ms);
  let _, exec = List.assoc "check" (List.map (fun (n, q, e) -> (n, (q, e))) (Telemetry.method_hists t)) in
  Alcotest.(check int) "exec histogram untouched" 0 (Histogram.count exec);
  let shed = List.assoc "shed" (Telemetry.outcome_hists t) in
  Alcotest.(check int) "shed histogram fed" 1 (Histogram.count shed)

(* --- Drain with idle clients ------------------------------------------------------ *)

let test_drain_with_idle_clients () =
  with_corpus [] @@ fun dir _files ->
  let socket = Filename.concat dir "d.sock" in
  let daemon = spawn_daemon ~socket (fun () -> Serve.serve ~socket ~jobs:1 ()) in
  match
    let idles = List.init 3 (fun _ -> raw_connect socket) in
    Unix.sleepf 0.3;
    (* connected, no partial frames *)
    Unix.kill daemon Sys.sigterm;
    (match waitpid_eintr daemon with
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n ->
      Alcotest.failf "daemon exited %d with idle clients connected" n
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Alcotest.fail "daemon died by signal");
    Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
    List.iter
      (fun fd ->
        Alcotest.(check bool) "idle client saw a clean EOF" true (recv_eof fd);
        Unix.close fd)
      idles
  with
  | () -> ()
  | exception exn ->
    (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_eintr daemon);
    raise exn

(* --- Suite ---------------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "one-shot equivalence",
        [ prop_serve_matches_oneshot; prop_serve_matches_oneshot_under_crashes ] );
      ( "protocol",
        [
          Alcotest.test_case "handle_line robustness" `Quick test_handle_line_robustness;
          Alcotest.test_case "status reports the pool" `Quick test_status_reports_pool;
          Alcotest.test_case "budget params = one-shot flags" `Quick test_budget_params;
        ] );
      ( "admission",
        [
          Alcotest.test_case "per-client round-robin" `Quick test_admission_fairness;
          Alcotest.test_case "priority levels" `Quick test_admission_priority;
          Alcotest.test_case "priority clamped" `Quick test_admission_priority_clamp;
          Alcotest.test_case "queued requests age" `Quick test_admission_aging;
          Alcotest.test_case "bounded queue sheds" `Quick test_admission_shed;
          Alcotest.test_case "deadline expiry" `Quick test_admission_expiry;
          Alcotest.test_case "disconnected client drops" `Quick test_admission_drop_client;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "slow-loris reap" `Quick test_slow_loris_reap;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
          Alcotest.test_case "queue-full shed" `Quick test_queue_full_shed;
          Alcotest.test_case "queued-deadline expiry" `Quick test_queued_deadline_expiry;
          Alcotest.test_case "worker memory cap" `Quick test_worker_mem_cap;
          Alcotest.test_case "client retry backoff" `Quick test_client_request_backoff;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics RPC snapshot" `Quick test_metrics_rpc;
          Alcotest.test_case "metrics byte-deterministic" `Quick
            test_metrics_rpc_deterministic;
          Alcotest.test_case "health RPC" `Quick test_health_rpc;
          Alcotest.test_case "health verdict transitions" `Quick test_health_transitions;
          Alcotest.test_case "shed outcome recorded" `Quick test_shed_outcome_recorded;
        ] );
      ( "graceful drain",
        [
          Alcotest.test_case "SIGTERM drains cleanly" `Quick test_sigterm_drains_cleanly;
          Alcotest.test_case "idle clients see clean EOF" `Quick
            test_drain_with_idle_clients;
        ] );
    ]
