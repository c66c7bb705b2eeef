(* Runtime verification: drive a (simulated) valve device through the same
   model that static verification used.

   The scenario: a field device runs a driver loop; we guard every call with
   the Monitor so that ordering bugs are caught the moment they happen, with
   the allowed alternatives in the error message. Scenarios are generated by
   sampling the model itself (the model as a test generator) and by a
   hand-written buggy driver. Finally the model is exported to a .shelley
   file and reloaded, showing that monitoring works against persisted models
   (separate verification/deployment).

   Run with:  dune exec examples/device_sim.exe *)

let () =
  print_endline "=== device simulation: monitoring a valve driver ===\n";
  let result =
    Pipeline.verify_source_exn Sources.valve
  in
  let valve = Option.get (Pipeline.find_model result.Pipeline.models "Valve") in

  (* 1. Generated scenarios: every sampled usage passes the monitor. *)
  let rng = Random.State.make [| 2023 |] in
  let scenarios =
    Sample.many ~state:rng ~target_len:6 ~count:5 (Depgraph.usage_nfa valve)
  in
  print_endline "--- sampled scenarios through the monitor ---";
  List.iteri
    (fun i scenario ->
      let ops = Trace.to_names scenario in
      match Monitor.run valve ops with
      | Ok () ->
        Printf.printf "  scenario %d: %-45s ok\n" (i + 1)
          (if ops = [] then "(device never used)" else String.concat ", " ops)
      | Error msg -> failwith ("sampled scenario rejected: " ^ msg))
    scenarios;

  (* 2. A buggy driver: opens the valve twice. The monitor stops it at the
     exact call and names the alternatives. *)
  print_endline "\n--- buggy driver, step by step ---";
  let buggy = [ "test"; "open"; "open"; "close" ] in
  let rec drive monitor = function
    | [] -> ()
    | op :: rest -> (
      match Monitor.step monitor op with
      | Monitor.Continue monitor' ->
        Format.printf "  %s -> ok; now %a@." op Monitor.pp monitor';
        drive monitor' rest
      | Monitor.Reject { op; allowed } ->
        Format.printf "  %s -> REJECTED (allowed here: %s)@." op
          (String.concat ", " allowed))
  in
  drive (Monitor.start valve) buggy;

  (* 3. A driver that forgets to close: legal prefix, illegal stop. *)
  print_endline "\n--- incomplete driver ---";
  (match Monitor.run valve [ "test"; "open" ] with
  | Ok () -> failwith "should not be a complete usage"
  | Error msg -> Printf.printf "  %s\n" msg);

  (* 4. Temporal claims at runtime: four-valued verdicts along the trace.
     The claim "every open is eventually closed" cannot be definitively
     settled while the device runs, but its presumption flips as calls
     happen — and a protocol violation would make it definitive. *)
  print_endline "\n--- four-valued claim monitoring: G (open -> F close) ---";
  let claim = Ltl_parser.parse "G (open -> F close)" in
  let events = List.map Symbol.intern [ "test"; "open"; "close"; "clean" ] in
  let driver_trace = Trace.of_names [ "test"; "open"; "close"; "test"; "open" ] in
  List.iteri
    (fun i v ->
      let prefix =
        if i = 0 then "(start)" else Symbol.name (List.nth driver_trace (i - 1))
      in
      Format.printf "  %-8s %a@." prefix Ltl_monitor.pp_verdict v)
    (Ltl_monitor.verdict_trajectory ~alphabet:events claim driver_trace);

  (* 5. Deploy the model: export, reload, monitor against the loaded copy. *)
  print_endline "\n--- monitoring against a persisted model ---";
  let path = Filename.temp_file "valve" ".shelley" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Model_io.save ~path valve;
      match Model_io.load ~path with
      | Error msg -> failwith msg
      | Ok loaded ->
        Printf.printf "  loaded %s from %s\n" loaded.Model.name path;
        (match Monitor.run loaded [ "test"; "clean"; "test"; "open"; "close" ] with
        | Ok () -> print_endline "  full maintenance cycle accepted"
        | Error msg -> failwith msg);
        Printf.printf "  loaded model equivalent to extracted: %b\n"
          (Refine.equivalent_protocols valve loaded))
