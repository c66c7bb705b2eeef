(* A larger case study: a greenhouse irrigation system, three levels deep.

     Greenhouse ──┬── pump  : Pump        (base)
                  ├── timer : Timer       (base)
                  └── z1/z2 : Zone        (composite)
                                ├── moist : MoistureSensor (base)
                                └── v     : Valve          (base)

   Demonstrates, on top of the paper's pipeline:
   - hierarchy: composites used as subsystems of other composites;
   - claims written through the Patterns library and checked both statically
     (claim checking) and dynamically (four-valued monitoring);
   - model metrics (Stats) across the hierarchy;
   - exporting the whole hierarchy for separate verification.

   Run with:  dune exec examples/greenhouse.exe *)

let source =
  Sources.valve
  ^ {|
@sys
class MoistureSensor:
    def __init__(self):
        self.adc = ADC(1)

    @op_initial
    def read(self):
        if self.adc.sample() < 400:
            return ["dry"]
        else:
            return ["wet"]

    @op_final
    def dry(self):
        return ["read"]

    @op_final
    def wet(self):
        return ["read"]

@sys
class Pump:
    def __init__(self):
        self.motor = Pin(5, OUT)

    @op_initial
    def prime(self):
        self.motor.on()
        return ["run"]

    @op
    def run(self):
        return ["stop"]

    @op_final
    def stop(self):
        self.motor.off()
        return ["prime"]

@sys
class Timer:
    def __init__(self):
        self.rtc = RTC()

    @op_initial_final
    def wait(self):
        self.rtc.sleep()
        return ["wait"]

@sys(["moist", "v"])
class Zone:
    def __init__(self):
        self.moist = MoistureSensor()
        self.v = Valve()

    @op_initial
    def sense(self):
        match self.moist.read():
            case ["dry"]:
                self.moist.dry()
                return ["water"]
            case ["wet"]:
                self.moist.wet()
                return ["skip_zone"]

    @op
    def water(self):
        match self.v.test():
            case ["open"]:
                self.v.open()
                self.v.close()
                return ["done_zone"]
            case ["clean"]:
                self.v.clean()
                return ["done_zone"]

    @op_final
    def skip_zone(self):
        return ["sense"]

    @op_final
    def done_zone(self):
        return ["sense"]

@claim("(!z1.water) W z1.sense")
@claim("(!pump.run) W pump.prime")
@claim("G (z1.water -> F pump.stop)")
@sys(["pump", "timer", "z1", "z2"])
class Greenhouse:
    def __init__(self):
        self.pump = Pump()
        self.timer = Timer()
        self.z1 = Zone()
        self.z2 = Zone()

    @op_initial
    def wake(self):
        self.timer.wait()
        return ["irrigate", "standby"]

    @op
    def irrigate(self):
        self.pump.prime()
        self.pump.run()
        match self.z1.sense():
            case ["water"]:
                self.z1.water()
                self.z1.done_zone()
            case ["skip_zone"]:
                self.z1.skip_zone()
        match self.z2.sense():
            case ["water"]:
                self.z2.water()
                self.z2.done_zone()
            case ["skip_zone"]:
                self.z2.skip_zone()
        self.pump.stop()
        return ["standby"]

    @op_final
    def standby(self):
        return ["wake"]
|}

let () =
  print_endline "=== greenhouse: a three-level verified hierarchy ===\n";
  let result =
    Pipeline.verify_source_exn source
  in
  (match Report.errors result.Pipeline.reports with
  | [] -> print_endline "verified: all six classes, all three claims\n"
  | errors ->
    List.iter (fun r -> Format.printf "%a@.@." Report.pp r) errors;
    failwith "greenhouse unexpectedly failed verification");

  (* Metrics across the hierarchy. *)
  print_endline Stats.header;
  List.iter
    (fun m -> Format.printf "%a@." Stats.pp_row (Stats.of_model m))
    result.Pipeline.models;

  (* The same claims, built through the pattern library, agree with the
     @claim strings. *)
  print_endline "\n--- claims as patterns ---";
  let greenhouse = Option.get (Pipeline.find_model result.Pipeline.models "Greenhouse") in
  let precedence_claim =
    Patterns.precedence ~first:(Symbol.intern "z1.sense") ~before:(Symbol.intern "z1.water")
  in
  (match greenhouse.Model.claims with
  | (text, parsed) :: _ ->
    Format.printf "  @claim(%S) parsed = pattern: %b@." text
      (Ltlf.equal parsed precedence_claim)
  | [] -> failwith "expected claims");

  (* Watch the pump-response claim along one irrigation mission. *)
  print_endline "\n--- four-valued monitoring of G (z1.water -> F pump.stop) ---";
  let response =
    Patterns.response
      ~cause:(Symbol.intern "z1.water")
      ~effect:(Symbol.intern "pump.stop")
  in
  let mission =
    Trace.of_names
      [ "timer.wait"; "pump.prime"; "pump.run"; "z1.water"; "z2.water"; "pump.stop" ]
  in
  let events =
    Symbol.Set.elements
      (Symbol.Set.union (Ltlf.atoms response) (Symbol.Set.of_list mission))
  in
  List.iteri
    (fun i v ->
      let prefix = if i = 0 then "(start)" else Symbol.name (List.nth mission (i - 1)) in
      Format.printf "  %-12s %a@." prefix Ltl_monitor.pp_verdict v)
    (Ltl_monitor.verdict_trajectory ~alphabet:events response mission);

  (* Export every model of the hierarchy for separate verification. *)
  let dir = Filename.temp_file "greenhouse" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (m : Model.t) ->
          Model_io.save ~path:(Filename.concat dir (m.Model.name ^ ".shelley")) m)
        result.Pipeline.models;
      Printf.printf "\nexported %d models to %s (then cleaned up)\n"
        (List.length result.Pipeline.models)
        dir;
      (* Reload and re-verify the Greenhouse source against loaded substrates
         only. *)
      let paths =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> f <> "Greenhouse.shelley")
        |> List.map (Filename.concat dir)
      in
      match Model_io.env_of_files paths with
      | Error msg -> failwith msg
      | Ok env ->
        let reports = Usage.check ~env greenhouse in
        Printf.printf "separate verification of Greenhouse against loaded models: %s\n"
          (if reports = [] then "clean" else "errors!"))
