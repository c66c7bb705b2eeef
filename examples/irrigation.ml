(* The paper's motivating scenario (§2): a battery-operated wireless
   controller that switches water valves according to an irrigation plan.
   This example builds a three-level hierarchy — Valve/Battery/Radio base
   classes, a Sector composite over two valves, and a Controller composite
   over battery + radio + sector — verifies it, checks two temporal claims,
   and then injects a fault (a report method that forgets to disconnect the
   radio) to show the resulting error.

   Run with:  dune exec examples/irrigation.exe *)

let battery =
  {|
@sys
class Battery:
    def __init__(self):
        self.adc = ADC(0)

    @op_initial
    def check(self):
        if self.adc.read() > 3300:
            return ["ok"]
        else:
            return ["low"]

    @op_final
    def ok(self):
        return ["check"]

    @op_final
    def low(self):
        return ["check"]
|}

let radio =
  {|
@sys
class Radio:
    def __init__(self):
        self.lora = LoRa()

    @op_initial
    def connect(self):
        self.lora.up()
        return ["send", "disconnect"]

    @op
    def send(self):
        self.lora.tx()
        return ["send", "disconnect"]

    @op_final
    def disconnect(self):
        self.lora.down()
        return ["connect"]
|}

let sector =
  {|
@sys(["a", "b"])
class Sector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial
    def start(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                return ["open_a", "drain"]
            case ["clean"]:
                self.b.clean()
                return ["abort"]

    @op
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["shutdown"]
            case ["clean"]:
                self.a.clean()
                return ["drain"]

    @op_final
    def shutdown(self):
        self.a.close()
        self.b.close()
        return ["start"]

    @op_final
    def drain(self):
        self.b.close()
        return ["start"]

    @op_final
    def abort(self):
        return ["start"]
|}

let controller =
  {|
@claim("(!s.open_a) W s.start")
@claim("G (s.start -> F radio.connect)")
@sys(["batt", "radio", "s"])
class Controller:
    def __init__(self):
        self.batt = Battery()
        self.radio = Radio()
        self.s = Sector()

    @op_initial
    def boot(self):
        match self.batt.check():
            case ["ok"]:
                self.batt.ok()
                return ["irrigate"]
            case ["low"]:
                self.batt.low()
                return ["sleep"]

    @op
    def irrigate(self):
        match self.s.start():
            case ["open_a", "drain"]:
                match self.s.open_a():
                    case ["shutdown"]:
                        self.s.shutdown()
                        return ["report"]
                    case ["drain"]:
                        self.s.drain()
                        return ["report"]
            case ["abort"]:
                self.s.abort()
                return ["report"]

    @op_final
    def report(self):
        self.radio.connect()
        self.radio.send()
        self.radio.disconnect()
        return ["boot"]

    @op_final
    def sleep(self):
        return ["boot"]
|}

(* Fault injection: the report method forgets to disconnect the radio. *)
let leaky_controller =
  {|
@sys(["batt", "radio"])
class LeakyController:
    def __init__(self):
        self.batt = Battery()
        self.radio = Radio()

    @op_initial
    def boot(self):
        match self.batt.check():
            case ["ok"]:
                self.batt.ok()
                return ["report"]
            case ["low"]:
                self.batt.low()
                return ["report"]

    @op_final
    def report(self):
        self.radio.connect()
        self.radio.send()
        return ["boot"]
|}

let () =
  print_endline "=== irrigation controller: a three-level hierarchy ===\n";
  let source = Sources.valve ^ battery ^ radio ^ sector ^ controller in
  let result =
    Pipeline.verify_source_exn source
  in
  (match Report.errors result.Pipeline.reports with
  | [] -> print_endline "verified: Valve, Battery, Radio, Sector, Controller — no errors\n"
  | errors ->
    List.iter (fun r -> Format.printf "%a@.@." Report.pp r) errors;
    failwith "irrigation system unexpectedly failed verification");

  (* Model sizes across the hierarchy. *)
  print_endline "--- model inventory ---";
  List.iter
    (fun (m : Model.t) ->
      let usage = Depgraph.usage_nfa m in
      let states, transitions = Nfa.count_states_and_transitions usage in
      let expanded_states, expanded_transitions =
        Nfa.count_states_and_transitions (Usage.expanded_nfa m)
      in
      Format.printf "  %-12s %d ops, usage automaton %d states / %d transitions, \
                     expanded %d states / %d transitions@."
        m.Model.name
        (List.length m.Model.operations)
        states transitions expanded_states expanded_transitions)
    result.Pipeline.models;

  (* A complete mission: boot, irrigate, report. *)
  let controller_model =
    Option.get (Pipeline.find_model result.Pipeline.models "Controller")
  in
  let expanded = Usage.expanded_nfa controller_model in
  print_endline "\n--- one complete mission trace ---";
  (match Nfa.shortest_accepted (Nfa.trim expanded) with
  | Some trace when trace <> [] -> Format.printf "  %s@." (Trace.to_string trace)
  | _ ->
    (* The shortest accepted trace is the empty usage; show a real one. *)
    let words = Nfa.words_upto ~max_len:8 expanded in
    (match Trace.Set.fold (fun w acc -> if w <> [] && acc = None then Some w else acc) words None with
    | Some w -> Format.printf "  %s@." (Trace.to_string w)
    | None -> print_endline "  (none up to length 8)"));

  (* Claims. *)
  print_endline "\n--- claims ---";
  List.iter
    (fun (text, _) -> Format.printf "  holds: %s@." text)
    controller_model.Model.claims;

  (* Fault injection. *)
  print_endline "\n=== fault injection: report without radio.disconnect ===\n";
  let leaky_source = Sources.valve ^ battery ^ radio ^ leaky_controller in
  let leaky =
    Pipeline.verify_source_exn leaky_source
  in
  (match Report.errors leaky.Pipeline.reports with
  | [] -> failwith "expected the leaky controller to fail verification"
  | errors -> List.iter (fun r -> Format.printf "%a@.@." Report.pp r) errors)
