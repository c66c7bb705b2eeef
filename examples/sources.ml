(* MicroPython sources shared by the examples and the benchmarks (library
   [paper_listings]) — the paper's listings plus a corrected sector. Kept in
   one module so every example and benchmark runs on exactly the same
   substrate code. *)

(* Listing 2.1. *)
let valve =
  {|
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean = Pin(28, OUT)
        self.status = Pin(29, IN)

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

(* Listing 2.2. *)
let bad_sector =
  {|
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
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                print("a failed")
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                print("b failed")
                self.a.close()
                return []
|}

(* A sector that respects the Valve specification and the claim. *)
let good_sector =
  {|
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class GoodSector:
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

(* Listing 3.1 — the Sector used for the Figure 3 dependency graph. *)
let listing31_sector =
  {|
@sys(["a"])
class Sector:
    def __init__(self):
        self.a = Valve()

    @op_initial
    def open_a(self):
        if self.gauge.ok():
            return ["close_a", "open_b"]
        else:
            return ["clean_a"]

    @op
    def clean_a(self):
        return ["open_a"]

    @op
    def close_a(self):
        return ["open_a"]

    @op_final
    def open_b(self):
        if done:
            return []
        else:
            return []
|}
