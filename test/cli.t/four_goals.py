# BadSector with a claim that needs four events: the empty trace refutes it
# on the class, so check answers at once, but lint's SY103 (is the claim
# satisfiable at all?) must explore the sets of goals met so far before it
# finds a trace that meets all four. Under a small --fuel the lint rule runs
# out while the usage and claim verdicts still print.
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


@claim("F a.clean && F b.clean && F a.close && F b.close")
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
