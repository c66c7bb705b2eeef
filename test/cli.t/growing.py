# The corrected sector with a tautological claim. Its progression
# obligations are finitely many Boolean functions of their literals, but
# grow on every step under a normal form that neither absorbs nor
# distributes.
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


@claim("(F b.close) -> F ((F a.open) U (F b.close))")
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
