# SY109 ex falso. Rig's first two claims exclude each other on every trace,
# so together they imply the third, whatever it says: the sweep answers that
# question from the pair alone, with no search of its own
# (lint.claims.unsat_hypotheses in --stats).
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

    @op_initial_final
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["open"]


@claim("G !a.open")
@claim("F a.open")
@claim("F (a.close && X X X X X a.close)")
@sys(["a"])
class Rig:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def fire(self):
        self.a.open()
        return []
