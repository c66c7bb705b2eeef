# A gather whose tasks drive disjoint fields: projected onto either valve,
# each fork keeps one branch, so no schedule can race.
import uasyncio


@sys
class Valve:
    def __init__(self):
        self.pin = Pin(5, OUT)

    @op_initial
    def open(self):
        self.pin.on()
        return ["close"]

    @op_final
    def close(self):
        self.pin.off()
        return ["open"]


@sys(["a", "b"])
class Pair:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    async def cycle(self):
        await uasyncio.gather(self.a.open(), self.b.open())
        await uasyncio.gather(self.a.close(), self.b.close())
        return ["cycle"]
