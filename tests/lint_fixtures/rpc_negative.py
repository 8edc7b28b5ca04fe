"""Known-negative corpus for the rpc rule: nothing fires.

Both kinds are sent through one fan-out helper that takes ``kind`` as a
parameter; the literal at each call site keeps its handler alive.
"""


class Strategy:
    def register_handlers(self):
        self.osd.register("fo_apply", self._h_apply)
        self.osd.register("pl_append", self._h_apply)

    def fan_out(self, dst, kind):
        yield from self.osd.rpc(dst, kind, {}, nbytes=8)

    def update_fo(self, dst):
        return self.fan_out(dst, "fo_apply")

    def update_pl(self, dst):
        return self.fan_out(dst, "pl_append")
