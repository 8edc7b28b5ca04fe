"""Known-positive corpus for the rpc rule: a handler nothing sends."""


class Host:
    def register_handlers(self):
        self.register("ping", self._h_ping)
        self.register("orphan", self._h_orphan)  # rpc-dead-handler

    def beat(self):
        yield from self.rpc("peer", "ping", {}, nbytes=8)
