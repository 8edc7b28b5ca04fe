"""Suppression corpus: every allow() here is itself a finding."""


class Host:
    def register_handlers(self):
        # repro-lint: allow(rpc-dead-handler)
        self.register("probe", self._h_probe)
        # repro-lint: allow(rpc-dead-handler) -- nothing on the next line is a handler
        self.started = True
        # repro-lint: allow(no-such-rule) -- suppresses the wrong rule, so both fire
        self.register("drill", self._h_drill)
