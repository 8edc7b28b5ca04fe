"""Suppression corpus: every violation here carries a reasoned allow().

Linting this file must produce zero active findings.  The docstring
mention of ``# repro-lint: allow(rpc-dead-handler) -- looks real`` must
NOT count: suppressions live in comments, not strings.
"""


class Host:
    def register_handlers(self):
        # repro-lint: allow(rpc-dead-handler) -- fixture exercising a standalone suppression
        self.register("probe", self._h_probe)
        self.register("drill", self._h_drill)  # repro-lint: allow(rpc-dead-handler) -- fixture exercising same-line suppression
