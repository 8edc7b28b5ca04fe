"""Fixture: malformed and multi-rule suppression comments.

The empty ``allow()`` is a syntax finding (and suppresses nothing, so
the dead handler under it stays active); the space-separated rule list
is valid: the rule that fires on its line is consumed, the other one is
reported unused.
"""


class Host:
    def register_handlers(self):
        # repro-lint: allow() -- forgot to name the rules
        self.register("probe", self._h_probe)
        self.register("drill", self._h_drill)  # repro-lint: allow(rpc-dead-handler no-such-rule) -- fixture: space-separated rule list
