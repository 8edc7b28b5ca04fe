"""Known-negative corpus for the lock-discipline rules: nothing fires.

Includes the rules' deliberate boundaries: a locked body may delegate
to other ``*_locked`` helpers and to device / store I/O through
``self.osd`` (the modelled cost of the RMW), it may *issue* a
``fan_out`` whose wait happens after the critical section, and
log-structured strategies that do not declare ``serializes_stripes``
may write blocks without the lock (appends commute).
"""


class GoodStrategy:
    serializes_stripes = True

    def apply_update(self, key, offset, data):
        yield from self.serialize_stripe(
            key, self.rmw_forward_locked(key, offset, data, "apply")  # wrapped: fine
        )

    def _apply_locked(self, key, offset, data):
        # Under the lock by convention; pure compute + device I/O (the
        # modelled cost of RMW) and a `*_locked` delegate, no blocking
        # yield points.
        yield from self.rmw_forward_locked(key, offset, data, "apply")
        yield from self.osd.device.write(64, zone="blocks")

    def _throttle_locked(self, key, offset, data):
        # Fail-slow degradation/heal are instantaneous state flips, not
        # yield points — legal inside the critical section.
        self.osd.device.degrade(2.0)
        yield from self.rmw_forward_locked(key, offset, data, "apply")
        self.osd.device.heal()

    def forward(self, key, data):
        # Issue under the lock, wait outside it.
        sent = yield from self.serialize_stripe(key, self._issue_locked(key, data))
        yield sent

    def _issue_locked(self, key, data):
        sent = self.osd.fan_out([("peer", "ship", {}, 8)])
        yield from self.osd.store.write_range(key, 0, data)
        return sent

    def drain(self, phase=0):
        # Drain runs behind the harness post-workload barrier: exempt.
        yield from self.rmw_forward_locked(0, 0, None, "apply")


class LogStructured:
    # No serializes_stripes declaration: appends commute, no lock contract
    # on raw block writes.
    def apply_update(self, key, offset, data):
        yield from self.osd.store.write_range(key, offset, data)
