"""Known-positive corpus for the lock-discipline rules."""


class BadStrategy:
    serializes_stripes = True

    def apply_update(self, key, offset, data):
        # RMW with no serialize_stripe wrapper anywhere in the method.
        yield from self.rmw_forward_locked(key, offset, data, "apply")  # lock-rmw-unserialized

    def nested_wrap(self, key):
        yield from self.serialize_stripe(
            key,
            self.serialize_stripe(key, self._body_locked(key)),  # lock-nested-serialize
        )

    def _update_locked(self, key):
        # Already under the lock by naming convention: re-wrapping
        # self-deadlocks, and the RPC stretches the critical section.
        yield from self.serialize_stripe(key, self._body_locked(key))  # lock-nested-serialize
        yield from self.osd.rpc("peer", "ship", {})  # lock-yield-while-locked
        yield self.osd.fan_out([("peer", "ship", {}, 8)])  # lock-yield-while-locked

    def blocking_in_wrapper_body(self, key, data):
        yield from self.serialize_stripe(
            key, self.sim.sleep(1.0)  # lock-yield-while-locked
        )

    def _flip_locked(self, key):
        # Fencing on a migrating stripe parks the op for the whole copy
        # window — never while holding the stripe lock.
        yield from self.client._migration_wait(0, [0])  # lock-yield-while-locked

    def unlocked_body(self, key, data):
        # Closed scope: the body is not a `*_locked` call, so whatever it
        # waits on is out of the rules' sight.
        yield from self.serialize_stripe(
            key, self._apply(key, data)  # lock-yield-while-locked
        )

    def _ship_locked(self, key, data):
        # Closed scope: delegating to a helper that is not `*_locked`
        # hides its waits behind a call.
        yield from self.osd.store.write_range(key, 0, data)
        yield from self._pace(key)  # lock-yield-while-locked

    def _forward_locked(self, key, data):
        # Issuing under the lock is fine; waiting on the issued event
        # before the critical section ends holds the lock across the
        # round trip.
        sent = self.osd.fan_out([("peer", "ship", {}, 8)])
        yield from self.osd.store.write_range(key, 0, data)
        yield sent  # lock-yield-while-locked
