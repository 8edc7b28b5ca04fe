"""Known-positive corpus for the hot-path hygiene rules.

Only meaningful when linted with ``HOT_MODULES`` naming this file — the
test patches it to do exactly that.
"""


def transition(self, event):
    label = f"event {event}"  # hot-fstring
    cb = lambda ev: ev.fire()  # noqa: E731  # hot-closure
    pending = [e for e in self.waiting if e.armed]  # hot-alloc
    return label, cb, pending


def formats_percent(self, n):
    return "events: %d" % n  # hot-fstring (%-formatting)


def formats_method(self, n):
    return "events: {}".format(n)  # hot-fstring (str.format)
