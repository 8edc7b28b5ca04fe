"""Virtual-time storage device: queueing, service-time math, accounting.

A device is a FIFO multi-channel server.  Each I/O claims the
earliest-free channel at issue, holds it for the profile-derived service
time, and updates the operation counters and the wear model.  Time advances
by *projected completion*: the claim fixes the command's completion instant
from per-channel busy-until clocks and the issuing process sleeps until
exactly that instant (one kernel event per command).  A claimed channel
stays busy until the projected instant even if the issuing process is
interrupted — a submitted command completes; the interrupted process simply
stops waiting (``docs/dataplane.md``, "The time plane").

Sequentiality is the caller's to state: every command passes
``pattern="seq"`` (log appends and scans, rebuild writes) or ``"rand"``
(in-place block I/O, scattered regions).  The callers know their access
pattern, so the device keeps no per-zone head to guess it.  ``zone`` and
``offset`` name the on-device location for trace hooks only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.counters import OpCounters, WearModel
from repro.devices.profiles import DeviceProfile
from repro.sim.core import At, Simulator


@dataclass
class IoRequest:
    """A single device command (used by tests and tracing hooks)."""

    op: str  # "read" | "write"
    zone: str
    offset: int
    nbytes: int
    sequential: bool
    overwrite: bool
    service_time: float


class StorageDevice:
    """Base storage device model; see module docstring."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        name: str = "dev",
    ):
        self.sim = sim
        self.profile = profile
        self.name = name
        self.counters = OpCounters()
        self.wear = WearModel(
            page_size=profile.page_size, erase_block=profile.erase_block
        )
        self.trace_hook = None  # optional callable(IoRequest)
        # Per-channel busy-until clocks: the virtual time each channel's
        # last claimed command completes (see _project).
        self._busy = [0.0] * profile.channels
        # Fail-slow state: a service-time multiplier applied inside
        # service_time(), fixed per command at issue.  1.0 == healthy; the
        # multiply is guarded so healthy runs execute the exact float
        # operations of a device that was never degraded.
        self.slow_factor = 1.0

    # ------------------------------------------------------------------
    # fail-slow plane
    # ------------------------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Enter (or deepen) fail-slow: every service time is multiplied
        by ``factor``.  Calling again replaces the previous factor."""
        if factor <= 0:
            raise ValueError(f"degrade factor must be > 0, got {factor!r}")
        self.slow_factor = float(factor)

    def heal(self) -> None:
        """Leave fail-slow; subsequent I/O runs at profile speed."""
        self.slow_factor = 1.0

    # ------------------------------------------------------------------
    # service-time math (pure, unit-testable)
    # ------------------------------------------------------------------
    def service_time(self, op: str, nbytes: int, sequential: bool) -> float:
        """Seconds one channel is busy serving this command."""
        if nbytes < 0:
            raise ValueError("negative I/O size")
        p = self.profile
        if op == "read":
            overhead = p.seq_read_overhead if sequential else p.rand_read_overhead
            bw = p.seq_read_bw if sequential else p.rand_read_bw
        elif op == "write":
            overhead = p.seq_write_overhead if sequential else p.rand_write_overhead
            bw = p.seq_write_bw if sequential else p.rand_write_bw
        else:
            raise ValueError(f"unknown op {op!r}")
        dt = overhead + nbytes / bw
        if self.slow_factor != 1.0:
            dt *= self.slow_factor
        return dt

    # ------------------------------------------------------------------
    # simulated I/O: ``submit_*`` issue a command and return its completion
    # instant; ``read``/``write`` (generators for `yield from` inside
    # processes) issue and then sleep until exactly that instant.
    # ------------------------------------------------------------------
    def submit_read(
        self,
        nbytes: int,
        zone: str = "data",
        offset: int = 0,
        *,
        pattern: str,
    ) -> float:
        """Issue one read now; return the instant it completes.

        Everything a command costs is fixed here — pattern, service time
        (fail-slow factor read at issue), counters, the channel claim.
        Waiting for the returned instant is the caller's separate step.
        """
        sequential = _sequential(pattern)
        dt = self.service_time("read", nbytes, sequential)
        self.counters.record_read(nbytes, sequential)
        if self.trace_hook is not None:
            self._trace("read", zone, offset, nbytes, sequential, False, dt)
        return self._project(dt)

    def submit_write(
        self,
        nbytes: int,
        zone: str = "data",
        offset: int = 0,
        *,
        pattern: str,
        overwrite: bool = False,
    ) -> float:
        """Issue one write now; return the instant it completes
        (``overwrite=True`` marks an in-place update).  See ``submit_read``."""
        sequential = _sequential(pattern)
        dt = self.service_time("write", nbytes, sequential)
        self.counters.record_write(nbytes, sequential, overwrite)
        if self.profile.is_flash:
            self.wear.record_write(nbytes, sequential, overwrite)
        if self.trace_hook is not None:
            self._trace("write", zone, offset, nbytes, sequential, overwrite, dt)
        return self._project(dt)

    def read(
        self,
        nbytes: int,
        zone: str = "data",
        offset: int = 0,
        *,
        pattern: str,
    ):
        """Simulate one read; completes after queueing + service time."""
        yield At(self.submit_read(nbytes, zone, offset, pattern=pattern))

    def write(
        self,
        nbytes: int,
        zone: str = "data",
        offset: int = 0,
        *,
        pattern: str,
        overwrite: bool = False,
    ):
        """Simulate one write; ``overwrite=True`` marks an in-place update."""
        yield At(self.submit_write(
            nbytes, zone, offset, pattern=pattern, overwrite=overwrite
        ))

    def _project(self, dt: float) -> float:
        """Claim a channel for ``dt`` seconds; return the completion instant.

        FIFO multi-channel service: the earliest-free channel serves this
        command, starting at ``now`` if it is already free, else exactly at
        its projected release — the instants a FIFO queue in front of
        ``profile.channels`` servers grants.
        """
        busy = self._busy
        now = self.sim.now
        b = busy[0]
        idx = 0
        for i in range(1, len(busy)):
            v = busy[i]
            if v < b:
                b = v
                idx = i
        start = now if b < now else b
        done = start + dt
        busy[idx] = done
        return done

    # ------------------------------------------------------------------
    def _trace(
        self,
        op: str,
        zone: str,
        offset: int,
        nbytes: int,
        sequential: bool,
        overwrite: bool,
        dt: float,
    ) -> None:
        if self.trace_hook is not None:
            self.trace_hook(
                IoRequest(op, zone, offset, nbytes, sequential, overwrite, dt)
            )


def _sequential(pattern: str) -> bool:
    if pattern == "seq":
        return True
    if pattern == "rand":
        return False
    raise ValueError(f"pattern must be 'seq' or 'rand', got {pattern!r}")
