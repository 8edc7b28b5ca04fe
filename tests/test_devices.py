"""Tests for the storage device models."""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import HDD, SSD, HDD_2TB_7200, SSD_DATACENTER_400GB, StorageDevice
from repro.sim import Interrupt, Resource, Simulator
from repro.sim.core import At


def test_ssd_random_small_io_much_slower_than_sequential():
    sim = Simulator()
    ssd = SSD(sim)
    seq = ssd.service_time("write", 4096, sequential=True)
    rand = ssd.service_time("write", 4096, sequential=False)
    assert rand > 2.5 * seq  # the premise the paper exploits


def test_hdd_random_penalty_is_huge():
    sim = Simulator()
    hdd = HDD(sim)
    seq = hdd.service_time("read", 4096, sequential=True)
    rand = hdd.service_time("read", 4096, sequential=False)
    assert rand > 25 * seq


def test_service_time_monotone_in_size():
    sim = Simulator()
    ssd = SSD(sim)
    for seq in (True, False):
        assert ssd.service_time("read", 8192, seq) > ssd.service_time("read", 4096, seq)


def test_service_time_validation():
    sim = Simulator()
    ssd = SSD(sim)
    with pytest.raises(ValueError):
        ssd.service_time("erase", 4096, True)
    with pytest.raises(ValueError):
        ssd.service_time("read", -1, True)


def test_profile_type_enforcement():
    sim = Simulator()
    with pytest.raises(ValueError):
        SSD(sim, profile=HDD_2TB_7200)
    with pytest.raises(ValueError):
        HDD(sim, profile=SSD_DATACENTER_400GB)


def test_auto_classification_by_zone_head():
    sim = Simulator()
    ssd = SSD(sim)
    assert ssd.classify("log", 0, 100) is False  # first touch: random
    assert ssd.classify("log", 100, 50) is True  # continues
    assert ssd.classify("log", 500, 50) is False  # jump
    assert ssd.classify("log", 550, 50) is True


def test_zones_have_independent_heads():
    sim = Simulator()
    ssd = SSD(sim)
    ssd.classify("a", 0, 10)
    ssd.classify("b", 100, 10)
    assert ssd.classify("a", 10, 10) is True
    assert ssd.classify("b", 110, 10) is True


def test_read_write_advance_clock_and_count():
    sim = Simulator()
    ssd = SSD(sim)

    def proc(sim, ssd):
        yield from ssd.write(4096, zone="blk", offset=0, pattern="rand", overwrite=True)
        yield from ssd.read(4096, zone="blk", offset=0, pattern="rand")

    p = sim.process(proc(sim, ssd))
    sim.run()
    assert p.ok
    expected = ssd.service_time("write", 4096, False) + ssd.service_time(
        "read", 4096, False
    )
    assert sim.now == pytest.approx(expected)
    c = ssd.counters
    assert c.write_ops_rand == 1 and c.read_ops_rand == 1
    assert c.overwrite_ops == 1 and c.overwrite_bytes == 4096


def test_channels_parallelize_io():
    sim = Simulator()
    ssd = SSD(sim)
    n = ssd.profile.channels

    def one_io(sim, ssd):
        yield from ssd.read(4096, pattern="rand")

    for _ in range(2 * n):
        sim.process(one_io(sim, ssd))
    sim.run()
    # Two waves of `channels` concurrent commands: twice one service time.
    assert sim.now == pytest.approx(2 * ssd.service_time("read", 4096, False))


def test_hdd_few_channels_serialize():
    sim = Simulator()
    hdd = HDD(sim)
    n = hdd.profile.channels

    def one_io(sim, hdd):
        yield from hdd.read(4096, pattern="rand")

    for _ in range(3 * n):
        sim.process(one_io(sim, hdd))
    sim.run()
    assert sim.now == pytest.approx(3 * hdd.service_time("read", 4096, False))


def test_wear_random_overwrite_erases_more_than_sequential():
    sim = Simulator()
    a, b = SSD(sim, name="a"), SSD(sim, name="b")

    def do(ssd, pattern):
        for i in range(64):
            yield from ssd.write(
                4096, zone="blk", offset=i * 4096, pattern=pattern, overwrite=True
            )

    sim.process(do(a, "rand"))
    sim.process(do(b, "seq"))
    sim.run()
    assert a.erase_ops > 2 * b.erase_ops
    assert a.page_writes > b.page_writes


def test_fresh_append_wear_is_minimal():
    sim = Simulator()
    ssd = SSD(sim)

    def do(ssd):
        for i in range(16):
            yield from ssd.write(
                16384, zone="log", offset=i * 16384, pattern="seq", overwrite=False
            )

    sim.process(do(ssd))
    sim.run()
    # 16*16 KiB / 256 KiB erase blocks = 1 erase-equivalent.
    assert ssd.erase_ops == pytest.approx(1.0)


def test_hdd_has_no_flash_wear():
    sim = Simulator()
    hdd = HDD(sim)

    def do(hdd):
        yield from hdd.write(4096, pattern="rand", overwrite=True)

    sim.process(do(hdd))
    sim.run()
    assert hdd.wear.erase_ops == 0
    assert hdd.counters.overwrite_ops == 1


def test_trace_hook_sees_requests():
    sim = Simulator()
    ssd = SSD(sim)
    seen = []
    ssd.trace_hook = seen.append

    def do(ssd):
        yield from ssd.write(100, zone="z", offset=0, pattern="seq")

    sim.process(do(ssd))
    sim.run()
    assert len(seen) == 1
    assert (seen[0].op, seen[0].nbytes, seen[0].sequential) == ("write", 100, True)


def test_bad_pattern_rejected():
    sim = Simulator()
    ssd = SSD(sim)

    def do(ssd):
        yield from ssd.read(10, pattern="zigzag")

    sim.process(do(ssd))
    with pytest.raises(ValueError):
        sim.run()


# ----------------------------------------------------------------------
# projected completion == an independent FIFO k-server queue
# ----------------------------------------------------------------------
_SUBMIT_LAG = 5e-6  # what a "submit" issuer does before it waits


def _completions(profile, commands, faults, mode):
    """Completion instant of every command on one device.

    ``mode="reference"`` does not use the device's I/O path at all: it runs
    a FIFO queue in front of ``channels`` servers built from
    ``Resource.request``/``release`` (no busy-until clocks) and takes only
    the ``service_time()`` math — fixed when a command is issued — from the
    device object.  ``"blocking"`` goes through ``read``/``write``;
    ``"submit"`` issues with ``submit_*``, does something else for
    ``_SUBMIT_LAG`` and only then waits for the returned instant.
    """
    sim = Simulator()
    dev = StorageDevice(sim, profile)
    servers = Resource(sim, capacity=profile.channels)
    done = {}

    def fault(at, factor):
        yield at
        if factor is None:
            dev.heal()
        else:
            dev.degrade(factor)

    def command(i, at, op, nbytes, sequential):
        yield at
        pattern = "seq" if sequential else "rand"
        if mode == "reference":
            dt = dev.service_time(op, nbytes, sequential)
            yield servers.request()
            yield dt
            servers.release()
            done[i] = sim.now
        elif mode == "blocking":
            io = dev.read if op == "read" else dev.write
            yield from io(nbytes, pattern=pattern)
            done[i] = sim.now
        else:
            submit = dev.submit_read if op == "read" else dev.submit_write
            done[i] = t = submit(nbytes, pattern=pattern)
            yield _SUBMIT_LAG
            if t > sim.now:
                yield At(t)
                assert sim.now == t

    for at, factor in faults:
        sim.process(fault(at, factor))
    for i, cmd in enumerate(commands):
        sim.process(command(i, *cmd))
    sim.run()
    return done


# Issue times on a 10 us grid inside 2 ms: service times are 25-900 us, so
# commands queue, tie on issue instants, and straddle degrade/heal events.
_grid_time = st.integers(0, 200).map(lambda n: n * 1e-5)
_command = st.tuples(
    _grid_time,
    st.sampled_from(["read", "write"]),
    st.integers(0, 256 * 1024),
    st.booleans(),
)
_device_fault = st.tuples(
    _grid_time, st.one_of(st.none(), st.sampled_from([0.5, 2.0, 4.0, 7.5]))
)


@given(
    channels=st.integers(1, 5),
    commands=st.lists(_command, min_size=1, max_size=24),
    faults=st.lists(_device_fault, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_device_completions_match_fifo_k_server_reference(channels, commands, faults):
    profile = dataclasses.replace(SSD_DATACENTER_400GB, channels=channels)
    want = _completions(profile, commands, faults, "reference")
    # The same floats, not approximately — whether the issuer sleeps inside
    # read/write or submits and waits later.
    assert _completions(profile, commands, faults, "blocking") == want
    assert _completions(profile, commands, faults, "submit") == want


def test_interrupted_io_keeps_its_channel_until_the_projected_instant():
    """The interrupt rule: a submitted command completes.  The interrupted
    process stops waiting at once; the channel it claimed stays busy until
    the projected instant, the next command starts exactly there, and once
    that instant has passed nothing of the dead command is left behind."""
    sim = Simulator()
    dev = StorageDevice(sim, dataclasses.replace(SSD_DATACENTER_400GB, channels=1))
    dt = dev.service_time("write", 64 * 1024, False)
    log = []

    def victim():
        try:
            yield from dev.write(64 * 1024, pattern="rand")
            log.append(("victim-done", sim.now))
        except Interrupt:
            log.append(("victim-interrupted", sim.now))

    def writer(tag, at):
        yield at
        yield from dev.write(64 * 1024, pattern="rand")
        log.append((tag, sim.now))

    v = sim.process(victim())

    def killer():
        yield dt / 4
        v.interrupt("crash")

    sim.process(killer())
    sim.process(writer("next", dt / 2))
    sim.process(writer("later", 10 * dt))

    def fire_and_forget():
        # Submitted, never awaited: same rule, nobody was ever waiting.
        yield 20 * dt
        log.append(("submitted-for", dev.submit_write(64 * 1024, pattern="rand")))

    sim.process(fire_and_forget())
    sim.process(writer("behind-unawaited", 20 * dt + dt / 2))
    sim.process(writer("last", 30 * dt))
    sim.run()
    assert log == [
        ("victim-interrupted", dt / 4),
        ("next", dt + dt),  # started at the victim's projected completion
        ("later", 10 * dt + dt),  # idle device: nothing leaked
        ("submitted-for", 20 * dt + dt),
        ("behind-unawaited", 20 * dt + dt + dt),  # queued behind its instant
        ("last", 30 * dt + dt),
    ]
    assert not v.is_alive
    # Accounting is by submission, once per command: the interrupted and
    # the never-awaited command were both issued.
    assert dev.counters.write_ops_rand == 6
    assert dev.counters.write_bytes == 6 * 64 * 1024


def test_project_has_exactly_two_callers_and_read_write_no_cost_logic():
    """Issue and wait are two steps with ONE body: only ``submit_read`` and
    ``submit_write`` claim a channel, and ``read``/``write`` are nothing
    but a sleep until the instant those return."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    call = re.compile(r"\b_project\(")
    sites = [
        f"{path.relative_to(src)}:{line.strip()}"
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text().splitlines()
        if call.search(line) and not line.lstrip().startswith("def ")
    ]
    assert sites == ["devices/base.py:return self._project(dt)"] * 2
    for name in ("read", "write"):
        body = inspect.getsource(getattr(StorageDevice, name))
        assert f"yield At(self.submit_{name}(" in body
        assert not re.search(
            r"service_time|counters|wear|_trace|_project|_resolve_pattern", body
        )
