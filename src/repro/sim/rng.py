"""Named deterministic random streams.

Every stochastic choice in a run (trace generation, placement jitter, device
latency noise) draws from a named stream derived from the experiment seed, so
two runs with the same seed are bit-identical regardless of module import
order or process interleaving.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngStreams:
    """A factory of independent, reproducible ``numpy`` generators.

    ``streams.get("trace")`` always returns the same generator object for a
    given name; distinct names get statistically independent streams seeded
    by ``(seed, crc32(name))``.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            child = np.random.SeedSequence([self.seed, zlib.crc32(name.encode())])
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """A child factory with its own namespace (e.g. per node)."""
        return RngStreams(seed=zlib.crc32(name.encode(), self.seed))


def payload_bytes(gen: np.random.Generator, n: int) -> np.ndarray:
    """``gen.integers(0, 256, n, dtype=np.uint8)``, exactly, in one bulk pull.

    numpy fills ``n`` uint8 draws from ``ceil(n/4)`` 32-bit draws, four
    little-endian bytes each, and PCG64 serves 32-bit draws low half first
    from a raw64, keeping the high half buffered in its state across
    calls.  So the bytes are the pending half (if any), then the
    little-endian bytes of enough raws for the remaining 32-bit draws; an
    odd remainder leaves the last raw's high half buffered.  One
    ``random_raw`` call replaces numpy's per-byte loop (2-3x faster for
    payload sizes); ``tests/test_rng_draws.py`` pins the bytes and the
    stream position against numpy.  The array is fresh and writable: log
    indexes take ownership of payloads.
    """
    out = np.empty(n, dtype=np.uint8)
    if n <= 0:
        return out
    bg = gen.bit_generator
    k32 = (n + 3) >> 2
    pos = 0
    state = bg.state
    pending = state["has_uint32"]
    if pending:
        pos = min(n, 4)
        half = state["uinteger"].to_bytes(4, "little")
        out[:pos] = np.frombuffer(half, dtype=np.uint8, count=pos)
        k32 -= 1
    if k32:
        raws = bg.random_raw((k32 + 1) >> 1)
        out[pos:] = raws.astype("<u8", copy=False).view(np.uint8)[: n - pos]
    odd = k32 & 1
    if pending or odd:
        state = bg.state
        state["has_uint32"] = odd
        if odd:
            state["uinteger"] = int(raws[-1]) >> 32
        bg.state = state
    return out


def skip_payload_bytes(gen: np.random.Generator, n: int) -> None:
    """Move ``gen`` exactly as ``payload_bytes(gen, n)`` would, making no
    bytes: the pending 32-bit half (if any) is consumed, PCG64 ``advance``
    jumps the whole raws, and an odd remainder draws one raw to buffer its
    high half.  The ghost plane's payload draw, and the oracle's seek to a
    byte offset inside a payload (an offset that is a multiple of 4 starts
    a 32-bit draw).
    """
    if n <= 0:
        return
    bg = gen.bit_generator
    k32 = ((n + 3) >> 2) - bg.state["has_uint32"]
    bg.advance(k32 >> 1)  # also drops the pending half
    if k32 & 1:
        high = int(bg.random_raw()) >> 32
        state = bg.state
        state["has_uint32"] = 1
        state["uinteger"] = high
        bg.state = state
