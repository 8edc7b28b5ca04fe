"""Exact, faster replay of a numpy ``Generator``'s scalar draw sequence.

Workload generation is dominated by *scalar* numpy RNG calls — a tenant
pick, a read/update coin flip, a payload block, a trace offset — issued in
a strict interleaved order that every baseline row's bit-identity depends
on.  numpy's per-call dispatch makes each of those draws cost ~1-2 us (and
``Generator.choice`` ~16 us); the values themselves are cheap.

:class:`DrawCursor` re-implements the *exact* PCG64 consumption of the
scalar call sequence on top of bulk ``BitGenerator.random_raw`` pulls:

* ``random()``       == ``float(gen.random())``            (one raw64)
* ``integers(n)``    == ``int(gen.integers(0, n))``        (Lemire's
  algorithm over the *buffered 32-bit stream* for ranges that fit in 32
  bits — including the persistent low/high half-buffer PCG64 keeps across
  calls — and over raw64 draws above that)
* ``payload(n)``     == ``gen.integers(0, 256, n, dtype=np.uint8)``
  (``ceil(n/4)`` buffered 32-bit pulls, assembled little-endian), served
  as one bulk ``random_raw`` + memcpy instead of a per-byte C loop
* ``skip_payload(n)`` leaves the stream exactly where ``payload(n)`` would
  (``PCG64.advance``), without producing the bytes
* ``weighted_index(cdf)`` == ``gen.choice(len(cdf), p=p)`` for
  ``cdf = choice_cdf(p)`` (``choice`` draws exactly one uniform and
  searches the same cumulative table)

Draws that only consume whole raw64s through numpy itself — notably the
ziggurat ``exponential`` the arrival processes use — can keep running on
the wrapped generator *between* cursor draws in direct mode: they ignore
and preserve the 32-bit half-buffer, and a direct-mode cursor holds no
lookahead, so the bit generator always sits at the exact stream position.

Two modes:

* **direct** (``chunk=0``): every draw pulls exactly the raws it consumes.
  Interleaving with generator-side calls is legal (see above).
* **chunked** (``chunk=N``): raws are pre-drawn in vectorised blocks and
  replayed from Python lists — the fast mode for tight generation loops
  (synthetic traces) where *no* generator-side draws interleave.
  :meth:`sync` rewinds the over-drawn lookahead so the generator lands on
  the exact consumption point, half-buffer included.

Every equivalence above is enforced against live numpy by the property
tests in ``tests/test_drawcursor.py``; if a numpy upgrade ever changes its
bounded-integer or buffering algorithm, those tests fail loudly rather
than letting baselines drift.
"""

from __future__ import annotations

import sys

import numpy as np

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, the next_double scale
_LITTLE = sys.byteorder == "little"


def choice_cdf(p) -> np.ndarray:
    """The cumulative table ``Generator.choice(..., p=p)`` searches.

    Built with the same operations choice uses (``cumsum`` then normalise
    by the last element), so ``cdf.searchsorted(u, side="right")`` lands on
    bit-identical indices.
    """
    p = np.asarray(p, dtype=np.float64)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class DrawCursor:
    """Exact replay of scalar numpy draws over bulk ``random_raw`` pulls."""

    __slots__ = (
        "_gen",
        "_bg",
        "_chunk",
        "_raws",
        "_raw_ints",
        "_doubles",
        "_i",
        "_n",
        "_has32",
        "_stored32",
        "_restore",
    )

    def __init__(self, gen: np.random.Generator, chunk: int = 0):
        self._gen = gen
        self._bg = gen.bit_generator
        self._chunk = int(chunk)
        self._raws = None  # ndarray view of the current chunk
        self._raw_ints = None  # the same raws as Python ints
        self._doubles = None  # the same raws as next_double values
        self._i = 0
        self._n = 0
        # Adopt the generator's buffered 32-bit half (PCG64 keeps the high
        # half of a raw64 across bounded-int/uint8 calls).
        s = self._bg.state
        self._has32 = bool(s["has_uint32"])
        self._stored32 = int(s["uinteger"]) if self._has32 else 0
        self._restore = None

    # ------------------------------------------------------------------
    # raw supply
    # ------------------------------------------------------------------
    def _refill(self) -> None:
        self._restore = self._bg.state
        raws = self._bg.random_raw(self._chunk)
        self._raws = raws
        self._raw_ints = raws.tolist()
        # (raw >> 11) * 2^-53 is numpy's next_double, exactly: the 53-bit
        # integer converts to float64 losslessly and the scale is a power
        # of two.
        self._doubles = ((raws >> 11) * _INV_2_53).tolist()
        self._i = 0
        self._n = self._chunk

    def _raw(self) -> int:
        if self._chunk:
            if self._i >= self._n:
                self._refill()
            r = self._raw_ints[self._i]
            self._i += 1
            return r
        return int(self._bg.random_raw())

    def _next32(self) -> int:
        # PCG64's next32: serve the buffered high half if present, else
        # split a fresh raw64 (low half first, high half buffered).
        if self._has32:
            self._has32 = False
            return self._stored32
        r = self._raw()
        self._stored32 = r >> 32
        self._has32 = True
        return r & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # draws
    # ------------------------------------------------------------------
    def random(self) -> float:
        """``float(gen.random())``: one raw64 through next_double."""
        if self._chunk:
            if self._i >= self._n:
                self._refill()
            d = self._doubles[self._i]
            self._i += 1
            return d
        return float(self._gen.random())

    def integers(self, n: int) -> int:
        """``int(gen.integers(0, n))`` — Lemire bounded rejection.

        numpy serves ranges that fit in 32 bits from the buffered 32-bit
        stream (two values per raw64) and wider ranges from raw64s; both
        reject by re-drawing, so consumption is data-dependent but exactly
        reproduced here.
        """
        rng = n - 1
        if rng <= 0:
            return 0  # numpy consumes nothing for a single-value range
        rng_excl = rng + 1
        if rng <= 0xFFFFFFFF:
            m = self._next32() * rng_excl
            leftover = m & 0xFFFFFFFF
            if leftover < rng_excl:
                threshold = (0x100000000 - rng_excl) % rng_excl
                while leftover < threshold:
                    m = self._next32() * rng_excl
                    leftover = m & 0xFFFFFFFF
            return m >> 32
        m = self._raw() * rng_excl
        leftover = m & 0xFFFFFFFFFFFFFFFF
        if leftover < rng_excl:
            threshold = ((1 << 64) - rng_excl) % rng_excl
            while leftover < threshold:
                m = self._raw() * rng_excl
                leftover = m & 0xFFFFFFFFFFFFFFFF
        return m >> 64

    def weighted_index(self, cdf: np.ndarray) -> int:
        """``int(gen.choice(len(cdf), p=p))`` for ``cdf = choice_cdf(p)``."""
        return int(cdf.searchsorted(self.random(), "right"))

    def payload(self, n: int) -> np.ndarray:
        """``gen.integers(0, 256, n, dtype=np.uint8)`` as one bulk pull.

        Returns a fresh writable array: callers hand payloads to log
        indexes that take ownership and may fold updates into them.
        """
        if n <= 0:
            return np.empty(0, dtype=np.uint8)
        k32 = (n + 3) >> 2
        out = np.empty(n, dtype=np.uint8)
        pos = 0
        if self._has32:
            first = self._stored32.to_bytes(4, "little")
            pos = 4 if n >= 4 else n
            out[:pos] = np.frombuffer(first[:pos], dtype=np.uint8)
            self._has32 = False
            k32 -= 1
            if k32 == 0:
                return out
        n64 = (k32 + 1) >> 1
        raws = self._raw_block(n64)
        rb = raws.view(np.uint8) if _LITTLE else np.frombuffer(
            raws.astype("<u8").tobytes(), dtype=np.uint8
        )
        out[pos:] = rb[: n - pos]
        if k32 & 1:
            self._stored32 = int(raws[-1] >> 32)
            self._has32 = True
        return out

    def skip_payload(self, n: int) -> None:
        """Consume exactly the raws ``payload(n)`` consumes; build nothing.

        For callers that need the stream *position* a payload draw leaves
        behind but not its bytes (the ghost payload plane).  Direct mode
        jumps the bit generator with ``PCG64.advance`` and draws at most
        one raw64 for real — the last one, when its high half must stay
        buffered.  Chunked mode has already paid for its lookahead, so it
        takes the draw and drops it.
        """
        if self._chunk:
            self.payload(n)
            return
        if n <= 0:
            return
        k32 = (n + 3) >> 2
        if self._has32:
            self._has32 = False
            k32 -= 1
            if k32 == 0:
                return
        n64 = (k32 + 1) >> 1
        if k32 & 1:
            if n64 > 1:
                self._bg.advance(n64 - 1)
            self._stored32 = int(self._bg.random_raw()) >> 32
            self._has32 = True
        else:
            self._bg.advance(n64)

    def _raw_block(self, n64: int) -> np.ndarray:
        """``n64`` consecutive raw64s as a contiguous uint64 array."""
        if not self._chunk:
            return self._bg.random_raw(n64)
        avail = self._n - self._i
        if avail >= n64:
            raws = self._raws[self._i : self._i + n64]
            self._i += n64
            return raws
        # Stitch the unconsumed tail of this chunk to fresh chunk heads —
        # the stream has no gaps, so the tail must be consumed first.
        parts = []
        if avail > 0:
            parts.append(self._raws[self._i : self._n])
            self._i = self._n
        need = n64 - avail
        while need > 0:
            self._refill()
            take = need if need < self._n else self._n
            parts.append(self._raws[:take])
            self._i = take
            need -= take
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------------
    def sync(self) -> np.random.Generator:
        """Land the wrapped generator on the exact consumption point.

        Chunked mode rewinds the unconsumed lookahead (restore the state
        captured at the last refill, re-draw exactly the consumed count);
        both modes then write the emulated 32-bit half-buffer back, so a
        caller that resumes scalar numpy draws afterwards continues the
        stream bit-exactly.  The cursor stays usable after a sync.
        """
        if self._chunk and self._raws is not None:
            self._bg.state = self._restore
            if self._i:
                self._bg.random_raw(self._i)
            self._raws = None
            self._raw_ints = None
            self._doubles = None
            self._i = 0
            self._n = 0
        s = self._bg.state
        s["has_uint32"] = int(self._has32)
        s["uinteger"] = int(self._stored32) if self._has32 else 0
        self._bg.state = s
        return self._gen
