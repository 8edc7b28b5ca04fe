"""The payload planes: byte-accurate arrays vs metadata-only ghost extents.

Every simulated cost in the engine — device service times, fabric
transfers, log-space accounting, recycle scheduling — is a function of
payload *sizes*, never payload *contents*.  The ghost plane exploits that:
a :class:`GhostExtent` stands in for a ``uint8`` array, carrying only its
length (plus a generation counter and provenance tag for debugging), and
every byte-moving operation (slicing, XOR, overwrite, copy) degrades to
size bookkeeping.  Timing, event counts and completion ordering are
bit-identical to the byte plane by construction — the equivalence suite in
``tests/test_ghost_equivalence.py`` pins that per update method — while
memory stays O(metadata), which is what lets the ``scale_out`` scenario
tier run 1000+ clients over 256+ OSDs in seconds.

Plane discipline (a branch on the plane in simulated-time code fails
``tests/test_ghost_equivalence.py``):

* The plane is chosen **once**, at construction time — ``BlockStore``
  binds its allocator and coverage hooks in ``__init__``; generators
  (simulated-time code) never branch on a ghost flag.
* Payload *materialization* helpers (:func:`as_payload`,
  :func:`concat_payloads`, :func:`assemble_overlay`) may dispatch on the
  payload **type**; they are plain functions with no timing effect.
* Anything that genuinely needs real bytes — RS decode/reconstruct,
  scrub — refuses loudly with :class:`GhostMaterializationError` instead
  of fabricating data; the acked-update oracle is not bound on this plane.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class GhostMaterializationError(TypeError):
    """Real bytes were demanded from a metadata-only ghost extent.

    Raised by ``GhostExtent.__array__`` (so a stray ``np.asarray`` fails
    loudly instead of silently building an object array) and by the
    decode/reconstruct/scrub paths, which are meaningless without
    payload contents.  Scenarios that need those paths (fault injection,
    rebuild, a byte-exact check) must run on the byte plane.
    """


class _GhostFlags:
    """Mutable stand-in for ``ndarray.flags`` (only ``writeable`` is used)."""

    __slots__ = ("writeable",)

    def __init__(self, writeable: bool = True):
        self.writeable = writeable


class GhostExtent:
    """A metadata-only payload: length + generation + provenance tag.

    Duck-types the slice of the ``np.ndarray`` API the storage stack
    actually touches — ``size``/``ndim``/``dtype``, slicing, assignment,
    XOR, ``copy()``, ``flags.writeable`` — so ghost payloads flow through
    the block store, log indexes, delta algebra and RPC payloads on the
    exact code paths real bytes take.  Writes and XORs validate extents
    and lengths exactly as numpy would (mismatches and read-only
    violations raise), then update only the generation counter.
    """

    __slots__ = ("size", "gen", "tag", "flags")

    ndim = 1
    dtype = np.dtype(np.uint8)

    def __init__(self, size: int, gen: int = 0, tag: str = ""):
        size = int(size)
        if size < 0:
            raise ValueError(f"negative ghost extent size {size}")
        self.size = size
        self.gen = gen
        self.tag = tag
        self.flags = _GhostFlags()

    # -- numpy-compat surface ------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.size

    @property
    def shape(self) -> Tuple[int]:
        return (self.size,)

    def __len__(self) -> int:
        return self.size

    def __array__(self, *args, **kwargs):
        raise GhostMaterializationError(
            f"ghost extent of {self.size}B (tag={self.tag!r}) cannot be "
            "materialized to real bytes; this path needs the byte plane"
        )

    def _slice_span(self, item) -> Tuple[int, int]:
        if not isinstance(item, slice):
            raise GhostMaterializationError(
                "ghost extents support range access only, not element reads"
            )
        start, stop, step = item.indices(self.size)
        if step != 1:
            raise ValueError("ghost extents support contiguous slices only")
        return start, max(stop, start)

    def __getitem__(self, item) -> "GhostExtent":
        start, stop = self._slice_span(item)
        return GhostExtent(stop - start, gen=self.gen, tag=self.tag)

    def __setitem__(self, item, value) -> None:
        if not self.flags.writeable:
            raise ValueError("assignment destination is read-only")
        start, stop = self._slice_span(item)
        n = getattr(value, "size", None)  # plain scalars broadcast freely
        if n is not None and int(n) != stop - start:
            raise ValueError(
                f"could not broadcast input of {int(n)}B into ghost range "
                f"of {stop - start}B"
            )
        self.gen += 1

    def __xor__(self, other) -> "GhostExtent":
        n = payload_size(other)
        if n != self.size:
            raise ValueError(
                f"ghost xor size mismatch: {self.size}B ^ {n}B"
            )
        return GhostExtent(self.size, gen=self.gen + 1, tag=self.tag)

    __rxor__ = __xor__

    def __ixor__(self, other) -> "GhostExtent":
        if not self.flags.writeable:
            raise ValueError("assignment destination is read-only")
        n = payload_size(other)
        if n != self.size:
            raise ValueError(
                f"ghost xor size mismatch: {self.size}B ^= {n}B"
            )
        self.gen += 1
        return self

    def copy(self) -> "GhostExtent":
        return GhostExtent(self.size, gen=self.gen, tag=self.tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GhostExtent({self.size}B, gen={self.gen}, tag={self.tag!r})"


def is_ghost(data) -> bool:
    """True iff ``data`` is a metadata-only payload."""
    return type(data) is GhostExtent


def payload_size(data) -> int:
    """Length in bytes of a payload of either plane."""
    return int(data.size)


def as_payload(data):
    """Coerce to a ``uint8`` array, passing ghost extents through untouched.

    The plane-neutral replacement for ``np.asarray(data, dtype=np.uint8)``
    at every payload ingestion point (block store, log indexes, client
    update path): byte payloads take the exact historical coercion, ghost
    payloads pass through by identity.
    """
    if type(data) is GhostExtent:
        return data
    if type(data) is not np.ndarray or data.dtype != np.uint8:
        return np.asarray(data, dtype=np.uint8)
    return data


def blank_payload(n: int, ghost: bool):
    """A zeroed payload of ``n`` bytes on the requested plane."""
    if ghost:
        return GhostExtent(n)
    return np.zeros(n, dtype=np.uint8)


def concat_payloads(pieces: Sequence) -> "np.ndarray | GhostExtent":
    """Plane-neutral ``np.concatenate`` for read-path reassembly."""
    if pieces and type(pieces[0]) is GhostExtent:
        return GhostExtent(sum(int(p.size) for p in pieces))
    if not pieces:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(pieces)


def assemble_overlay(
    length: int, offset: int, overlay: List[Tuple[int, "np.ndarray"]]
):
    """Build a read buffer of ``length`` bytes from overlay fragments.

    The full-cache-hit assembly of the OSD read path: fragments fully
    cover ``[offset, offset+length)``.  Ghost fragments assemble to a
    ghost extent (pure size bookkeeping); byte fragments are patched into
    a fresh array exactly as before.
    """
    if overlay and type(overlay[0][1]) is GhostExtent:
        return GhostExtent(length)
    out = np.zeros(length, dtype=np.uint8)
    for off, frag in overlay:
        out[off - offset : off - offset + frag.size] = frag
    return out
