"""Systematic Reed-Solomon codec and the Eq. (2) parity delta.

:class:`RSCodec` is the functional core used by both the simulated file
system and the unit tests: blocks are real ``uint8`` buffers and parity is
really computed, so every experiment doubles as a correctness check.

Eq. (2), ``parity_delta(j, p, d_new - d_old)``, is one update's parity
patch.  The identities built on it live where the model runs them: the
Eq. (3) same-location XOR fold is ``TwoLevelIndex("xor")`` and the Eq. (5)
per-parity fold of one stripe's deltas is
:func:`repro.logstruct.index.fold_parity_deltas`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.dataplane import GhostExtent, GhostMaterializationError, is_ghost
from repro.ec.matrix import gf_matinv, gf_matmul, systematic_vandermonde
from repro.gf.arithmetic import gf_mul_scalar


class RSCodec:
    """A systematic RS(k, m) code over GF(2^8), Vandermonde-derived (Eq. 1).

    ``k`` and ``m`` are the data and parity block counts; any k of the
    k+m blocks reconstruct.
    """

    def __init__(self, k: int, m: int):
        self.generator = systematic_vandermonde(k, m)
        self.k = k
        self.m = m
        # m x k parity-coefficient block (the ∂ of Eqs. 2-5).
        self.parity_matrix = self.generator[k:].copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RSCodec(k={self.k}, m={self.m})"

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    def encode(self, data_blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Compute the m parity blocks for k equal-length data blocks.

        Ghost plane: a GF matrix product of metadata-only extents is pure
        size bookkeeping — validate the geometry exactly as ``_rows``
        would, then return one fresh ghost extent per parity block.
        """
        if any(is_ghost(b) for b in data_blocks):
            if len(data_blocks) != self.k:
                raise ValueError(
                    f"expected {self.k} blocks, got {len(data_blocks)}"
                )
            sizes = {int(b.size) for b in data_blocks}
            if len(sizes) != 1:
                raise ValueError(
                    f"blocks must be equal-length, got sizes {sorted(sizes)}"
                )
            n = sizes.pop()
            return [GhostExtent(n, tag="parity") for _ in range(self.m)]
        parity = gf_matmul(self.parity_matrix, self._rows(data_blocks, self.k))
        # Rows of the freshly computed product — views, not per-row copies.
        # The rows are disjoint and the 2-D base is exclusively theirs.
        return list(parity)

    def coefficient(self, parity_index: int, data_index: int) -> int:
        """∂_{p,j}: the coefficient tying data block j to parity block p."""
        return int(self.parity_matrix[parity_index, data_index])

    def decode(
        self, shards: Mapping[int, np.ndarray], block_size: Optional[int] = None
    ) -> List[np.ndarray]:
        """Recover all k data blocks from any k surviving shards.

        ``shards`` maps global block index (0..k+m-1; parity starts at k) to
        its payload.  Raises ``ValueError`` with fewer than k shards.
        """
        if len(shards) < self.k:
            raise ValueError(
                f"need at least k={self.k} shards to decode, got {len(shards)}"
            )
        if any(is_ghost(s) for s in shards.values()):
            raise GhostMaterializationError(
                "RS decode needs real payload bytes; ghost-plane scenarios "
                "cannot reconstruct — run fault/rebuild workloads on the "
                "byte plane"
            )
        idx = sorted(shards)[: self.k]
        sub = self.generator[idx]
        inv = gf_matinv(sub)
        rows = self._rows([shards[i] for i in idx], self.k, block_size)
        data = gf_matmul(inv, rows)
        # Rows of a fresh product; see encode().
        return list(data)

    def reconstruct(
        self, shards: Mapping[int, np.ndarray], missing: Iterable[int]
    ) -> Dict[int, np.ndarray]:
        """Rebuild the requested missing block indices (data or parity)."""
        missing = list(missing)
        data = self.decode(shards)
        out: Dict[int, np.ndarray] = {}
        parity_cache: Optional[List[np.ndarray]] = None
        for b in missing:
            if b < 0 or b >= self.k + self.m:
                raise ValueError(f"block index {b} out of range")
            if b < self.k:
                out[b] = data[b]
            else:
                if parity_cache is None:
                    parity_cache = self.encode(data)
                out[b] = parity_cache[b - self.k]
        return out

    # ------------------------------------------------------------------
    # incremental update
    # ------------------------------------------------------------------
    def parity_delta(
        self, data_index: int, parity_index: int, data_delta: np.ndarray
    ) -> np.ndarray:
        """Eq. (2): the patch for one parity block from one data delta."""
        coeff = int(self.parity_matrix[parity_index, data_index])
        return parity_delta(coeff, data_delta)

    # ------------------------------------------------------------------
    @staticmethod
    def _rows(
        blocks: Sequence[np.ndarray], expect: int, block_size: Optional[int] = None
    ) -> List[np.ndarray]:
        """The blocks as ``uint8`` rows for ``gf_matmul``, validated, not
        stacked: the matmul only iterates its rows, so a k x block copy
        (384 KiB per RS(6,2) stripe gate) would buy nothing."""
        if len(blocks) != expect:
            raise ValueError(f"expected {expect} blocks, got {len(blocks)}")
        arrs = [np.asarray(b, dtype=np.uint8) for b in blocks]
        sizes = {a.size for a in arrs}
        if len(sizes) != 1:
            raise ValueError(f"blocks must be equal-length, got sizes {sorted(sizes)}")
        if block_size is not None and sizes.pop() != block_size:
            raise ValueError("block size mismatch")
        return arrs


def parity_delta(coeff: int, data_delta: np.ndarray) -> np.ndarray:
    """Eq. (2) helper for a raw coefficient.

    Returns a fresh, writable array (callers hand the patch to log indexes
    that take ownership): :func:`~repro.gf.arithmetic.gf_mul_scalar`, one
    call of the native GF(2^8) region kernel in overwrite mode — no
    zero-fill, no XOR pass, no intermediate ``bytes``.

    Ghost plane: the GF(2^8) scalar multiply of a metadata-only extent is
    a same-length extent — return a fresh ghost (the byte plane returns a
    fresh buffer for every coefficient too, so ownership matches).
    """
    if type(data_delta) is GhostExtent:
        return data_delta.copy()
    return gf_mul_scalar(coeff, data_delta)
