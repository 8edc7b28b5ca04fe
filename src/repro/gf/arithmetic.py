"""Table-driven GF(2^8) arithmetic.

The exp table is laid out doubled (length 510) so ``exp[log a + log b]``
never needs an explicit ``mod 255``; the log table maps 1..255 to 0..254
(``log[0]`` is a sentinel never consulted on a valid path).

Bulk scalar-times-buffer work goes through one kernel,
:func:`gf_scale_accumulate` (``acc[i] ^= coeffs[i] * src``): it gathers two
bytes per lookup through a lazily built per-coefficient 65536-entry
``uint16`` table and skips an all-zero source after one ``any()`` pass.
`gf_mul_scalar`, ``ec.matrix.gf_matmul`` and the multi-delta branch of
``ec.rs.combine_deltas`` are thin loops over it (``docs/dataplane.md``,
"Byte-plane kernels").
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

GF_ORDER = 256
PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIM_POLY
    exp[255:510] = exp[0:255]
    return exp, log


_EXP, _LOG = _build_tables()

# 256x256 full multiplication table: 64 KiB, built once.  Row g is the map
# b -> g*b, which turns scalar-times-buffer into one gather.
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
for _g in range(1, 256):
    _bs = np.arange(1, 256)
    _MUL_TABLE[_g, 1:] = _EXP[_LOG[_g] + _LOG[_bs]]
del _g, _bs

# The same rows as 256-byte `bytes` objects: ``payload.translate(row)`` is a
# tight C loop with no index-dtype conversion, and it returns the fresh
# buffer ``ec.rs.parity_delta`` wants (measured against the wide-table
# gather in that function's docstring).
_MUL_BYTES = [bytes(_MUL_TABLE[_g2]) for _g2 in range(256)]


def gf_exp_table() -> np.ndarray:
    """A read-only view of the doubled exp table (length 510)."""
    v = _EXP.view()
    v.flags.writeable = False
    return v


def gf_log_table() -> np.ndarray:
    """A read-only view of the log table (index 0 is a sentinel)."""
    v = _LOG.view()
    v.flags.writeable = False
    return v


def gf_add(a, b) -> np.ndarray:
    """Field addition (= subtraction): bytewise XOR."""
    return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def gf_mul(a, b) -> np.ndarray:
    """Elementwise field product of two uint8 arrays (broadcasting)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return _MUL_TABLE[a, b]


# --- the byte-plane kernel -------------------------------------------------
# Operands shorter than this take the 256-entry row: a 128 KiB table is not
# worth building (or pulling through the cache) for a coding-matrix-sized
# product.
_WIDE_MIN_BYTES = 512
# At most 64 wide tables (128 KiB each, 8 MiB) stay built; the oldest-built
# is evicted first.  RS(12,4) encodes with 48 coefficients, a rebuild's
# inverse matrix brings up to k*k more; building an evicted table again
# costs ~12 us.
_WIDE_TABLE_LIMIT = 64
_WIDE_TABLES: Dict[int, np.ndarray] = {}

# Reusable gather scratch.  The simulation is single-threaded and the
# scratch never escapes the kernel, so one monotonically grown buffer
# (views serve smaller calls) removes the allocation per term.
_SCRATCH: List[np.ndarray] = [np.empty(0, dtype=np.uint8)]


def _wide_table(coeff: int) -> np.ndarray:
    """``T[x] = row[x & 255] | row[x >> 8] << 8`` for ``row = coeff * .``.

    Indexed by two adjacent payload bytes read as one ``uint16`` it yields
    both products at once; the layout is its own mirror image, so it is
    byte-order independent.
    """
    table = _WIDE_TABLES.get(coeff)
    if table is None:
        if len(_WIDE_TABLES) >= _WIDE_TABLE_LIMIT:
            del _WIDE_TABLES[next(iter(_WIDE_TABLES))]
        row = _MUL_TABLE[coeff].astype(np.uint16)
        table = _WIDE_TABLES[coeff] = ((row[:, None] << 8) | row[None, :]).ravel()
    return table


def gf_scale_accumulate(coeffs: Sequence[int], src: np.ndarray, acc) -> None:
    """``acc[i] ^= coeffs[i] * src`` over the field, in place, for every i.

    ``src`` is a 1-D ``uint8`` array of any stride, alignment or
    writability; ``acc`` is a sequence of ``len(coeffs)`` writable 1-D
    ``uint8`` arrays of the same length (the rows of a 2-D array).  An
    all-zero ``src`` returns after one ``any()`` pass — ``c * 0 = 0``, so
    the skipped terms are exactly the ones that would XOR nothing in.
    """
    n = src.size
    if n == 0 or not src.any():
        return
    src = np.ascontiguousarray(src)  # the uint16 view needs unit stride
    tmp = _SCRATCH[0]
    if tmp.size < n:
        tmp = _SCRATCH[0] = np.empty(n, dtype=np.uint8)
    tmp = tmp[:n]
    # Bytes served two at a time; an odd tail (or a whole small operand)
    # goes through the 256-entry row.
    wide = n & ~1 if n >= _WIDE_MIN_BYTES else 0
    if wide:
        src16 = src[:wide].view(np.uint16)
        tmp16 = tmp[:wide].view(np.uint16)
    for coeff, out in zip(coeffs, acc):
        if coeff == 0:
            continue
        if coeff == 1:
            np.bitwise_xor(out, src, out=out)
            continue
        # mode="clip": indices cannot be out of range, and it spares
        # np.take the defensive copy of ``out`` that mode="raise" makes.
        if wide:
            np.take(_wide_table(coeff), src16, out=tmp16, mode="clip")
        if wide < n:
            row = _MUL_TABLE[coeff]
            np.take(row, src[wide:], out=tmp[wide:], mode="clip")
        np.bitwise_xor(out, tmp, out=out)


def gf_mul_scalar(scalar: int, buf) -> np.ndarray:
    """``scalar * buf`` over the field (a fresh array of ``buf``'s shape)."""
    if not 0 <= scalar <= 255:
        raise ValueError(f"scalar {scalar} outside GF(256)")
    buf = np.asarray(buf, dtype=np.uint8)
    out = np.zeros(buf.shape, dtype=np.uint8)
    gf_scale_accumulate((scalar,), buf.reshape(-1), (out.reshape(-1),))
    return out


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero field element."""
    if not 0 < a <= 255:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def gf_div(a, b) -> np.ndarray:
    """Elementwise ``a / b``; raises on any zero divisor."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    la = _LOG[a]
    lb = _LOG[b]
    out = _EXP[(la - lb) % 255].astype(np.uint8)
    return np.where(a == 0, np.uint8(0), out)


def gf_pow(a: int, n: int) -> int:
    """``a ** n`` in the field (n may be any integer for nonzero a)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ZeroDivisionError("0 ** negative in GF(256)")
        return 0
    return int(_EXP[(_LOG[a] * n) % 255])
