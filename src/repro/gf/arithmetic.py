"""Table-driven GF(2^8) arithmetic.

The exp table is laid out doubled (length 510) so ``exp[log a + log b]``
never needs an explicit ``mod 255``; the log table maps 1..255 to 0..254
(``log[0]`` is a sentinel never consulted on a valid path).

Bulk scalar-times-buffer work goes through one native kernel, the
split-nibble region multiply of ``_region.c``, behind two entry points:
:func:`gf_scale_accumulate` (``acc[i] ^= coeffs[i] * src``; ``ec.matrix.
gf_matmul`` is a loop over it) and :func:`gf_mul_scalar` (a fresh
``c * buf``; Eq. 2's ``ec.rs.parity_delta``, which the Eq. (5) fold
``logstruct.index.fold_parity_deltas`` calls per logged segment).  Where
the kernel cannot be built both run the reference gather through a row of
``_MUL_TABLE`` (``docs/dataplane.md``, "Byte-plane kernels").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.gf.native import load_region

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
# The native region kernel (``_region.c``, loaded by ``repro.gf.native``) or
# None, in which case both entry points below run the reference gather
# ``_MUL_TABLE[c].take(src)``.  ``_ROWS[c]`` points at product row c, from
# which the kernel takes its two nibble tables.
_KERNEL = load_region()
if _KERNEL is not None:
    _ROW_BASE = _KERNEL.ffi.from_buffer("uint8_t[]", _MUL_TABLE)
    _ROWS = [_ROW_BASE + (_c << 8) for _c in range(256)]


def gf_scale_accumulate(coeffs: Sequence[int], src: np.ndarray, acc) -> None:
    """``acc[i] ^= coeffs[i] * src`` over the field, in place, for every i.

    ``src`` is a 1-D ``uint8`` array of any stride, alignment or
    writability; ``acc`` is a sequence of ``len(coeffs)`` writable,
    contiguous 1-D ``uint8`` arrays of the same length (the rows of a 2-D
    array).  A zero coefficient is skipped; every other term is one call of
    the native kernel in accumulate mode, after a length check: the kernel
    writes ``src.size`` bytes, so a row of another length must raise.
    """
    kernel = _KERNEL
    if kernel is None:
        for coeff, out in zip(coeffs, acc):
            if coeff:
                np.bitwise_xor(out, _MUL_TABLE[coeff].take(src), out=out)
        return
    n = src.size
    from_buffer = kernel.ffi.from_buffer
    region = kernel.lib.gf_region
    data = from_buffer("uint8_t[]", np.ascontiguousarray(src))
    for coeff, out in zip(coeffs, acc):
        if coeff:
            dst = from_buffer("uint8_t[]", out, True)
            if len(dst) != n:
                raise ValueError(f"accumulator of {len(dst)} bytes for a {n}-byte source")
            region(_ROWS[coeff], data, dst, n, 1)


def gf_mul_scalar(scalar: int, buf) -> np.ndarray:
    """``scalar * buf`` over the field (a fresh array of ``buf``'s shape).

    One call of the native kernel in overwrite mode (``ec.rs.parity_delta``,
    Eq. 2, is this function plus its ghost check).
    """
    if not 0 <= scalar <= 255:
        raise ValueError(f"scalar {scalar} outside GF(256)")
    buf = np.asarray(buf, dtype=np.uint8)
    kernel = _KERNEL
    if kernel is None:
        return _MUL_TABLE[scalar].take(buf)
    out = np.empty(buf.shape, dtype=np.uint8)
    from_buffer = kernel.ffi.from_buffer
    kernel.lib.gf_region(
        _ROWS[scalar], from_buffer("uint8_t[]", np.ascontiguousarray(buf)),
        from_buffer("uint8_t[]", out, True), buf.size, 0,
    )
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
