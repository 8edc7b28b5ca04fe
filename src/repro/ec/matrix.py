"""GF(2^8) matrix algebra and the systematic Vandermonde generator.

The generator (Eq. 1) starts from Vandermonde rows ``alpha_i^j`` and is
made systematic by right-multiplying with the inverse of the top k x k
square (the classic Jerasure transform), which keeps the code MDS while
making the first k rows the identity.
"""

from __future__ import annotations

import numpy as np

from repro.gf.arithmetic import _EXP, _LOG, _MUL_TABLE, gf_inv, gf_scale_accumulate


def gf_matmul(a: np.ndarray, b) -> np.ndarray:
    """Matrix product over GF(256).

    Works for 2-D x 2-D and 2-D x (2-D of payload columns); payload matmul
    (coding_matrix @ data_blocks) is the hot path — it runs once per stripe
    in every consistency gate, scrub and rebuild — so each row of ``b`` goes
    through :func:`~repro.gf.arithmetic.gf_scale_accumulate` once, scaled by
    its column of ``a`` into every output row.  ``b`` may also be a list of
    equal-length 1-D ``uint8`` rows (the codec's validated blocks), which
    spares stacking them into one array first.
    """
    a = np.asarray(a, dtype=np.uint8)
    if type(b) is list:
        width = b[0].size if b else 0
    else:
        b = np.asarray(b, dtype=np.uint8)
        if b.ndim != 2:
            raise ValueError("gf_matmul expects 2-D operands")
        width = b.shape[1]
    if a.ndim != 2:
        raise ValueError("gf_matmul expects 2-D operands")
    if a.shape[1] != len(b):
        raise ValueError(f"shape mismatch {a.shape} @ {len(b)} rows")
    out = np.zeros((a.shape[0], width), dtype=np.uint8)
    for column, row in zip(a.T.tolist(), b):
        gf_scale_accumulate(column, row, out)
    return out


def gf_matinv(m: np.ndarray) -> np.ndarray:
    """Inverse of a square GF(256) matrix by Gauss-Jordan elimination.

    Raises ``np.linalg.LinAlgError`` on singular input.
    """
    m = np.asarray(m, dtype=np.uint8)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError(f"gf_matinv expects a square matrix, got {m.shape}")
    aug = np.concatenate([m.copy(), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = -1
        for r in range(col, n):
            if aug[r, col] != 0:
                pivot = r
                break
        if pivot < 0:
            raise np.linalg.LinAlgError("singular matrix over GF(256)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = gf_inv(int(aug[col, col]))
        aug[col] = _MUL_TABLE[inv_p][aug[col]]
        for r in range(n):
            if r != col and aug[r, col] != 0:
                factor = int(aug[r, col])
                np.bitwise_xor(aug[r], _MUL_TABLE[factor][aug[col]], out=aug[r])
    return aug[:, n:].copy()


def vandermonde_matrix(rows: int, cols: int) -> np.ndarray:
    """``rows x cols`` Vandermonde matrix with evaluation points 0..rows-1.

    Entry (i, j) = i^j in GF(256) with the convention 0^0 = 1.
    """
    if rows > 256:
        raise ValueError("at most 256 distinct evaluation points in GF(256)")
    out = np.zeros((rows, cols), dtype=np.uint8)
    out[:, 0] = 1
    for i in range(rows):
        if i == 0:
            continue
        li = int(_LOG[i])
        for j in range(1, cols):
            out[i, j] = _EXP[(li * j) % 255]
    return out


def systematic_vandermonde(k: int, m: int) -> np.ndarray:
    """Systematic (k+m) x k generator: identity on top, MDS parity below."""
    _check_km(k, m)
    v = vandermonde_matrix(k + m, k)
    top_inv = gf_matinv(v[:k])
    g = gf_matmul(v, top_inv)
    # Defensive: the transform must leave an exact identity on top.
    if not np.array_equal(g[:k], np.eye(k, dtype=np.uint8)):
        raise AssertionError("systematic transform failed to produce identity")
    return g


def _check_km(k: int, m: int) -> None:
    if k < 1 or m < 1:
        raise ValueError(f"k and m must be positive, got k={k} m={m}")
    if k + m > 256:
        raise ValueError(f"RS over GF(256) requires k+m <= 256, got {k + m}")
