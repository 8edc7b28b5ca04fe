"""Reed-Solomon erasure coding over GF(2^8).

Implements the math the paper relies on:

* the systematic Vandermonde-derived generator (:mod:`repro.ec.matrix`);
* full encode / any-k decode and the Eq. (2) parity delta
  (:class:`repro.ec.rs.RSCodec`); the Eq. (3) and Eq. (5) folds over
  logged deltas are :mod:`repro.logstruct.index`;
* stripe geometry — mapping a byte range of a file onto (stripe, block,
  offset) triples (:mod:`repro.ec.stripe`).
"""

from repro.ec.matrix import (
    gf_matinv,
    gf_matmul,
    systematic_vandermonde,
    vandermonde_matrix,
)
from repro.ec.rs import RSCodec, parity_delta
from repro.ec.stripe import BlockAddr, StripeMap

__all__ = [
    "BlockAddr",
    "RSCodec",
    "StripeMap",
    "gf_matinv",
    "gf_matmul",
    "parity_delta",
    "systematic_vandermonde",
    "vandermonde_matrix",
]
