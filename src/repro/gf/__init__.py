"""GF(2^8) arithmetic, vectorised over ``numpy`` ``uint8`` arrays.

All erasure-code math in this repository happens in the field GF(256) with
the AES/Rijndael-compatible primitive polynomial x^8 + x^4 + x^3 + x^2 + 1
(0x11D), the same field used by ISA-L and Jerasure.  Addition is XOR;
multiplication goes through log/exp tables.  Bulk scalar-times-buffer work
is one native kernel (``_region.c``, a split-nibble shuffle multiply) behind
`gf_scale_accumulate` and `gf_mul_scalar`.  `repro.gf.native` compiles it
once per source hash into a cache under the system temp dir on the first
import; without cffi or a C compiler both entry points run a numpy gather
that gives the same bytes.
"""

from repro.gf.arithmetic import (
    GF_ORDER,
    PRIM_POLY,
    gf_add,
    gf_div,
    gf_exp_table,
    gf_inv,
    gf_log_table,
    gf_mul,
    gf_mul_scalar,
    gf_pow,
    gf_scale_accumulate,
)

__all__ = [
    "GF_ORDER",
    "PRIM_POLY",
    "gf_add",
    "gf_div",
    "gf_exp_table",
    "gf_inv",
    "gf_log_table",
    "gf_mul",
    "gf_mul_scalar",
    "gf_pow",
    "gf_scale_accumulate",
]
