"""GF(2^8) arithmetic, vectorised over ``numpy`` ``uint8`` arrays.

All erasure-code math in this repository happens in the field GF(256) with
the AES/Rijndael-compatible primitive polynomial x^8 + x^4 + x^3 + x^2 + 1
(0x11D), the same field used by ISA-L and Jerasure.  Addition is XOR;
multiplication goes through log/exp tables so bulk operations stay inside
numpy; bulk scalar-times-buffer work is one kernel, `gf_scale_accumulate`.
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
