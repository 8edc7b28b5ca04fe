"""The native GF(2^8) region kernel: exactness, build cache, reference path.

The kernel (``src/repro/gf/_region.c``) is compiled once per source hash
by ``repro.gf.native.load_region``; without cffi or a C compiler both bulk
entry points run the reference gather instead.  These tests pin the kernel
to the 256-entry product table on every operand layout a caller can hand
it, then pin the build protocol (a cached build is loaded without
compiling; racing first builds both succeed), and finally re-run the GF
and codec suites with the kernel taken away.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import arithmetic, gf_mul_scalar, gf_scale_accumulate
from repro.gf.native import load_region

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

native = pytest.mark.skipif(
    arithmetic._KERNEL is None, reason="the native kernel did not build here"
)


# Every coefficient at every vector/tail boundary, in both modes, is
# tests/test_gf.py::test_kernel_every_coefficient_matches_scalar_reference
# (run on the kernel here and on the reference path below); this property
# adds every operand layout a caller can hand the kernel.
@native
@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=0, max_value=70_000),
    coeff=st.integers(min_value=0, max_value=255),
    src_offset=st.integers(min_value=0, max_value=31),
    dst_offset=st.integers(min_value=0, max_value=31),
    step=st.sampled_from((1, 2, 3, -1)),
    readonly=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_any_source_layout_and_unaligned_destination(
    n, coeff, src_offset, dst_offset, step, readonly, seed
):
    rng = np.random.default_rng(seed)
    backing = rng.integers(0, 256, src_offset + 3 * n + 1, dtype=np.uint8)
    if step > 0:
        src = backing[src_offset : src_offset + step * n : step]
    else:
        src = backing[src_offset : src_offset + n][::-1]
    if readonly:
        src.flags.writeable = False
    before = src.copy()
    want = arithmetic._MUL_TABLE[coeff][before]

    assert np.array_equal(gf_mul_scalar(coeff, src), want)
    # A writable contiguous destination at any byte offset.
    dst_backing = rng.integers(0, 256, dst_offset + n, dtype=np.uint8)
    acc = dst_backing[dst_offset:]
    start = acc.copy()
    gf_scale_accumulate((coeff,), src, (acc,))
    assert np.array_equal(acc, start ^ want)
    assert np.array_equal(src, before)  # the source is never written


def test_loader_yields_none_without_cffi_or_compiler(tmp_path, monkeypatch):
    import cffi

    def no_compiler(*args, **kwargs):
        raise cffi.VerificationError("no C compiler")

    monkeypatch.setattr(cffi.FFI, "compile", no_compiler)
    assert load_region(str(tmp_path)) is None
    monkeypatch.setitem(sys.modules, "cffi", None)  # `import cffi` fails
    assert load_region(str(tmp_path)) is None


def _load_in_child(cache_root, forbid_compiler=False):
    """A fresh interpreter that loads the kernel from ``cache_root``."""
    code = "\n".join((
        "import sys, cffi",
        "from repro.gf.native import load_region",
        "def forbidden(*args, **kwargs):",
        "    raise AssertionError('the compiler was invoked')",
        "if %r:" % forbid_compiler,
        "    cffi.FFI.compile = forbidden",
        "module = load_region(%r)" % str(cache_root),
        "sys.exit(0 if module is not None and module.lib.gf_region else 3)",
    ))
    return subprocess.Popen(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC)
    )


@native
def test_second_process_loads_the_cached_build_without_compiling(tmp_path):
    assert load_region(str(tmp_path)) is not None  # the first build
    assert _load_in_child(tmp_path, forbid_compiler=True).wait(timeout=120) == 0


@native
def test_a_cache_entry_others_can_write_is_not_loaded(tmp_path):
    assert load_region(str(tmp_path)) is not None
    (entry,) = tmp_path.iterdir()
    assert entry.stat().st_mode & 0o777 == 0o700
    entry.chmod(0o777)  # anyone could have swapped the module
    assert load_region(str(tmp_path)) is None


@native
def test_concurrent_first_builds_both_succeed(tmp_path):
    children = [_load_in_child(tmp_path) for _ in range(2)]
    assert [c.wait(timeout=300) for c in children] == [0, 0]
    # One cache entry holding one module: each builder's private work
    # directory is gone, whichever rename landed last.
    (entry,) = tmp_path.iterdir()
    assert [p.name.split(".")[0] for p in entry.iterdir()] == ["_repro_gf_region"]


REFERENCE_SUITES = ("test_gf.py", "test_ec_rs.py", "test_ec_matrix.py",
                    "test_stripe_check.py")


def test_codec_suites_pass_on_the_reference_path():
    """The GF/codec suites once more with the native handle taken away."""
    code = "\n".join((
        "import sys, pytest",
        "from repro.gf import arithmetic",
        "arithmetic._KERNEL = None",
        "sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider', *sys.argv[1:]]))",
    ))
    suites = [str(ROOT / "tests" / name) for name in REFERENCE_SUITES]
    done = subprocess.run(
        [sys.executable, "-c", code, *suites], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:]
