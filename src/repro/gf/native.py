"""Build-once loader for the native GF(2^8) region kernel (``_region.c``).

The kernel is bound through cffi in API mode, i.e. compiled into a small
CPython extension module.  The build is keyed by a hash of everything that
can change the binary (kernel source, declaration, cffi and interpreter
versions, extension suffix) and cached under the system temp dir:

* a cached module is loaded as is — no compiler is run;
* otherwise this process compiles in a private directory beside the cache
  entry and moves the module into place with one atomic ``os.replace``, so
  concurrent first builders all succeed (the last rename wins, and every
  rename installs a complete, identical file);
* a cache entry another user owns, or one others may write, is never
  loaded (the temp dir is shared and the path predictable);
* without cffi, a C compiler or a writable temp dir the loader yields
  ``None`` and callers keep their numpy reference path.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Optional

_SOURCE = Path(__file__).with_name("_region.c")
_CDEF = (
    "void gf_region(const uint8_t *row, const uint8_t *src, uint8_t *dst,"
    " size_t n, int accumulate);"
)
_MODULE = "_repro_gf_region"


def load_region(cache_root: Optional[str] = None) -> Optional[ModuleType]:
    """The compiled kernel module (``.ffi``, ``.lib.gf_region``), or None.

    ``cache_root`` defaults to the system temp dir; the build lives in a
    ``repro-gf-<hash>`` directory under it.
    """
    try:
        import cffi
    except ImportError:
        return None
    try:
        source = _SOURCE.read_text()
        suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
        key = hashlib.sha256(
            "\0".join((source, _CDEF, cffi.__version__, sys.version, suffix)).encode()
        ).hexdigest()[:16]
        home = Path(cache_root or tempfile.gettempdir()) / f"repro-gf-{key}"
        target = home / (_MODULE + suffix)
        if not target.exists():
            _build(cffi, source, home, target)
        if not _private(home):
            return None
        spec = importlib.util.spec_from_file_location(_MODULE, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    # No compiler or Python headers (cffi wraps both as VerificationError),
    # an unwritable temp dir, or a module the loader rejects.
    except (cffi.VerificationError, OSError, ImportError):
        return None
    return module


def _private(home: Path) -> bool:
    """Whether ``home`` may hold a module this process loads.

    The temp dir is shared and the cache path is predictable, so only a
    directory this user owns and no one else can write qualifies.
    """
    st = home.stat()
    uid = os.getuid() if hasattr(os, "getuid") else st.st_uid
    return st.st_uid == uid and not st.st_mode & 0o022


def _build(cffi, source: str, home: Path, target: Path) -> None:
    home.mkdir(mode=0o700, parents=True, exist_ok=True)
    work = tempfile.mkdtemp(dir=home)  # private to this builder
    try:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(_MODULE, source, extra_compile_args=["-O2"])
        os.replace(ffi.compile(tmpdir=work), target)
    finally:
        shutil.rmtree(work, ignore_errors=True)
