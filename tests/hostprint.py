"""The host facts that pinned output bytes depend on, for failure messages.

``perfbench/golden.json`` and the ``TestAdaptiveBits`` digests hold only
where numpy's OpenBLAS picks the kernel, and numpy runs the SIMD loops,
that the pins were recorded with (README, "Which bytes depend on the
host"). A test that compares with a pin names this host's fingerprint
beside RECORDED, so a mismatch shows at once whether the host differs
from the pins' host or the program changed its bytes.
"""

import ctypes
import platform
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# a host every pin holds on: the whole suite passes there (x86-64 with
# AVX-512, numpy 2.4.6 and its bundled OpenBLAS 0.3.31)
RECORDED = {"openblas_core": "SkylakeX",
            "numpy_simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
            "libc": ["glibc", "2.36"]}


def _openblas_core():
    """The kernel numpy's OpenBLAS chose at load, or None where numpy
    bundles no scipy-openblas library (another BLAS, another platform)."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def fingerprint() -> dict:
    """This host's fingerprint, keyed as RECORDED: the OpenBLAS kernel,
    the SIMD targets numpy dispatches to, and the C library."""
    return {"openblas_core": _openblas_core(),
            "numpy_simd": [f for f in __cpu_dispatch__
                           if __cpu_features__.get(f)],
            "libc": list(platform.libc_ver())}


def mismatch() -> str:
    """The message of a failed comparison with a pin."""
    return (f"this host: {fingerprint()}; "
            f"the pins were recorded on: {RECORDED}")
