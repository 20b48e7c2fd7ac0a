"""The C library of _anneal.c and the run size limit; imports only the standard library and numpy.

_kernel() builds the library with the system C compiler (``cc``) on first use, in the per-user
cache directory ($XDG_CACHE_HOME/cascor, else ~/.cache/cascor), and loads it through ctypes.
Its PCG64 streams take a seed as _seed_words gives it.  _check_run_size raises LimitError (exit
3 in the CLI) before a run allocates past _RUN_BYTES.
"""
import ctypes
import functools
import hashlib
import operator
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_anneal.c")
_CC = "cc"
# No -ffast-math, and no fused multiply-adds: local fields and exp arguments
# must round as the numpy reference rounds them.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# A run's spins and decoded bits, one byte per read and qubit or variable, may
# take at most this many bytes; files and lists built from them take several
# times more.
_RUN_BYTES = 1 << 28


class LimitError(RuntimeError):
    """Raised when a run would pass a fixed resource limit; the CLI exits 3."""


def _check_run_size(rows: int, width: int, what: str) -> None:
    """LimitError unless rows of width bytes, plus 8 bytes per row, fit _RUN_BYTES."""
    size = rows * (width + 8)
    if size > _RUN_BYTES:
        raise LimitError(f"{what} of {rows} rows x {width} would take {size} bytes, "
                         f"past the {_RUN_BYTES}-byte limit")


def _seed_words(seed: int) -> np.ndarray:
    """SeedSequence's entropy words for a seed >= 0: its 32-bit digits, least significant first."""
    seed = operator.index(seed)
    shifts = range(0, max(seed.bit_length(), 1), 32)
    return np.array([seed >> shift & 0xFFFFFFFF for shift in shifts], dtype=np.uint32)


def _build_kernel() -> Path:
    """Path of the compiled kernel in the per-user cache, compiling it first if absent.

    The file is keyed by a SHA-256 of the source, compiler and flags, and is
    compiled under a temporary name and renamed into place, so processes that
    build at once each load a complete library.
    """
    command = [_CC, *_CFLAGS]
    key = hashlib.sha256(repr(command).encode() + _SOURCE.read_bytes()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "cascor"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise RuntimeError(f"kernel cache {cache} is not private to this user")
    lib = cache / f"_anneal-{key[:32]}.so"
    if lib.exists():
        return lib
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
    os.close(fd)
    try:
        done = subprocess.run([*command, "-o", tmp, str(_SOURCE), "-lm"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"C compiler {_CC!r} failed on {_SOURCE.name}:\n{done.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.cache
def _kernel():
    """The anneal kernel, sample codec and mixed-SAT draw and count, built and loaded once."""
    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except OSError as exc:
        # say, no compiler: a RuntimeError that names it, not the bare OSError
        raise RuntimeError(
            f"cannot build or load the anneal kernel with C compiler {_CC!r}: {exc}") from exc
    i64 = ctypes.c_int64
    u32s, u64s, i64s, f64s, i8s = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                                   for t in (np.uint32, np.uint64, np.int64, np.float64, np.int8))
    head = [u32s, i64, i64, i64, i64, i64s, i64s]  # stream, sizes and CSR structure
    lib.cascor_anneal_float.argtypes = [*head, f64s, f64s, f64s, i8s]
    for anneal in (lib.cascor_anneal_int, lib.cascor_anneal_int_scalar):
        anneal.argtypes = [*head, i64s, i64s, u64s, i64, i64s, i8s]
        anneal.restype = None
    lib.cascor_anneal_float.restype = None
    lib.cascor_sample_lines.argtypes = [i64, *[i64s] * 5, i64, ctypes.c_char_p, i64s,
                                        np.ctypeslib.ndpointer(np.uint8), i64]
    lib.cascor_sample_scan.argtypes = [ctypes.c_char_p, i64, i64, i64, i64s, i8s]
    lib.cascor_sample_lines.restype = lib.cascor_sample_scan.restype = i64
    lib.cascor_draw_instance.argtypes = [u32s, i64, ctypes.c_uint64, i64, i64, i64s, f64s, i64,
                                         i64s, i64s]
    lib.cascor_count_solutions.argtypes = [i64, i64, u64s, i64, u64s]
    lib.cascor_draw_instance.restype = lib.cascor_count_solutions.restype = i64
    return lib
