"""Dense linear algebra for truncated Fock space.

Hermitian eigensolves, scipy's compiled expm kernel loaded without the
scipy package, and a scope that runs every loaded OpenBLAS on one thread.
"""

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os

import numpy as np

from .errors import EigensolverError, InvalidDimensionError, NonHermitianError
from .states import HERMITICITY_TOL

# thread-count getter and setter of each OpenBLAS build: scipy-openblas
# wheels prefix the symbols, and 64-bit-integer builds add a suffix
OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """m as a complex square matrix, Hermitian within tolerance."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    adjoint = m.conj().T
    if (m == adjoint).all():  # every channel output and sampled state
        return m
    defect = np.abs(m - adjoint).max(initial=0.0)
    if defect > HERMITICITY_TOL * max(1.0, np.abs(m).max(initial=0.0)):
        raise NonHermitianError(f"Hermiticity defect {defect:.3e} too large")
    return m


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    m = _require_hermitian(m)
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    return vals[::-1].copy()


def hermitian_eigh(m: np.ndarray):
    """Eigenvalues (descending) and matching eigenvector columns."""
    m = _require_hermitian(m)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vals[order].copy(), vecs[:, order].copy()


def _expm_kernel():
    """scipy's compiled expm module, loaded by file path.

    Neither scipy/__init__ nor its linalg package runs: the process maps
    the module and its libscipy_openblas but not scipy's Python package
    (~25 MB of RSS and ~0.3 s).  The module enters sys.modules as
    _matfuncs_expm.  Every OpenBLAS that scipy's distribution ships (in
    the wheel, scipy.libs/ beside the package) is then set to one thread
    for the rest of the process, whether this load or an earlier import
    of scipy.linalg mapped it: its thread pool would spin against
    numpy's.  A scipy that shares numpy's OpenBLAS has none to pin.
    """
    scipy_dir = os.path.realpath(importlib.util.find_spec("scipy").submodule_search_locations[0])
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # the tagged one, as scipy's build names it
    path = os.path.join(scipy_dir, "linalg", "_matfuncs_expm" + suffix)
    spec = importlib.util.spec_from_file_location("_matfuncs_expm", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for lib, (_, put) in _loaded_openblas().items():
        if lib.startswith((scipy_dir + os.sep, scipy_dir + ".libs" + os.sep)):
            put(1)
    return module


def _load_expm():
    """A matrix exponential with the bits of scipy's expm.

    It runs scipy's Al-Mohy–Higham scaling and squaring (SIAM J. Matrix
    Anal. Appl. 31, 970, 2009) as scipy's expm does for one 2-D matrix:
    the diagonal shortcut, then the compiled Padé kernel on a (5, n, n)
    work array, then s squarings with `@`.  The kernel is called as
    scipy 1.17, the declared floor, calls it: pade_UV_calc takes (work,
    m) and pick_pade_structure scales the work array; the oracle test in
    tests/test_linalg.py checks the bits on the installed scipy.  Only
    square matrices that are diagonal or not triangular are supported:
    scipy squares triangular ones another way.  Loading the kernel sets
    scipy's own OpenBLAS, not numpy's, to one thread (_expm_kernel).
    """
    kernel = _expm_kernel()
    pick_pade_structure, pade_uv_calc = kernel.pick_pade_structure, kernel.pade_UV_calc

    def expm(a: np.ndarray) -> np.ndarray:
        if not (np.tril(a, -1).any() or np.triu(a, 1).any()):
            return np.diag(np.exp(np.diag(a)))
        n = a.shape[0]
        work = np.empty((5, n, n), dtype=a.dtype)
        work[0] = a
        m, s = pick_pade_structure(work)
        if m < 0:
            raise MemoryError(f"expm could not allocate its Padé workspace (code {m})")
        info = pade_uv_calc(work, m)
        if info != 0:
            raise RuntimeError(f"expm's Padé solve failed (LAPACK code {info})")
        out = work[0]
        for _ in range(s):
            out = out @ out
        return out

    return expm


def _loaded_openblas() -> dict:
    """Path -> (get_num_threads, set_num_threads) of every OpenBLAS in this process.

    Finds the libraries in /proc/self/maps; where that file does not
    exist (not Linux) or no OpenBLAS is mapped (e.g. MKL) the dict is
    empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return {}
    paths = sorted(
        {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    )
    controls = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls[path] = (get, put)
                break
    return controls


@contextlib.contextmanager
def _single_blas_thread():
    """Run every loaded OpenBLAS on one thread; put the counts back on exit.

    cli.main is the only opener.  Pool workers forked inside inherit the
    single thread, so --jobs is a command's only parallelism.
    """
    saved = [(put, get()) for get, put in _loaded_openblas().values()]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)
