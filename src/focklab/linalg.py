"""Dense linear algebra for truncated Fock space.

Hermitian eigensolves, scipy's compiled expm kernel loaded without the
scipy package, and a scope that runs every loaded OpenBLAS on one thread.
"""

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import threading

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

# open single-thread scopes, and the thread count each OpenBLAS had when
# the outermost scope first set it to 1 (keyed by library path)
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = {}


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """m as complex, a square matrix or a stack of them, each Hermitian within tolerance."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    if (m == adjoint).all():  # every channel output and sampled state
        return m
    square = (-2, -1)
    defect = np.abs(m - adjoint).max(axis=square, initial=0.0)
    scale = np.maximum(1.0, np.abs(m).max(axis=square, initial=0.0))
    bad = defect > HERMITICITY_TOL * scale
    if bad.any():
        raise NonHermitianError(f"Hermiticity defect {defect[bad][0]:.3e} too large")
    return m


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each in a stack, sorted descending."""
    m = _require_hermitian(m)
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    return vals[..., ::-1].copy()


def hermitian_eigh(m: np.ndarray):
    """Eigenvalues (descending) and matching eigenvector columns."""
    m = _require_hermitian(m)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vals[order].copy(), vecs[:, order].copy()


# scipy release from which _load_expm runs the compiled kernel itself: its
# pade_UV_calc takes (work, m) and pick_pade_structure scales the work
# array, and the oracle test in tests/test_linalg.py proves the bits on it.
# Earlier releases are untested here and may call the kernel otherwise.
EXPM_KERNEL_SCIPY = (1, 17)


def _scipy_file(name: str, *parts: str):
    """Execute the file scipy/<parts> as module `name` and return it.

    Neither scipy/__init__ nor a subpackage __init__ runs, and the module
    is not entered in sys.modules.
    """
    path = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], *parts)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scipy_version() -> tuple:
    """(major, minor) of the installed scipy, read from scipy/version.py.

    importlib.metadata would cost ~1.5 MB of RSS and ~30 ms per process.
    """
    version = _scipy_file("scipy.version", "version.py").short_version
    return tuple(int(part) for part in version.split(".")[:2])


def _expm_kernel():
    """scipy's compiled expm module, loaded by file path.

    The process maps the module and its libscipy_openblas but not
    scipy's Python package (~25 MB of RSS and ~0.3 s).
    """
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # the tagged one, as scipy's build names it
    return _scipy_file("scipy.linalg._matfuncs_expm", "linalg", "_matfuncs_expm" + suffix)


def _load_expm():
    """A matrix exponential with the bits of scipy.linalg.expm.

    From scipy EXPM_KERNEL_SCIPY on, this runs scipy's Al-Mohy–Higham
    scaling and squaring (SIAM J. Matrix Anal. Appl. 31, 970, 2009) as
    scipy.linalg.expm does for one 2-D matrix: the diagonal shortcut,
    then the compiled Padé kernel on a (5, n, n) work array, then s
    squarings with `@`.  Only square matrices that are diagonal or not
    triangular are supported: scipy squares triangular ones another way.
    On an earlier scipy this returns scipy.linalg.expm itself.  Call it
    before a
    _single_blas_thread scope opens, so that the scope finds the
    kernel's OpenBLAS.
    """
    if _scipy_version() < EXPM_KERNEL_SCIPY:
        from scipy.linalg import expm as scipy_expm

        return scipy_expm
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
    """Run every loaded OpenBLAS on one thread until the last open scope closes.

    Scopes nest and may overlap across threads.  Each scope that opens
    saves the count of, and sets to 1, every OpenBLAS not yet saved,
    including one loaded since an outer scope opened; the last scope to
    close puts the saved counts back.  One thread matters twice: with
    numpy's and scipy's OpenBLAS both loaded, each library's thread pool
    spins while the other works; and pool workers forked inside inherit
    the single thread, so --jobs is a command's only parallelism.
    """
    global _blas_depth
    with _blas_lock:
        for path, (get, put) in _loaded_openblas().items():
            if path not in _blas_saved:
                _blas_saved[path] = (put, get())
                put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for put, count in _blas_saved.values():
                    put(count)
                _blas_saved.clear()
