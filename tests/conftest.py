import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# fixed examples, no timing limit and no example database, so a run is
# deterministic
settings.register_profile(
    "focklab", derandomize=True, deadline=None, database=None, max_examples=40
)
settings.load_profile("focklab")


def pytest_configure(config):
    # hypothesis also caches the constants it reads from local source
    # files; a temporary directory, removed when the run ends, keeps
    # .hypothesis/ out of the checkout
    storage = tempfile.TemporaryDirectory(prefix="focklab-hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)


def _openblas_or_skip():
    from focklab.linalg import _loaded_openblas

    controls = _loaded_openblas()
    if not controls:
        with open("/proc/self/maps") as fh:
            assert "openblas" not in fh.read(), "an OpenBLAS is mapped but was not found"
        pytest.skip("no OpenBLAS loaded")
    return controls


@pytest.fixture
def blas_controls():
    """(get, put) of every loaded OpenBLAS; skipped when none is loaded."""
    return list(_openblas_or_skip().values())


@pytest.fixture
def threaded_blas():
    """Set every OpenBLAS, scipy's included, to 2 threads; yield a reader of the counts by path.

    The counts are put back after the test.  Skipped on one core, where
    OpenBLAS starts with one thread, and when no OpenBLAS is loaded.
    """
    import scipy.linalg  # noqa: F401

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts with one thread on one core")
    controls = _openblas_or_skip()
    saved = {path: get() for path, (get, _) in controls.items()}
    for _, put in controls.values():
        put(2)
    yield lambda: {path: get() for path, (get, _) in controls.items()}
    for path, (_, put) in controls.items():
        put(saved[path])
