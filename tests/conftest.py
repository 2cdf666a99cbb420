import tempfile

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
