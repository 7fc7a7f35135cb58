import os

# One BLAS thread: on small hosts threaded BLAS slows the grid solves' small
# block products.  OpenBLAS reads these only when numpy loads it, so they are
# set before the import below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

try:
    from hypothesis import settings
    settings.register_profile("ci", deadline=None, max_examples=50)
    settings.load_profile("ci")
except ImportError:
    pass


@pytest.fixture
def rng():
    return np.random.default_rng(0)
