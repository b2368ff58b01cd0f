import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

import arbfscaffold
import arbfscaffold.cli  # noqa: F401  (see below)
from arbfscaffold import samples

# Property tests draw their examples from a hash of each test, not from a
# fresh random seed, so a run checks the same cases in bounded time.  Some
# draws also pick from the constants hypothesis reads out of every loaded
# non-test module of this project; arbfscaffold.cli is the one module that
# `import arbfscaffold` leaves out, so it is loaded here, and a test draws
# the same cases whichever test files a run collects.
settings.register_profile("tier1", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture
def tri_mesh():
    return samples.triangle_mesh()


@pytest.fixture
def tet_mesh():
    return samples.unit_tet_mesh()


@pytest.fixture(scope="session")
def regular_tet():
    return samples.regular_tet_mesh()


@pytest.fixture
def hex_mesh():
    return samples.unit_hex_mesh()


@pytest.fixture(scope="session")
def block_mesh():
    return samples.hex_block_mesh()


@pytest.fixture(scope="session")
def icosa_mesh():
    return samples.icosahedron_tet_mesh()


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture(scope="session")
def fresh_python():
    """Run code in a new interpreter that imports this arbfscaffold; returns its stdout.

    Keyword arguments are extra environment variables for that interpreter.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arbfscaffold.__file__)))

    def run(code: str, **extra_env: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=dict(env, **extra_env),
                              capture_output=True, text=True, check=True).stdout
    return run
