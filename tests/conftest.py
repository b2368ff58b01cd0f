import numpy as np
import pytest
from hypothesis import settings

from arbfscaffold import samples

# Property tests draw their examples from a hash of each test, not from a
# fresh random seed, so every run checks the same cases in bounded time.
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
