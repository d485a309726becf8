import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from gibbsmix.groups import build_cyclic, build_dihedral, build_hypercube

# the suite writes nothing into the source tree: no example database, and
# Hypothesis' other caches (it keeps one even without a database) go to a
# temporary directory removed at exit
settings.register_profile("gibbsmix", database=None)
settings.load_profile("gibbsmix")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="gibbsmix-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def z4():
    return build_cyclic(4, [1, 3])


@pytest.fixture
def z6():
    return build_cyclic(6, [1, 5])


@pytest.fixture
def z6_complete():
    return build_cyclic(6, range(1, 6))


@pytest.fixture
def dihedral3():
    return build_dihedral(3)


@pytest.fixture
def cube3():
    return build_hypercube(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
