import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stringfock import oscillators
from stringfock.basis import enumerate_basis
from stringfock.config import euclidean_metric, minkowski_metric


@pytest.fixture(scope="session")
def small_cov_basis():
    return enumerate_basis(4, 4)


@pytest.fixture(scope="session")
def small_cov_metric():
    return minkowski_metric(4)


@pytest.fixture(scope="session")
def small_lc_basis():
    return enumerate_basis(2, 4)


@pytest.fixture(scope="session")
def small_lc_metric():
    return euclidean_metric(2)


@pytest.fixture(scope="session")
def cov26_basis_n2():
    return enumerate_basis(26, 2)


@pytest.fixture(scope="session")
def cov26_metric():
    return minkowski_metric(26)


_LOWERING_CORRUPTIONS = {
    "no-multiplicity": lambda modes, n, eta: n * eta,
    "all-modes-counted": lambda modes, n, eta: len(modes) * n * eta,
}


@pytest.fixture(params=sorted(_LOWERING_CORRUPTIONS))
def corrupted_alpha_apply(request):
    """``alpha_apply`` with a wrong lowering coefficient, for routes to agree on."""
    original = oscillators.alpha_apply
    coefficient = _LOWERING_CORRUPTIONS[request.param]

    def corrupted(modes, n, mu, signs, cutoff):
        res = original(modes, n, mu, signs, cutoff)
        if res is None or n < 0:
            return res
        return coefficient(modes, n, signs[mu]), res[1]

    return corrupted
