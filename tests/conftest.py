"""Shared fixtures: reference shapes and the session-wide campaign."""

import pytest

from tetrametric import (GeneratorSpec, campaign, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize)

CAMPAIGN_N = 500
CAMPAIGN_SEED = 42


@pytest.fixture(scope="session")
def regular():
    return normalize(make_regular(1.0))


@pytest.fixture(scope="session")
def iso567():
    return make_isosceles(5.0, 6.0, 7.0)


@pytest.fixture(scope="session")
def normal_thick():
    return make_normal_eps_thick(0.01)


@pytest.fixture(scope="session")
def campaign_500():
    """The 500-instance random campaign shared by the acceptance criteria.

    Built once; the wall-clock duration is recorded on the result object so
    the runtime criterion can assert on it without re-running.
    """
    import time

    t0 = time.time()
    result = campaign(GeneratorSpec(kind="random"), n=CAMPAIGN_N,
                      seed=CAMPAIGN_SEED)
    elapsed = time.time() - t0
    return result, elapsed
