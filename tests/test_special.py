import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

from hspolymer.special import digamma, trigamma


@pytest.mark.parametrize("x", [0.05, 0.3, 0.9, 1.0, 1.5, 2.0, 3.7, 10.0,
                               57.3, 400.0, 1e6])
def test_digamma_matches_scipy(x):
    assert digamma(x) == pytest.approx(float(sps.digamma(x)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", [0.05, 0.3, 0.9, 1.0, 1.5, 2.0, 3.7, 10.0,
                               57.3, 400.0, 1e6])
def test_trigamma_matches_scipy(x):
    assert trigamma(x) == pytest.approx(float(sps.polygamma(1, x)), rel=1e-12)


def test_known_values():
    # psi(1) = -gamma, psi(1/2) = -gamma - 2 log 2, psi'(1) = pi^2/6
    assert digamma(1.0) == pytest.approx(-np.euler_gamma, rel=1e-14)
    assert digamma(0.5) == pytest.approx(-np.euler_gamma - 2 * math.log(2), rel=1e-14)
    assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2, rel=1e-14)


@given(st.floats(min_value=0.01, max_value=500.0))
@settings(max_examples=60, deadline=None)
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                             rel=1e-10, abs=1e-10)


@given(st.floats(min_value=0.01, max_value=500.0))
@settings(max_examples=60, deadline=None)
def test_trigamma_recurrence(x):
    assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / x ** 2,
                                              rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_rejected(bad):
    with pytest.raises(ValueError):
        digamma(bad)
    with pytest.raises(ValueError):
        trigamma(bad)
