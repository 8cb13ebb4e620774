import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hspolymer import distributions as d
from hspolymer.rng import RngStream
from hspolymer.stats import SampleSet, ks_one_sample

N = 10 ** 5


def _ks_ok(values, cdf):
    res = ks_one_sample(SampleSet(np.asarray(values), label="test"), cdf)
    assert res.statistic <= res.threshold, (res.statistic, res.threshold)


def test_inverse_gamma_sampler_law():
    rng = RngStream(101)
    x = d.sample_inverse_gamma(1.7, rng, size=N)
    _ks_ok(x, lambda t: d.inverse_gamma_cdf(t, 1.7))


def test_gamma_sampler_law_small_shape():
    rng = RngStream(102)
    x = d.sample_gamma(0.35, rng, size=N)
    _ks_ok(x, lambda t: d.gamma_cdf(t, 0.35))


def test_exponential_sampler_law():
    rng = RngStream(103)
    x = d.sample_exponential(2.3, rng, size=N)
    _ks_ok(x, lambda t: d.exponential_cdf(t, 2.3))


def test_geometric_sampler_pmf():
    rng = RngStream(105)
    q = 0.6
    g = d.sample_geometric(q, rng, size=N)
    assert g.dtype == np.int64 and g.min() >= 0
    for k in range(5):
        frac = np.mean(g == k)
        p = (1 - q) * q ** k
        assert frac == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / N))


class _ZeroUniforms:
    """Stands in for an RngStream whose uniforms are all exactly 0."""

    class gen:
        @staticmethod
        def random(size=None):
            return 0.0 if size is None else np.zeros(size)


@pytest.mark.parametrize("q", [0.6, np.nextafter(1.0, 0.0)])
def test_geometric_sampler_at_zero_uniform(q):
    expect = np.floor(np.log(np.finfo(float).smallest_subnormal) / np.log(q))
    g = d.sample_geometric(q, _ZeroUniforms(), size=3)
    assert g.dtype == np.int64 and np.all(g == expect) and expect >= 0
    assert d.sample_geometric(q, _ZeroUniforms()) == expect


def test_geometric_sampler_is_inversion_for_positive_uniforms():
    q = 0.6
    u = RngStream(106).gen.random(size=1000)
    assert np.all(u > 0)
    expect = np.floor(np.log(u) / np.log(q)).astype(np.int64)
    assert np.array_equal(d.sample_geometric(q, RngStream(106), size=1000), expect)


def test_inverse_gamma_moment_formula():
    assert d.inverse_gamma_moment(3.0, 1) == pytest.approx(0.5)
    assert d.inverse_gamma_moment(3.0, 2) == pytest.approx(0.5)
    assert d.inverse_gamma_moment(4.5, 2) == pytest.approx(1.0 / (3.5 * 2.5))
    with pytest.raises(ValueError):
        d.inverse_gamma_moment(2.0, 2)
    with pytest.raises(ValueError):
        d.inverse_gamma_moment(2.0, 0)


def test_inverse_gamma_moment_vs_mc():
    rng = RngStream(106)
    x = d.sample_inverse_gamma(4.0, rng, size=N)
    est = np.mean(x)
    se = np.std(x) / np.sqrt(N)
    assert abs(est - d.inverse_gamma_moment(4.0, 1)) < 4 * se


def test_normal_cdf():
    assert d.normal_cdf(0.0) == pytest.approx(0.5)
    assert d.normal_cdf(1.3, mean=1.3, sd=2.0) == pytest.approx(0.5)
    assert d.normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)


@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_inverse_gamma_cdf_range_and_tails(x, theta):
    p = d.inverse_gamma_cdf(x, theta)
    assert 0.0 <= p <= 1.0
    assert d.inverse_gamma_cdf(x + 1.0, theta) >= p


@pytest.mark.parametrize("fn,args", [
    (d.sample_gamma, (0.0,)),
    (d.sample_inverse_gamma, (-1.0,)),
    (d.sample_exponential, (0.0,)),
    (d.sample_geometric, (1.0,)),
])
def test_invalid_parameters_rejected(fn, args):
    with pytest.raises(ValueError):
        fn(*args, RngStream(0), size=3)

