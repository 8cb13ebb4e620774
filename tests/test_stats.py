import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hspolymer.rng import RngStream
from hspolymer.stats import (KsResult, KsSuite, SampleSet, ks_one_sample,
                             ks_threshold, ks_two_sample, moment_compare)


def test_two_sample_exact_d_hand_case():
    a = SampleSet(np.array([1.0, 2.0, 3.0, 4.0]), label="a")
    b = SampleSet(np.array([3.5, 4.5]), label="b")
    # F_a jumps to 1 by x=4 while F_b is 1/2 there: D = 1/2 at x in [4, 4.5)
    res = ks_two_sample(a, b)
    assert res.statistic == pytest.approx(0.75)  # at x=3: F_a=3/4, F_b=0
    assert res.n_eff == pytest.approx(4 * 2 / 6)


def test_two_sample_identical_samples():
    a = SampleSet(np.array([0.3, 1.2, 5.0]))
    res = ks_two_sample(a, SampleSet(np.array([0.3, 1.2, 5.0])))
    assert res.statistic == 0.0


def test_one_sample_exact_d_uniform():
    # empirical CDF of {0.5} vs U(0,1): D = 0.5 on both sides
    res = ks_one_sample(SampleSet(np.array([0.5])), lambda x: np.clip(x, 0, 1))
    assert res.statistic == pytest.approx(0.5)


def test_one_sample_rejects_nonmonotone_cdf():
    with pytest.raises(ValueError):
        ks_one_sample(SampleSet(np.array([0.1, 0.9])), lambda x: -x)


def _p_at(lam):
    """p-value of a KS test whose statistic is lam at n = 1: one point at
    1 - lam against F(x) = x."""
    return ks_one_sample(SampleSet([1.0 - lam]), lambda x: x).p_approx


def test_kolmogorov_sf_reference_values():
    # classical table values of the limiting distribution, through the
    # p-value and the critical value the KS tests report
    assert _p_at(1.3581) == pytest.approx(0.05, abs=2e-4)
    assert _p_at(1.6276) == pytest.approx(0.01, abs=1e-4)
    assert ks_two_sample(SampleSet([1.0]), SampleSet([1.0])).p_approx == 1.0
    # lambda at alpha = 1e-3 (table value 1.9495), exactly: every catalog
    # threshold, and so every report fingerprint, rests on these bits
    assert ks_threshold(1.0) == 1.9494746035043753


def test_threshold_scaling():
    assert ks_threshold(400.0) == pytest.approx(ks_threshold(1.0) / 20.0)
    assert ks_threshold(100.0) > ks_threshold(10000.0)


def test_calibration_uniform_null():
    # under the null, D stays below the 0.1% threshold essentially always
    rng = RngStream(55)
    fails = 0
    for _ in range(50):
        x = rng.gen.random(2000)
        res = ks_one_sample(SampleSet(x), lambda t: np.clip(t, 0, 1))
        fails += not res.passed
    assert fails == 0


def test_detects_wrong_law():
    rng = RngStream(56)
    x = rng.gen.normal(0.1, 1.0, size=20000)
    from hspolymer.distributions import normal_cdf

    res = ks_one_sample(SampleSet(x), lambda t: normal_cdf(t))
    assert not res.passed


def test_moment_compare_pass_and_fail():
    rng = RngStream(57)
    x = SampleSet(rng.gen.normal(0.0, 1.0, size=50000))
    ok = moment_compare(x, 2, 1.0)
    assert ok["pass"] and ok["statistic"] < 3.0
    bad = moment_compare(x, 2, 1.2)
    assert not bad["pass"]
    assert not ok["se_blowup"]


def test_moment_compare_se_blowup_flag():
    # two opposite spikes: near-zero mean with enormous spread
    vals = np.ones(1000)
    vals[0], vals[1] = 1e9, -1e9
    rep = moment_compare(SampleSet(vals), 1, 1.0)
    assert rep["se_blowup"]


def test_sample_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SampleSet(np.array([]))


def _fake(stat, thr=0.1):
    return KsResult(statistic=stat, n_eff=100.0, p_approx=0.5, threshold=thr)


def test_suite_all_pass():
    s = KsSuite(name="t")
    s.add("a", _fake(0.05))
    s.add("b", _fake(0.08))
    # a statistic equal to its threshold passes, as in experiments._result
    s.add("c", _fake(0.1), resample=lambda stream: _fake(0.5))
    rep = s.evaluate()
    assert rep["pass"] and rep["retried"] == [] and rep["n_checks"] == 3
    assert rep["results"][2]["pass"]


def test_suite_hard_failure_not_retried():
    s = KsSuite(name="t")
    s.add("a", _fake(0.13), resample=lambda stream: _fake(0.01))
    rep = s.evaluate()
    assert not rep["pass"] and rep["retried"] == []


def test_suite_single_marginal_retried_and_cleared():
    s = KsSuite(name="t")
    s.add("a", _fake(0.05))
    s.add("b", _fake(0.11), resample=lambda stream: _fake(0.04))
    rep = s.evaluate(RngStream(1))
    assert rep["pass"]
    assert len(rep["retried"]) == 1 and rep["retried"][0]["label"] == "b"
    # the stored result is replaced by the retry
    assert rep["results"][1]["statistic"] == pytest.approx(0.04)


def test_suite_single_marginal_retry_fails():
    s = KsSuite(name="t")
    s.add("b", _fake(0.11), resample=lambda stream: _fake(0.105))
    rep = s.evaluate(RngStream(1))
    assert not rep["pass"]


def test_suite_two_marginals_fail_without_retry():
    s = KsSuite(name="t")
    s.add("a", _fake(0.105), resample=lambda stream: _fake(0.01))
    s.add("b", _fake(0.11), resample=lambda stream: _fake(0.01))
    rep = s.evaluate(RngStream(1))
    assert not rep["pass"] and rep["retried"] == []


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40),
       st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_two_sample_symmetry_and_range(xs, ys):
    a = SampleSet(np.array(xs))
    b = SampleSet(np.array(ys))
    r1 = ks_two_sample(a, b)
    r2 = ks_two_sample(b, a)
    assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)
    assert 0.0 <= r1.statistic <= 1.0
