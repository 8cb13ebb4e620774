import numpy as np
import pytest

from hspolymer import stationary
from hspolymer.distributions import inverse_gamma_moment, normal_cdf
from hspolymer.rng import RngStream
from hspolymer.stats import SampleSet, ks_one_sample, ks_two_sample, moment_compare


def _p(alpha, u, v):
    return stationary.DiscreteStationaryParams(alpha, u, v)


def test_discrete_params_validation():
    with pytest.raises(ValueError):
        _p(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        _p(1.0, -1.2, 0.0)  # u <= -alpha
    with pytest.raises(ValueError):
        _p(1.0, 0.5, 1.1)  # v >= alpha
    with pytest.raises(ValueError):
        _p(1.0, 0.2, 0.5)  # v > u
    _p(1.0, 0.5, -0.5)


def test_continuum_params_validation():
    with pytest.raises(ValueError):
        stationary.ContinuumStationaryParams(0.5, 0.2, delta=0.0)
    with pytest.raises(ValueError):
        stationary.ContinuumStationaryParams(0.5, 0.2, x_max=-1.0)
    with pytest.raises(ValueError):
        stationary.ContinuumStationaryParams(0.2, 0.5)


def test_zuv_boundary_free_case_is_plain_walk():
    # at u = v the boundary term drops and the path is the xi-walk itself
    a = stationary.sample_zuv_path(_p(1.5, 0.4, 0.4), 6, RngStream(3001), 200)
    b = stationary._log_ig_walk(1.5 - 0.4, 6, RngStream(3001), 200)
    assert np.array_equal(a, b)


def test_zuv_starts_at_one():
    z = stationary.sample_zuv_path(_p(1.5, 0.8, 0.2), 4, RngStream(3002), 300)
    assert np.all(z[:, 0] == 0.0)


def test_pra_rejects_degenerate_boundary():
    with pytest.raises(ValueError):
        stationary.sample_zuv_pra(_p(1.5, 0.4, 0.4), 4, RngStream(0))


def test_pra_product_structure():
    path = stationary.sample_zuv_pra(_p(1.5, 0.8, 0.2), 6, RngStream(3003), 400)
    assert np.array_equal(path.log_z, path.log_p + path.log_a)
    assert np.all(path.log_r[:, 0] == -np.inf)
    # a(k) is a running sum of positive terms over a fixed boundary weight
    assert np.all(np.diff(path.log_a, axis=1) >= 0.0)
    assert np.all(path.log_a[:, 0] == 0.0)


def test_pra_agrees_with_direct_sampler_in_law():
    p = _p(1.5, 0.8, 0.2)
    direct = stationary.sample_zuv_path(p, 5, RngStream(3004), 20000)
    pra = stationary.sample_zuv_pra(p, 5, RngStream(3005), 20000)
    for k in (1, 5):
        res = ks_two_sample(SampleSet(direct[:, k], label="direct"),
                            SampleSet(pra.log_z[:, k], label="pra"))
        assert res.passed, (k, res.statistic, res.threshold)


def test_zuv_law_even_in_boundary_drift_sign():
    direct = stationary.sample_zuv_path(_p(1.5, 0.8, 0.4), 3, RngStream(3006),
                                        20000)
    flipped = stationary.sample_zuv_path(_p(1.5, 0.8, -0.4), 3, RngStream(3007),
                                         20000)
    res = ks_two_sample(SampleSet(direct[:, 3], label="+v"),
                        SampleSet(flipped[:, 3], label="-v"))
    assert res.passed, (res.statistic, res.threshold)


def test_huv_routes_agree_in_law():
    p = stationary.ContinuumStationaryParams(0.8, 0.3, delta=2.0 ** -8,
                                             x_max=1.0)
    a = stationary.sample_Huv_path(p, RngStream(3008), 6000)["H"][:, 0]
    b = stationary.sample_Huv_pitman(p, RngStream(3009), 6000)["H"][:, 0]
    res = ks_two_sample(SampleSet(a, label="direct"), SampleSet(b, label="pitman"))
    assert res.passed, (res.statistic, res.threshold)


def test_huv_antisymmetric_point_is_brownian():
    # u = -v > 0 collapses to a Brownian motion with drift u
    u = 0.4
    p = stationary.ContinuumStationaryParams(u, -u, delta=2.0 ** -8, x_max=1.0)
    h = stationary.sample_Huv_path(p, RngStream(3010), 6000)["H"][:, 0]
    res = ks_one_sample(SampleSet(h), lambda x: normal_cdf(x, u, 1.0))
    assert res.passed, (res.statistic, res.threshold)


def test_huv_degenerate_boundary_is_drifted_brownian():
    # u = v keeps only the second walk, exactly N(vX, X) at any grid step
    v = 0.3
    p = stationary.ContinuumStationaryParams(v, v, delta=2.0 ** -4, x_max=1.0)
    h = stationary.sample_Huv_path(p, RngStream(3011), 20000)["H"][:, 0]
    res = ks_one_sample(SampleSet(h), lambda x: normal_cdf(x, v, 1.0))
    assert res.passed, (res.statistic, res.threshold)


def test_huv_rejects_record_beyond_range():
    p = stationary.ContinuumStationaryParams(0.8, 0.3, x_max=1.0)
    with pytest.raises(ValueError):
        stationary.sample_Huv_path(p, RngStream(0), 1, x_record=[2.0])


def test_scaled_initial_data_grid_checks():
    rng = RngStream(3012)
    with pytest.raises(ValueError):
        stationary.scaled_initial_data(16, 0.6, 0.2, [0.3], rng)
    out = stationary.scaled_initial_data(16, 0.6, 0.2, [0.0, 0.5], rng, 100)
    assert out.shape == (100, 2)
    assert np.all(out[:, 0] == 0.0)


@pytest.mark.parametrize("u,v", [(0.6, 0.2), (0.4, 0.4)], ids=["u_gt_v", "u_eq_v"])
def test_scaled_initial_data_is_shifted_zuv(u, v):
    # k log sqrt(n) + log z_{u,v}(k) at alpha_n = 1/2 + sqrt(n), same draws
    n, xs = 16, [0.0, 0.25, 1.0, 1.5]
    got = stationary.scaled_initial_data(n, u, v, xs, RngStream(3015), 80)
    ks = [int(round(4 * x)) for x in xs]
    z = stationary.sample_zuv_path(_p(0.5 + 4.0, u, v), max(ks),
                                   RngStream(3015), 80)
    expect = np.array(ks) * np.log(4.0) + z[:, ks]
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)


def test_scaled_initial_data_deterministic():
    a = stationary.scaled_initial_data(16, 0.6, 0.2, [0.25, 1.0],
                                       RngStream(3013), 50)
    b = stationary.scaled_initial_data(16, 0.6, 0.2, [0.25, 1.0],
                                       RngStream(3013), 50)
    assert np.array_equal(a, b)


def test_second_moment_even_in_boundary_drift_sign():
    for n, u, x in [(256, 1.0, 0.25), (1024, 0.5, 0.5), (4096, 2.0, 0.25)]:
        plus = stationary.second_moment_analytic(n, u, 0.4, x)
        minus = stationary.second_moment_analytic(n, u, -0.4, x)
        assert plus == pytest.approx(minus, rel=1e-12)


def test_second_moment_degenerate_boundary_closed_form():
    n, v = 1024, 0.3
    alpha_n = 0.5 + np.sqrt(n)
    for x in (0.25, 0.5):
        k = int(round(np.sqrt(n) * x))
        expect = (n * inverse_gamma_moment(alpha_n - v, 2)) ** k
        got = stationary.second_moment_analytic(n, v, v, x)
        assert got == pytest.approx(expect, rel=1e-12)


def test_second_moment_one_step_hand_formula():
    # k = 1: value is sqrt(n) r2 (1 + r1 / varpi), independent factors
    n, u, v = 256, 0.9, -0.5
    alpha_n = 0.5 + np.sqrt(n)
    m1p = inverse_gamma_moment(alpha_n + v, 1)
    m2p = inverse_gamma_moment(alpha_n + v, 2)
    m2m = inverse_gamma_moment(alpha_n - v, 2)
    e1 = u - v
    e2 = (u - v) * (u - v + 1.0)
    expect = n * m2m * (1.0 + 2.0 * m1p * e1 + m2p * e2)
    got = stationary.second_moment_analytic(n, u, v, 1.0 / np.sqrt(n))
    assert got == pytest.approx(expect, rel=1e-12)


def test_second_moment_matches_sampler():
    n, u, v, x = 100, 0.5, -0.5, 0.1
    logv = stationary.scaled_initial_data(n, u, v, [x], RngStream(3014),
                                          200000)[:, 0]
    target = stationary.second_moment_analytic(n, u, v, x)
    rep = moment_compare(SampleSet(np.exp(2.0 * logv)), 1, target)
    assert rep["pass"], rep


def test_second_moment_validation():
    with pytest.raises(ValueError):
        stationary.second_moment_analytic(1, 0.5, 0.4, 1.0)  # moments diverge
    with pytest.raises(ValueError):
        stationary.second_moment_analytic(100, 0.2, 0.5, 0.1)  # u < v
    with pytest.raises(ValueError):
        stationary.second_moment_analytic(100, 0.5, 0.2, 0.123)  # off-grid X
