import numpy as np
import pytest

from hspolymer import lpp
from hspolymer.distributions import exponential_cdf, gamma_cdf
from hspolymer.lattice import replicated_rows
from hspolymer.rng import RngStream
from hspolymer.stats import SampleSet, ks_one_sample


def _exp_params(rng, size):
    return lpp.LppExpParams(float(rng.gen.uniform(0.2, 1.0)),
                            tuple(rng.gen.uniform(0.6, 2.0, size=size)))


def _geom_params(rng, size):
    return lpp.LppGeomParams(float(rng.gen.uniform(0.3, 0.9)),
                             tuple(rng.gen.uniform(0.3, 0.9, size=size)))


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (4, 4), (6, 3), (7, 5)])
@pytest.mark.parametrize("family,replicas", [("exp", None), ("geom", None),
                                             ("exp", 5), ("geom", 5)],
                         ids=["exp", "geom", "exp-R5", "geom-R5"])
def test_recurrence_matches_bruteforce(family, replicas, n, m):
    rng = RngStream(4000 + 10 * n + m)
    params = _exp_params(rng, n) if family == "exp" else _geom_params(rng, n)
    if replicas is None:
        w = lpp.sample_lpp_weights(params, n, rng)
        grid = lpp.lpp_recurrence(w, n)
        assert grid.times[n, m] == pytest.approx(lpp.lpp_bruteforce(w, n, m),
                                                 rel=1e-12, abs=1e-12)
        return
    # the shared row sweep in the (max, +) semiring, one replica per field
    ws = [lpp.sample_lpp_weights(params, n, rng) for _ in range(replicas)]
    got = replicated_rows(lambda i: np.stack([w[i, : i + 1] for w in ws]),
                          n, n, replicas, {n: [m]}, plus=np.maximum)[(n, m)]
    assert got.shape == (replicas,)
    for g, w in zip(got, ws):
        bf = lpp.lpp_bruteforce(w, n, m)
        if family == "geom":
            assert g == bf  # integer weights: the cumsum shift is exact
        else:
            assert g == pytest.approx(bf, rel=1e-12, abs=1e-12)


def test_geometric_weights_are_nonnegative_integers():
    rng = RngStream(4001)
    w = lpp.sample_lpp_weights(_geom_params(rng, 5), 5, rng)
    vals = w[~np.isnan(w)]
    assert np.all(vals >= 0)
    assert np.all(vals == np.floor(vals))


def test_passage_time_monotone_in_weights():
    # larger weights can only increase every passage time
    rng = RngStream(4002)
    params = _exp_params(rng, 6)
    u = rng.gen.random(size=(7, 7))
    w_hi = np.full((7, 7), np.nan)
    w_lo = np.full((7, 7), np.nan)
    for i in range(1, 7):
        for j in range(1, i + 1):
            r = params.rate(i, j)
            w_lo[i, j] = -np.log(u[i, j]) / (2.0 * r)
            w_hi[i, j] = -np.log(u[i, j]) / r
    g_lo = lpp.lpp_recurrence(w_lo, 6).times
    g_hi = lpp.lpp_recurrence(w_hi, 6).times
    mask = ~np.isnan(g_lo)
    assert np.all(g_hi[mask] >= g_lo[mask])


def test_params_validation():
    with pytest.raises(ValueError):
        lpp.LppExpParams(0.5, (0.3, -0.4)).validate(2)
    with pytest.raises(ValueError):
        lpp.LppGeomParams(0.5, (0.9, 2.5)).validate(2)
    # an invalid site is fine when exempted
    lpp.LppExpParams(0.5, (-0.5, 1.0)).validate(2, frozenset({(1, 1)}))


@pytest.mark.parametrize("kind,bulk,p1,p2", [
    ("geom_one", 0.9, 0.8, None),      # q / r >= 1
    ("geom_two", 0.5, 0.6, 0.3),       # q / s >= 1
    ("exp_one", 0.5, 0.7, None),       # a - u < 0
    ("exp_two", 1.0, 0.2, 0.5),        # u - v < 0
    ("bogus", 1.0, 0.5, None),
])
def test_stationary_setup_rejects_invalid(kind, bulk, p1, p2):
    with pytest.raises(ValueError):
        lpp._stationary_setup(kind, bulk, p1, p2)


def test_stationary_grid_pins_subtracted_corners():
    grid = lpp.stationary_lpp_grid(
        "exp_two", {"a": 1.0, "u": 0.6, "v": -0.3, "max_n": 5},
        RngStream(4003))
    assert grid.exemptions == frozenset({(1, 1), (2, 1)})
    assert grid.times[1, 1] == 0.0
    assert grid.times[2, 1] == 0.0
    assert grid.times[3, 1] > 0.0


def test_row_streamer_needs_base_offset_and_min_row():
    with pytest.raises(ValueError):
        lpp.stationary_row_samples_lpp("exp_one", 1.0, 0.3, 2, [1, 2], 10,
                                       RngStream(0))
    with pytest.raises(ValueError):
        lpp.stationary_row_samples_lpp("exp_two", 1.0, 0.6, 1, [0, 1], 10,
                                       RngStream(0), p2=-0.3)
    with pytest.raises(ValueError):
        lpp.stationary_row_samples_lpp("exp_one", 1.0, 0.3, 0, [0, 1], 10,
                                       RngStream(0))


def test_row_streamer_deterministic():
    a = lpp.stationary_row_samples_lpp("geom_one", 0.5, 0.8, 2, [0, 2], 300,
                                       RngStream(4004))
    b = lpp.stationary_row_samples_lpp("geom_one", 0.5, 0.8, 2, [0, 2], 300,
                                       RngStream(4004))
    for k in (0, 2):
        assert np.array_equal(a[k], b[k])
    assert np.all(a[0] == 0.0)


def test_exp_one_row_increments_are_exponential():
    a, u = 1.0, 0.3
    got = lpp.stationary_row_samples_lpp("exp_one", a, u, 2, [0, 1, 4], 30000,
                                         RngStream(4005))
    res = ks_one_sample(SampleSet(got[1]), lambda x: exponential_cdf(x, a - u))
    assert res.passed, (res.statistic, res.threshold)
    # k steps along the row accumulate k independent such increments
    res4 = ks_one_sample(SampleSet(got[4]), lambda x: gamma_cdf((a - u) * x, 4))
    assert res4.passed, (res4.statistic, res4.threshold)


def test_limit_check_rejects_nondecreasing_grid():
    with pytest.raises(ValueError):
        lpp.loggamma_to_exp_limit_check(0.5, (0.8, 1.2, 1.0, 0.9), [0.1, 0.1],
                                        RngStream(0), n_replicas=10)


def test_limit_check_statistic_shrinks_with_epsilon():
    out = lpp.loggamma_to_exp_limit_check(0.5, (0.8, 1.2, 1.0, 0.9),
                                          [0.6, 0.05], RngStream(4006),
                                          n_replicas=4000)
    assert out["n"] == 4 and out["m"] == 3
    assert set(out["ks"]) == {0.6, 0.05}
    assert out["ks"][0.6]["statistic"] > out["ks"][0.05]["statistic"]
    assert out["ks"][0.05]["statistic"] < 3.0 * out["ks"][0.05]["threshold"]
