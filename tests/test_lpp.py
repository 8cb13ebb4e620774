import numpy as np
import pytest

from hspolymer import lpp
from hspolymer.distributions import (exponential_cdf, gamma_cdf,
                                     sample_exponential, sample_geometric)
from hspolymer.lattice import make_row_logw, replicated_rows
from hspolymer.rng import RngStream
from hspolymer.stats import SampleSet, ks_one_sample, ks_two_sample


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
            r = params.theta[i, j]
            w_lo[i, j] = -np.log(u[i, j]) / (2.0 * r)
            w_hi[i, j] = -np.log(u[i, j]) / r
    g_lo = lpp.lpp_recurrence(w_lo, 6).times
    g_hi = lpp.lpp_recurrence(w_hi, 6).times
    mask = ~np.isnan(g_lo)
    assert np.all(g_hi[mask] >= g_lo[mask])


def test_params_validation():
    # construction validates every drawn site: rate a_2 + a_1 < 0, and the
    # geometric parameter q_2 q_1 > 1
    with pytest.raises(ValueError, match=r"\(2,1\)"):
        lpp.LppExpParams(0.5, (0.3, -0.4))
    with pytest.raises(ValueError, match=r"\(2,1\)"):
        lpp.LppGeomParams(0.5, (0.9, 2.5))
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        lpp.LppGeomParams(2.0, (0.5, 0.5))  # q_circ q_1 = 1
    # an invalid site is fine when exempted
    p = lpp.LppExpParams(0.5, (-0.5, 1.0), frozenset({(1, 1)}))
    assert np.isnan(p.theta[1, 1]) and p.theta[2, 1] == 0.5
    with pytest.raises(ValueError, match="max_n"):
        lpp.sample_lpp_weights(p, 3, RngStream(0))  # beyond the parameter rows


@pytest.mark.parametrize("kind,bulk,p1,p2", [
    ("geom_one", 0.9, 0.8, None),      # q / r >= 1
    ("geom_two", 0.5, 0.6, 0.3),       # q / s >= 1
    ("exp_one", 0.5, 0.7, None),       # a - u < 0
    ("exp_two", 1.0, 0.2, 0.5),        # u - v < 0
    ("bogus", 1.0, 0.5, None),
])
def test_stationary_setup_rejects_invalid(kind, bulk, p1, p2):
    with pytest.raises(ValueError):
        lpp.stationary_params(kind, bulk, p1, p2, 5)


def test_stationary_setup_pins_subtracted_corners():
    # the one-row kinds pin (1,1), the two-row kinds (1,1) and (2,1); the
    # divergent corner weight is among them, so only the pinned rows validate
    for kind, p1, p2, pinned in [
            ("geom_one", 0.8, None, {(1, 1)}),
            ("geom_two", 0.6, 0.9, {(1, 1), (2, 1)}),
            ("exp_one", 0.3, None, {(1, 1)}),
            ("exp_two", 0.6, -0.3, {(1, 1), (2, 1)})]:
        bulk = 0.5 if kind.startswith("geom") else 1.0
        params = lpp.stationary_params(kind, bulk, p1, p2, 5)
        assert params.exemptions == frozenset(pinned)
        with pytest.raises(ValueError):
            type(params)(params.alpha_circ, params.alphas)


def test_row_streamer_needs_offsets_and_min_row():
    # the base row is recorded whether or not offsets holds 0
    got = lpp.stationary_row_samples_lpp("exp_one", 1.0, 0.3, 2, [2, 1], 10,
                                         RngStream(0))
    assert got.shape == (10, 2) and np.all(got[:, 0] >= got[:, 1])
    with pytest.raises(ValueError):
        lpp.stationary_row_samples_lpp("exp_one", 1.0, 0.3, 2, [-1, 2], 10,
                                       RngStream(0))
    with pytest.raises(ValueError):
        lpp.stationary_row_samples_lpp("exp_two", 1.0, 0.6, 1, [0, 1], 10,
                                       RngStream(0), p2=-0.3)
    with pytest.raises(ValueError):
        lpp.stationary_row_samples_lpp("exp_one", 1.0, 0.3, 0, [0, 1], 10,
                                       RngStream(0))
    with pytest.raises(ValueError):
        lpp.stationary_row_samples_lpp("exp_one", 1.0, 0.3, 2, [], 10,
                                       RngStream(0))


def test_row_streamer_deterministic():
    a = lpp.stationary_row_samples_lpp("geom_one", 0.5, 0.8, 2, [0, 2], 300,
                                       RngStream(4004))
    b = lpp.stationary_row_samples_lpp("geom_one", 0.5, 0.8, 2, [0, 2], 300,
                                       RngStream(4004))
    assert a.shape == (300, 2) and np.array_equal(a, b)
    assert np.all(a[:, 0] == 0.0)


def test_exp_one_row_increments_are_exponential():
    a, u = 1.0, 0.3
    got = lpp.stationary_row_samples_lpp("exp_one", a, u, 2, [0, 1, 4], 30000,
                                         RngStream(4005))
    res = ks_one_sample(SampleSet(got[:, 1]), lambda x: exponential_cdf(x, a - u))
    assert res.passed, (res.statistic, res.threshold)
    # k steps along the row accumulate k independent such increments
    res4 = ks_one_sample(SampleSet(got[:, 2]), lambda x: gamma_cdf((a - u) * x, 4))
    assert res4.passed, (res4.statistic, res4.threshold)


# (circ, row parameters, pinned sites, site rule, draw) of each stationary
# kind at size 6, spelled out independently of lpp.stationary_params
_KINDS = {
    "exp_one": (0.4, [-0.4] + [1.5] * 5, {(1, 1)}, float.__add__,
                sample_exponential),
    "exp_two": (0.7, [-0.3, 0.3] + [1.5] * 4, {(1, 1), (2, 1)}, float.__add__,
                sample_exponential),
    "geom_one": (0.8, [1 / 0.8] + [0.5] * 5, {(1, 1)}, float.__mul__,
                 sample_geometric),
    "geom_two": (0.8, [0.9, 1 / 0.9] + [0.5] * 4, {(1, 1), (2, 1)},
                 float.__mul__, sample_geometric),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_row_provider_pins_the_lpp_draw_order(kind):
    circ, rows, pinned, rule, draw = _KINDS[kind]
    bulk = 1.5 if kind.startswith("exp") else 0.5
    p2 = {"exp_two": -0.3, "geom_two": 0.9}.get(kind)
    params = lpp.stationary_params(kind, bulk, circ, p2, 6)
    max_m, R = 4, 5
    row = make_row_logw(params, max_m, R, RngStream(4007))
    oracle = RngStream(4007)
    for n in range(1, 7):
        want = np.full((R, min(n, max_m) + 1), np.nan)
        for m in range(1, min(n, max_m) + 1):
            theta = rule(circ if m == n else rows[m - 1], rows[n - 1])
            want[:, m] = 0.0 if (n, m) in pinned else draw(theta, oracle, size=R)
        assert np.array_equal(row(n), want, equal_nan=True), n


@pytest.mark.parametrize("family", ["exp", "geom"])
def test_sample_lpp_weights_is_the_scalar_site_loop(family):
    rng = RngStream(4008)
    params = _exp_params(rng, 6) if family == "exp" else _geom_params(rng, 6)
    draw = sample_exponential if family == "exp" else sample_geometric
    got = lpp.sample_lpp_weights(params, 5, RngStream(4009))
    oracle = RngStream(4009)
    want = np.full((6, 6), np.nan)
    for i in range(1, 6):
        for j in range(1, i + 1):
            want[i, j] = draw(params.theta[i, j], oracle)
    assert np.array_equal(got, want, equal_nan=True)


def test_limit_check_rejects_nondecreasing_grid():
    with pytest.raises(ValueError):
        lpp.zero_temperature_samples(0.5, (0.8, 1.2, 1.0, 0.9), [0.1, 0.1],
                                     RngStream(0), n_replicas=10)


def _limit_samples_dense(a_circ, a_s, epsilon_list, rng, n, m, R):
    """The limit samples with every weight in a dense [row, replica, column]
    cube, drawn site by site in row-major order and swept at max_m = m."""
    theta = lpp.LppExpParams(a_circ, a_s).theta
    sites = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]

    def sweep(w, plus):
        return replicated_rows(lambda k: w[k, :, : min(k, m) + 1], n, m, R,
                               {n: [m]}, plus)[(n, m)]

    w_exp = np.full((n + 1, R, n + 1), np.nan)
    for (i, j) in sites:
        w_exp[i, :, j] = sample_exponential(theta[i, j], rng, R)
    columns = [sweep(w_exp, np.maximum)]
    for eps in epsilon_list:
        logw = np.full((n + 1, R, n + 1), np.nan)
        for (i, j) in sites:
            th = eps * theta[i, j]
            boost = np.log(rng.gen.standard_gamma(th + 1.0, size=R))
            logw[i, :, j] = -(boost + np.log(rng.gen.random(size=R)) / th)
        columns.append(eps * sweep(logw, np.logaddexp))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("a_s,n,m", [((1.0, 1.0, 1.0, 1.0), 4, 3),
                                     ((0.8, 1.2, 1.0, 0.9, 1.1, 1.3), 4, 2)],
                         ids=["square", "rows-beyond-n"])
def test_limit_check_is_the_dense_cube_sweep(a_s, n, m):
    eps = [0.3, 0.05, 0.01]
    got = lpp.zero_temperature_samples(0.5, a_s, eps, RngStream(4010),
                                       n=n, m=m, n_replicas=500)
    assert got.shape == (500, 1 + len(eps))
    assert np.array_equal(got, _limit_samples_dense(0.5, a_s, eps, RngStream(4010),
                                                    n, m, 500))


def test_limit_check_statistic_shrinks_with_epsilon():
    got = lpp.zero_temperature_samples(0.5, (0.8, 1.2, 1.0, 0.9), [0.6, 0.05],
                                       RngStream(4006), n_replicas=4000)
    ref = SampleSet(got[:, 0])
    coarse, fine = (ks_two_sample(SampleSet(got[:, c]), ref) for c in (1, 2))
    assert coarse.statistic > fine.statistic
    assert fine.statistic < 3.0 * fine.threshold
