import tracemalloc

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


# The out-of-place sampler bodies the in-place ones replaced, kept as the
# oracle: same draws in the same order, so every value must match exactly.
def _oracle_walk(theta, k_max, rng, n):
    steps = -np.log(rng.gen.standard_gamma(theta, size=(n, k_max)))
    out = np.zeros((n, k_max + 1))
    np.cumsum(steps, axis=1, out=out[:, 1:])
    return out


def _oracle_varpi(u, v, rng, n):
    return -np.log(rng.gen.standard_gamma(u - v, size=n))


def _oracle_zuv(params, k_max, rng, R):
    a, u, v = params.alpha, params.u, params.v
    log_r2 = _oracle_walk(a - v, k_max, rng, R)
    if u == v:
        return log_r2
    log_r1 = _oracle_walk(a + v, k_max, rng, R)
    log_varpi = _oracle_varpi(u, v, rng, R)
    t = log_r1[:, 1:] - log_r2[:, :-1]
    lse = np.logaddexp.accumulate(t, axis=1)
    out = log_r2.copy()
    out[:, 1:] = log_r2[:, 1:] + np.logaddexp(0.0, lse - log_varpi[:, None])
    return out


def _oracle_pra(params, k_max, rng, R):
    a_, u, v = params.alpha, params.u, params.v
    log_xi = -np.log(rng.gen.standard_gamma(a_ - v, size=(R, k_max)))
    log_zeta = -np.log(rng.gen.standard_gamma(a_ + v, size=(R, k_max)))
    log_p = np.zeros((R, k_max + 1))
    np.cumsum(log_xi, axis=1, out=log_p[:, 1:])
    log_r = np.full((R, k_max + 1), -np.inf)
    log_r[:, 1] = log_zeta[:, 0]
    if k_max >= 2:
        inc = log_zeta[:, 1:] - log_xi[:, :-1]
        log_r[:, 2:] = log_zeta[:, 0:1] + np.cumsum(inc, axis=1)
    log_varpi = _oracle_varpi(u, v, rng, R)
    lse = np.logaddexp.accumulate(log_r[:, 1:], axis=1)
    log_a = np.zeros((R, k_max + 1))
    log_a[:, 1:] = np.logaddexp(0.0, lse - log_varpi[:, None])
    return log_p, log_r, log_a


def _same_bits(a, b):
    # array_equal treats -0.0 == 0.0; the sign bits must match as well
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# R for each replica kind: the last replica block ends short at one block
# plus 3 rows (two blocks plus 3 when two walks share a block), and at five
# blocks plus 3 of a block shrunk to _SMALL_BLOCK doubles, which runs the
# block loop many times at a small cost
_SMALL_BLOCK = 512


def _replicas(r_kind, k, monkeypatch):
    if r_kind == "blocks_plus_3":
        monkeypatch.setattr(stationary, "_GAMMA_BLOCK", _SMALL_BLOCK)
    return {"one": 1, "seven": 7,
            "block_plus_3": stationary._GAMMA_BLOCK // k + 3,
            "blocks_plus_3": 5 * max(1, _SMALL_BLOCK // k) + 3}[r_kind]


def _records(k_max):
    # [k_max], [k_max - 1, k_max], [0, 3], unsorted, repeated
    return [[k_max], [k_max - 1, k_max], [0, min(3, k_max)],
            [k_max, 0, k_max // 2], [k_max, 1, k_max, 1]]


@pytest.mark.parametrize("k_max", [1, 2, 5, 400])
@pytest.mark.parametrize("r_kind", ["one", "seven", "block_plus_3", "blocks_plus_3"])
@pytest.mark.parametrize("u,v", [(0.4, 0.4), (-0.3, -0.3), (0.8, 0.2), (0.5, -0.5)],
                         ids=["eq_pos", "eq_neg", "gt_pos", "gt_neg"])
def test_in_place_zuv_samplers_match_oracle(k_max, r_kind, u, v, monkeypatch):
    R = _replicas(r_kind, k_max, monkeypatch)
    params = _p(1.5, u, v)
    seed = 3100 + k_max
    expect = _oracle_zuv(params, k_max, RngStream(seed), R)
    assert _same_bits(stationary.sample_zuv_path(params, k_max, RngStream(seed), R),
                      expect)
    for ks in _records(k_max):
        got = stationary.sample_zuv_path(params, k_max, RngStream(seed), R,
                                         k_record=ks)
        assert _same_bits(got, expect[:, ks]), ks
    assert _same_bits(stationary._log_ig_walk(1.5 + v, k_max, RngStream(seed), R),
                      _oracle_walk(1.5 + v, k_max, RngStream(seed), R))
    if u > v:
        got = stationary.sample_zuv_pra(params, k_max, RngStream(seed), R)
        expect = _oracle_pra(params, k_max, RngStream(seed), R)
        for g, e in zip((got.log_p, got.log_r, got.log_a), expect):
            assert g.shape == (R, k_max + 1)
            assert _same_bits(g, e)
        for ks in _records(k_max):
            got = stationary.sample_zuv_pra(params, k_max, RngStream(seed), R,
                                            k_record=ks)
            for g, e in zip((got.log_p, got.log_r, got.log_a), expect):
                assert _same_bits(g, e[:, ks]), ks


def test_zuv_path_leaves_the_stream_where_the_oracle_does():
    # the replayed r2 copy is dropped; the caller's generator ends past varpi
    params = _p(1.5, 0.8, 0.2)
    a, b = RngStream(11), RngStream(11)
    stationary.sample_zuv_path(params, 7, a, 30, k_record=[7])
    _oracle_zuv(params, 7, b, 30)
    assert a.gen.random() == b.gen.random()


def test_zuv_pra_leaves_the_stream_where_the_oracle_does():
    # the replayed xi copy is dropped; the caller's generator ends past varpi
    params = _p(1.5, 0.8, 0.2)
    a, b = RngStream(11), RngStream(11)
    stationary.sample_zuv_pra(params, 7, a, 30, k_record=[7])
    _oracle_pra(params, 7, b, 30)
    assert a.gen.random() == b.gen.random()


def test_zuv_path_at_k_max_zero_draws_only_varpi():
    params = _p(1.5, 0.8, 0.2)
    a, b = RngStream(12), RngStream(12)
    assert _same_bits(stationary.sample_zuv_path(params, 0, a, 5), np.zeros((5, 1)))
    _oracle_varpi(0.8, 0.2, b, 5)
    assert a.gen.random() == b.gen.random()


@pytest.mark.parametrize("k_max,k_record,match", [
    (-1, None, "k_max must be nonnegative"),
    (5, [], "k_record is empty"),
    (5, [-1, 2], "must be nonnegative"),
    (5, [2, 6], "beyond k_max"),
    (5, [2.0], "not an int"),
], ids=["neg_k_max", "empty", "neg_k", "beyond", "float_k"])
@pytest.mark.parametrize("sampler,u,v", [
    ("sample_zuv_path", 0.4, 0.4),
    ("sample_zuv_path", 0.8, 0.2),
    ("sample_zuv_pra", 0.8, 0.2),
], ids=["eq", "gt", "pra_gt"])
def test_zuv_path_refuses_bad_ks(k_max, k_record, match, sampler, u, v):
    with pytest.raises(ValueError, match=match):
        getattr(stationary, sampler)(_p(1.5, u, v), k_max, RngStream(0), 3,
                                     k_record=k_record)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,limit", [("pra", 3.5), ("path", 2.5), ("walk", 1.5),
                                        ("path_u_eq_v", 1.5)])
def test_zuv_samplers_peak_memory(name, limit):
    # traced peak in units of one returned (R, k_max+1) path; the returned
    # paths count, so p/r/a can go no lower than 3 and a path no lower than 1
    R, k_max = 2000, 400
    gt, eq = _p(1.5, 0.8, 0.2), _p(1.5, 0.4, 0.4)
    fn = {
        "pra": lambda: stationary.sample_zuv_pra(gt, k_max, RngStream(5), R),
        "path": lambda: stationary.sample_zuv_path(gt, k_max, RngStream(5), R),
        "walk": lambda: stationary._log_ig_walk(1.3, k_max, RngStream(5), R),
        "path_u_eq_v": lambda: stationary.sample_zuv_path(eq, k_max, RngStream(5), R),
    }[name]
    fn()  # lazy set-up (bit generator state, ufunc loops) stays out of the peak
    paths = _traced_peak(fn) / (R * (k_max + 1) * 8)
    assert paths <= limit, paths


def _log_a_at(params, k, rng, R):
    # the a-limit draw of zuv-properties: log a(k) alone
    return stationary.sample_zuv_pra(params, k, rng, R, k_record=[k]).log_a[:, 0]


@pytest.mark.parametrize("k", [1, 2, 400])
@pytest.mark.parametrize("r_kind", ["one", "seven", "block_plus_3", "blocks_plus_3"])
def test_a_limit_draw_matches_pra_column(k, r_kind, monkeypatch):
    R = _replicas(r_kind, k, monkeypatch)
    params, seed = _p(1.5, 0.8, 0.2), 3200 + k
    got = np.exp(_log_a_at(params, k, RngStream(seed), R))
    pra = stationary.sample_zuv_pra(params, k, RngStream(seed), R)
    assert _same_bits(got, np.exp(pra.log_a[:, k]))


def test_a_limit_draw_peak_memory():
    # one gamma block shared by the replayed xi rows and the zeta rows, and
    # the (R,) results; drawing the whole p/r/a decomposition for its last
    # column took about 9 (R, k) arrays, and holding the whole log xi walk 1
    R, k = 2000, 400
    params = _p(1.5, 0.8, 0.2)

    def draw():
        return _log_a_at(params, k, RngStream(5), R)

    draw()  # lazy set-up stays out of the peak
    arrays = _traced_peak(draw) / (R * k * 8)
    assert arrays <= 0.5, arrays


@pytest.mark.parametrize("name", ["tail", "a_limit"])
def test_zuv_tail_and_a_limit_draws_hold_a_few_blocks(name):
    # traced peak in gamma blocks, at an R where one whole walk is over 10
    # blocks: holding it (or the tail's (R, 202) path and (R, 201) r1 walk)
    # would take more than 10
    params = _p(1.5, 0.8, 0.2)
    fn, k = {
        "tail": (lambda R: stationary.sample_zuv_path(
            params, 201, RngStream(5), R, k_record=[200, 201]), 201),
        "a_limit": (lambda R: _log_a_at(params, 400, RngStream(5), R), 400),
    }[name]
    R = 10 * stationary._GAMMA_BLOCK // k + 1
    fn(R)  # lazy set-up stays out of the peak
    blocks = _traced_peak(lambda: fn(R)) / (stationary._GAMMA_BLOCK * 8)
    assert blocks <= 4, blocks


def test_a_limit_draw_rejects_bad_input():
    with pytest.raises(ValueError, match="needs u > v"):
        _log_a_at(_p(1.5, 0.4, 0.4), 5, RngStream(0), 1)


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


# The H_{u,v} loop before it stopped at its last record and stepped in
# place, kept as the oracle: it steps to x_max with two gen.normal calls per
# step and returns sorted, deduplicated columns.
def _oracle_huv_stream(params, rng, R, x_record, drift1, drift2, var,
                       log_integrand, height):
    d = params.delta
    steps = int(round(params.x_max / d))
    xs = [params.x_max] if x_record is None else list(x_record)
    targets = sorted(set(int(round(x / d)) for x in xs))
    w1 = np.zeros(R)
    w2 = np.zeros(R)
    log_i = np.full(R, -np.inf)
    log_varpi = _oracle_varpi(params.u, params.v, rng, R) if params.u != params.v else None
    log_d = np.log(d)
    out = np.empty((R, len(targets)))
    pos = {t: c for c, t in enumerate(targets)}
    if 0 in pos:
        out[:, pos[0]] = 0.0
    m1, m2, sd = drift1 * d, drift2 * d, np.sqrt(var * d)
    gen = rng.gen
    for j in range(1, steps + 1):
        log_i = np.logaddexp(log_i, log_integrand(log_d, w1, w2))
        w1 = w1 + gen.normal(m1, sd, size=R)
        w2 = w2 + gen.normal(m2, sd, size=R)
        if j in pos:
            h = height(w1, w2)
            if log_varpi is not None:
                h = h + np.logaddexp(0.0, log_i - log_varpi)
            out[:, pos[j]] = h
    return {"X": np.array(targets, dtype=float) * d, "H": out}


def _oracle_huv(route, params, rng, R, x_record):
    if route == "pitman":
        return _oracle_huv_stream(params, rng, R, x_record, 0.0, params.v, 0.5,
                                  lambda log_d, be1, be2: log_d - 2.0 * be2,
                                  lambda be1, be2: be1 + be2)
    return _oracle_huv_stream(params, rng, R, x_record, -params.v, params.v, 1.0,
                              lambda log_d, b1, b2: log_d + b1 - b2,
                              lambda b1, b2: b2)


_HUV = {"direct": stationary.sample_Huv_path, "pitman": stationary.sample_Huv_pitman}


@pytest.mark.parametrize("x_record", [[0.0, 0.5, 1.0], [0.25, 1.0], None],
                         ids=["with_zero", "inner", "default"])
@pytest.mark.parametrize("u,v", [(0.3, 0.3), (0.8, 0.3), (0.5, -0.5)],
                         ids=["eq", "gt_pos", "gt_neg"])
@pytest.mark.parametrize("route", ["direct", "pitman"])
def test_huv_early_stop_matches_oracle(route, u, v, x_record):
    params = stationary.ContinuumStationaryParams(u, v, delta=2.0 ** -6, x_max=2.0)
    for R in (1, 37):
        got = _HUV[route](params, RngStream(3300 + R), R, x_record=x_record)
        expect = _oracle_huv(route, params, RngStream(3300 + R), R, x_record)
        assert got["H"].shape == (R, len(expect["X"]))
        assert _same_bits(got["H"], expect["H"])
        assert _same_bits(got["X"], expect["X"])


@pytest.mark.parametrize("u,v", [(0.3, 0.3), (0.8, 0.3)], ids=["eq", "gt"])
@pytest.mark.parametrize("route", ["direct", "pitman"])
def test_huv_records_do_not_depend_on_x_max(route, u, v):
    # the loop ends at the last record, so the grid beyond it draws nothing
    short, long = (stationary.ContinuumStationaryParams(u, v, delta=2.0 ** -6, x_max=x)
                   for x in (1.0, 2.0))
    a = _HUV[route](short, RngStream(3400), 50, x_record=[0.0, 0.5, 1.0])["H"]
    b = _HUV[route](long, RngStream(3400), 50, x_record=[0.0, 0.5, 1.0])["H"]
    assert _same_bits(a, b)


@pytest.mark.parametrize("route", ["direct", "pitman"])
def test_huv_columns_follow_request_order(route):
    params = stationary.ContinuumStationaryParams(0.8, 0.3, delta=2.0 ** -6, x_max=2.0)
    ref = _HUV[route](params, RngStream(3500), 40, x_record=[0.5, 1.0, 2.0])
    got = _HUV[route](params, RngStream(3500), 40, x_record=[2.0, 0.5, 1.0, 0.5])
    assert np.array_equal(got["X"], [2.0, 0.5, 1.0, 0.5])
    assert _same_bits(got["H"], ref["H"][:, [2, 0, 1, 0]])


def test_huv_rejects_record_beyond_range():
    p = stationary.ContinuumStationaryParams(0.8, 0.3, x_max=1.0)
    with pytest.raises(ValueError):
        stationary.sample_Huv_path(p, RngStream(0), 1, x_record=[2.0])


@pytest.mark.parametrize("sampler", [stationary.sample_Huv_path,
                                     stationary.sample_Huv_pitman])
@pytest.mark.parametrize("x_record", [[], [-0.5, 1.0]], ids=["empty", "negative"])
def test_huv_rejects_bad_record(sampler, x_record):
    p = stationary.ContinuumStationaryParams(0.8, 0.3, x_max=1.0)
    with pytest.raises(ValueError):
        sampler(p, RngStream(0), 1, x_record=x_record)


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
