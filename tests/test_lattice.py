import sys
import threading

import numpy as np
import pytest

from hspolymer import lattice
from hspolymer.distributions import inverse_gamma_cdf
from hspolymer.experiments import SAMPLERS
from hspolymer.rng import RngStream
from hspolymer.stats import SampleSet, ks_one_sample, ks_two_sample


def _random_params(rng, size):
    alphas = rng.gen.uniform(0.6, 2.0, size=size)
    return lattice.OctantParams(float(rng.gen.uniform(0.2, 1.0)), alphas)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 3), (5, 2), (6, 6),
                                 (7, 5), (8, 4)])
def test_recurrence_matches_bruteforce(n, m):
    rng = RngStream(1000 + 10 * n + m)
    params = _random_params(rng, n)
    field = lattice.sample_weight_field(params, rng)
    grid = lattice.partition_recurrence(field, n, n)
    bf = lattice.partition_bruteforce(field, n, m)
    assert grid.log_z[n, m] == pytest.approx(bf, rel=1e-10, abs=1e-10)


def test_recurrence_identity_holds_on_grid():
    rng = RngStream(2001)
    params = _random_params(rng, 6)
    field = lattice.sample_weight_field(params, rng)
    grid = lattice.partition_recurrence(field, 6, 6)
    lz, lw = grid.log_z, field.log_w
    for n in range(2, 7):
        for m in range(1, n + 1):
            if m == n:
                assert lz[n, n] == pytest.approx(lw[n, n] + lz[n, n - 1], rel=1e-12)
            elif m == 1:
                assert lz[n, 1] == pytest.approx(lw[n, 1] + lz[n - 1, 1], rel=1e-12)
            else:
                expect = lw[n, m] + np.logaddexp(lz[n - 1, m], lz[n, m - 1])
                assert lz[n, m] == pytest.approx(expect, rel=1e-12)


def test_point_to_point_includes_both_endpoints():
    rng = RngStream(2002)
    params = _random_params(rng, 4)
    field = lattice.sample_weight_field(params, rng)
    one = lattice.point_to_point_partition(field, (3, 2), (3, 2))
    assert one == pytest.approx(field.log_w[3, 2])
    # unreachable: end strictly left/below start
    assert lattice.point_to_point_partition(field, (3, 3), (3, 2)) == -np.inf


def test_point_to_point_matches_full_grid_from_corner():
    rng = RngStream(2003)
    params = _random_params(rng, 5)
    field = lattice.sample_weight_field(params, rng)
    grid = lattice.partition_recurrence(field, 5, 5)
    got = lattice.point_to_point_partition(field, (1, 1), (5, 3))
    assert got == pytest.approx(grid.log_z[5, 3], rel=1e-12)


@pytest.mark.parametrize("t,y", [(1, 0), (1, 2), (2, 1), (3, 2)])
def test_two_row_partition_decomposes_at_column_3(t, y):
    # Z(t + y + 2, t + 2) on the two-row grid sums, over the row x + 3 at
    # which a path enters column 3, the partition Z(x + 3, 2) of rows 1-2
    # times the point-to-point partition from (x + 3, 3)
    big_n, big_m = t + y + 2, t + 2
    field = lattice.sample_weight_field(
        lattice.two_row_params(2.0, 0.7, -0.3, big_n), RngStream(6100 + 10 * t + y))
    log_z = lattice.partition_recurrence(field, big_n, big_m).log_z
    parts = [log_z[x + 3, 2] + lattice.point_to_point_partition(
        field, (x + 3, 3), (big_n, big_m)) for x in range(t + y)]
    direct = log_z[big_n, big_m]
    assert abs(np.logaddexp.reduce(parts) - direct) < 1e-10 * max(abs(direct), 1.0)


def test_octant_params_validation():
    # construction validates every drawn site
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        lattice.OctantParams(-2.0, np.array([1.0, 1.5]))
    with pytest.raises(ValueError, match=r"\(2,1\)"):
        # pair sum alpha_1 + alpha_2 <= 0
        lattice.OctantParams(1.0, np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        lattice.OctantParams(1.0, np.array([0.5, np.nan]))
    p = lattice.OctantParams(0.3, np.array([0.8, 1.1]))
    # theta: sums on the octant, NaN off it
    want = np.array([[np.nan] * 3, [np.nan, 0.3 + 0.8, np.nan],
                     [np.nan, 1.1 + 0.8, 0.3 + 1.1]])
    assert np.array_equal(p.theta, want, equal_nan=True)
    # a pinned site is neither validated nor drawn
    q = lattice.OctantParams(1.0, np.array([0.5, -0.5]), frozenset({(2, 1)}))
    assert np.isnan(q.theta[2, 1])
    assert lattice.sample_weight_field(q, RngStream(1)).log_w[2, 1] == 0.0


def test_burke_step_deterministic_identities():
    U = np.array([1.3, 0.4])
    V = np.array([0.7, 2.2])
    w = np.array([0.5, 1.1])
    U2, V2, w2 = lattice.burke_step(U, V, w)
    assert np.allclose(U2, w * (1.0 + U / V))
    assert np.allclose(V2, w * (1.0 + V / U))
    assert np.allclose(w2, 1.0 / (1.0 / U + 1.0 / V))
    # the update preserves the product U V / w
    assert np.allclose(U2 * V2 / w2, U * V / w * (U2 * V2) / (U * V) * w / w2)


def test_burke_fixed_point_marginals():
    alpha, u = 1.5, 0.3
    rng = RngStream(2004)
    n = 50000
    U = 1.0 / rng.gen.standard_gamma(alpha + u, size=n)
    V = 1.0 / rng.gen.standard_gamma(alpha - u, size=n)
    w = 1.0 / rng.gen.standard_gamma(2 * alpha, size=n)
    U2, V2, w2 = lattice.burke_step(U, V, w)
    for vals, theta in [(U2, alpha + u), (V2, alpha - u), (w2, 2 * alpha)]:
        res = ks_one_sample(SampleSet(vals), lambda x, t=theta: inverse_gamma_cdf(x, t))
        assert res.passed, (theta, res.statistic, res.threshold)


def test_one_row_params_pins_corner():
    p = lattice.one_row_params(1.5, 0.3, 5)
    assert (1, 1) in p.exemptions
    assert p.alpha_circ == 0.3 and p.alphas[0] == -0.3
    with pytest.raises(ValueError):
        lattice.one_row_params(1.5, 1.5, 5)  # u must lie inside (-alpha, alpha)
    with pytest.raises(ValueError):
        lattice.one_row_params(1.5, -1.5, 5)
    with pytest.raises(ValueError, match="max_n >= 1"):
        lattice.one_row_params(1.5, 0.3, 0)


@pytest.mark.parametrize("site", [(3, 1), (1, 2), (0, 0), (2, 3)])
def test_exemption_outside_the_octant_is_refused(site):
    # (3, 1) on N = 2 used to pass construction and fail sampling with an
    # IndexError
    with pytest.raises(ValueError, match="outside the octant"):
        lattice.OctantParams(0.5, [1.0, 1.0], exemptions={site})


@pytest.mark.parametrize("kind,v", [("one_row", None), ("two_row", -0.4)])
def test_row_samples_refuse_empty_offsets(kind, v):
    # the experiment samplers of both specializations reach
    # stationary_increments' own refusal
    kw = {} if v is None else {"v": v}
    with pytest.raises(ValueError, match="nonempty"):
        SAMPLERS[kind](RngStream(0), 10, alpha=1.5, u=0.6, m=3, offsets=[], **kw)


def test_two_row_params_pinning_rules():
    # u + v > 0: only (2,1) pinned, (1,1) carries a sampled weight
    p = lattice.two_row_params(1.5, 0.6, -0.4, 5)
    assert (2, 1) in p.exemptions and (1, 1) not in p.exemptions
    # u + v <= 0: both pinned
    p2 = lattice.two_row_params(1.5, 0.2, -0.4, 5)
    assert (2, 1) in p2.exemptions and (1, 1) in p2.exemptions
    with pytest.raises(ValueError):
        lattice.two_row_params(1.5, 0.3, 0.4, 5)  # v < u required
    with pytest.raises(ValueError):
        lattice.two_row_params(1.5, 0.3, -1.6, 5)
    with pytest.raises(ValueError):
        lattice.two_row_params(1.5, 0.6, -0.4, 1)


def test_exempt_sites_have_unit_weight():
    p = lattice.two_row_params(1.5, 0.2, -0.4, 4)
    rng = RngStream(2005)
    field = lattice.sample_weight_field(p, rng)
    assert field.log_w[1, 1] == 0.0
    assert field.log_w[2, 1] == 0.0
    assert field.log_w[3, 2] != 0.0


def test_replicated_rows_matches_scalar_recurrence():
    rng = RngStream(2006)
    params = _random_params(rng, 5)
    field = lattice.sample_weight_field(params, rng)
    grid = lattice.partition_recurrence(field, 5, 5)

    def provider(n):
        # single replica fed from the sampled field
        return field.log_w[n : n + 1, : min(n, 5) + 1]

    got = lattice.replicated_rows(provider, 5, 5, 1,
                                  {4: [2, 4], 5: [1, 3, 5]})
    for (n, m), vals in got.items():
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(grid.log_z[n, m], rel=1e-12)


def _sweep_replica_major(row_logw, max_n, max_m, n_replicas, record, plus):
    """The sweep with rows held [replica, column] and one plus.accumulate
    along axis 1 per row: the bit-level oracle of replicated_rows."""
    out = {}
    prev = np.full((n_replicas, max_m + 1), -np.inf)
    for n in range(1, max_n + 1):
        m_hi = min(n, max_m)
        lw = row_logw(n)
        cur = np.full((n_replicas, max_m + 1), -np.inf)
        if n == 1:
            cur[:, 1] = lw[:, 1]
        else:
            c = np.concatenate(
                [np.zeros((n_replicas, 1)), np.cumsum(lw[:, 1 : m_hi + 1], axis=1)],
                axis=1,
            )
            b = prev[:, 1 : m_hi + 1] - c[:, :m_hi]
            y = plus.accumulate(b, axis=1)
            cur[:, 1 : m_hi + 1] = y + c[:, 1 : m_hi + 1]
        for m in record.get(n, ()):
            out[(n, m)] = cur[:, m].copy()
        prev = cur
    return out


@pytest.mark.parametrize("plus", [np.logaddexp, np.maximum],
                         ids=["logaddexp", "maximum"])
@pytest.mark.parametrize("n_replicas", [1, 7])
def test_replicated_rows_is_bit_identical_to_replica_major_sweep(plus, n_replicas):
    max_n, max_m = 9, 5
    every = {n: range(1, min(n, max_m) + 1) for n in range(1, max_n + 1)}
    # u + v <= 0 pins (1, 1) and (2, 1); make_row_logw returns F-ordered
    # .T views of its [column, replica] buffer
    params = lattice.two_row_params(1.5, -0.3, -0.4, max_n)
    assert params.exemptions == {(1, 1), (2, 1)}
    if n_replicas > 1:
        row = lattice.make_row_logw(params, max_m, n_replicas, RngStream(3))(4)
        assert row.shape == (n_replicas, 5) and not row.flags.c_contiguous
    dense = RngStream(4).gen.standard_normal((max_n + 1, n_replicas, max_n + 1))
    providers = [
        lambda: lattice.make_row_logw(params, max_m, n_replicas, RngStream(3)),
        lambda: (lambda n: dense[n, :, : min(n, max_m) + 1]),
    ]
    for provider in providers:
        got = lattice.replicated_rows(provider(), max_n, max_m, n_replicas,
                                      every, plus)
        want = _sweep_replica_major(provider(), max_n, max_m, n_replicas,
                                    every, plus)
        assert got.keys() == want.keys()
        for site in want:
            assert got[site].shape == (n_replicas,)
            assert np.array_equal(got[site], want[site]), site


def _recording(provider, raise_at=None):
    """provider wrapped to log (row, thread id) per call, raising at row
    raise_at instead of drawing it."""
    calls = []

    def row(n):
        calls.append((n, threading.get_ident()))
        if n == raise_at:
            raise RuntimeError(f"row {n}")
        return provider(n)

    return row, calls


@pytest.mark.parametrize("n_replicas", [1, 2, 7])
def test_replicated_rows_requests_each_row_once_in_order(n_replicas):
    # rows are drawn one ahead on a helper thread when R > 1, and on the
    # calling thread when R = 1
    max_n, max_m = 9, 5
    params = lattice.two_row_params(1.5, -0.3, -0.4, max_n)
    row, calls = _recording(
        lattice.make_row_logw(params, max_m, n_replicas, RngStream(3)))
    threads = threading.active_count()
    lattice.replicated_rows(row, max_n, max_m, n_replicas, {max_n: [max_m]})
    assert threading.active_count() == threads
    assert [n for n, _ in calls] == list(range(1, max_n + 1))
    idents = {ident for _, ident in calls}
    if n_replicas == 1:
        assert idents == {threading.get_ident()}
    else:
        assert len(idents) == 1 and threading.get_ident() not in idents


@pytest.mark.parametrize("plus", [np.logaddexp, np.maximum],
                         ids=["logaddexp", "maximum"])
@pytest.mark.parametrize("n_replicas", [2, 7])
def test_prefetched_sweep_equals_the_inline_provider(plus, n_replicas):
    # the same values and the same captured weights as the provider called
    # row by row on the calling thread, with thread switches forced often
    max_n, max_m = 9, 5
    every = {n: range(1, min(n, max_m) + 1) for n in range(1, max_n + 1)}
    params = lattice.two_row_params(1.5, -0.3, -0.4, max_n)
    assert params.exemptions == {(1, 1), (2, 1)}
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for sweep in (lattice.replicated_rows, _sweep_replica_major):
            capture = {(1, 1): None, (2, 2): None, (4, 3): None}
            provider = lattice.make_row_logw(params, max_m, n_replicas,
                                             RngStream(3), capture=capture)
            runs.append((sweep(provider, max_n, max_m, n_replicas, every, plus),
                         capture))
    finally:
        sys.setswitchinterval(interval)
    (got, got_capture), (want, want_capture) = runs
    assert got.keys() == want.keys()
    for site in want:
        assert np.array_equal(got[site], want[site]), site
    assert np.array_equal(got_capture[(1, 1)], np.zeros(n_replicas))
    for site in want_capture:
        assert np.array_equal(got_capture[site], want_capture[site]), site


def test_a_raising_provider_stops_the_prefetched_sweep():
    params = lattice.one_row_params(1.5, 0.3, 6)
    row, calls = _recording(lattice.make_row_logw(params, 4, 3, RngStream(5)),
                            raise_at=3)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="row 3"):
        lattice.replicated_rows(row, 6, 4, 3, {6: [4]})
    assert [n for n, _ in calls] == [1, 2, 3]
    assert threading.active_count() == threads


def test_make_row_logw_capture_and_pinning():
    p = lattice.one_row_params(1.5, 0.3, 3)
    rng = RngStream(2007)
    capture = {(1, 1): None, (2, 2): None}
    provider = lattice.make_row_logw(p, 3, 4, rng, capture=capture)
    for n in range(1, 4):
        provider(n)
    assert np.array_equal(capture[(1, 1)], np.zeros(4))  # pinned site
    assert capture[(2, 2)].shape == (4,)
    assert np.all(capture[(2, 2)] != 0.0)


def test_stationary_row_samples_deterministic():
    a = SAMPLERS["one_row"](RngStream(2008), 500, alpha=1.5, u=0.3, m=2, offsets=[1, 3])
    b = SAMPLERS["one_row"](RngStream(2008), 500, alpha=1.5, u=0.3, m=2, offsets=[1, 3])
    assert a.shape == (500, 2) and np.array_equal(a, b)


def test_one_row_ratio_is_inverse_gamma_any_base():
    alpha, u = 1.5, 0.3
    for m in (1, 3):
        s = SAMPLERS["one_row"](RngStream(2100 + m), 30000, alpha=alpha, u=u, m=m,
                                offsets=[1])
        res = ks_one_sample(SampleSet(np.exp(s[:, 0])),
                            lambda x: inverse_gamma_cdf(x, alpha - u))
        assert res.passed, (m, res.statistic, res.threshold)


def test_two_row_ratio_base_invariance():
    kw = {"alpha": 1.5, "u": 0.6, "v": -0.4, "offsets": [2]}
    a = SAMPLERS["two_row"](RngStream(2009), 30000, m=2, **kw)
    b = SAMPLERS["two_row"](RngStream(2010), 30000, m=4, **kw)
    res = ks_two_sample(SampleSet(a[:, 0], label="m=2"),
                        SampleSet(b[:, 0], label="m=4"))
    assert res.passed, (res.statistic, res.threshold)


def test_permutation_experiment_reproducible_and_checked():
    params = lattice.OctantParams(0.4, np.array([0.9, 1.6, 2.2, 1.5, 1.5]))
    sigma = [3, 2, 1, 4, 5]
    a_o, a_p = lattice.permutation_symmetry_experiment(params, sigma, 3,
                                                       [0, 1], 400,
                                                       RngStream(2012))
    b_o, b_p = lattice.permutation_symmetry_experiment(params, sigma, 3,
                                                       [0, 1], 400,
                                                       RngStream(2012))
    assert a_o.shape == a_p.shape == (400, 2)
    assert np.array_equal(a_o, b_o) and np.array_equal(a_p, b_p)
    with pytest.raises(ValueError):
        # permutation moves an index beyond the base row
        lattice.permutation_symmetry_experiment(params, [1, 2, 4, 3, 5], 3,
                                                [0], 10, RngStream(0))


def test_permutation_invariance_in_law():
    params = lattice.OctantParams(0.4, np.array([0.9, 1.6, 2.2, 1.5]))
    orig, perm = lattice.permutation_symmetry_experiment(
        params, [2, 3, 1, 4], 3, [0, 1], 30000, RngStream(2013))
    for k in (0, 1):
        res = ks_two_sample(SampleSet(orig[:, k]), SampleSet(perm[:, k]))
        assert res.passed, (k, res.statistic, res.threshold)
