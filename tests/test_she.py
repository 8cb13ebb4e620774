import math

import numpy as np
import pytest

from hspolymer import she
from hspolymer.rng import RngStream


def _enumerate_partition(boundary, bulk, s, x, t, y):
    """Oracle: explicit sum over reflected paths.

    A path picks up, at each time r in [s, t), the factor X(r) at height 0
    (stepping up with weight 1) or half the bulk factor at height w > 0
    (stepping either way). No factor at the endpoint time.
    """
    total = 0.0

    def rec(r, h, acc):
        nonlocal total
        if r == t:
            if h == y:
                total += acc
            return
        if h == 0:
            f = boundary.values[r - boundary.start] if boundary is not None else 1.0
            rec(r + 1, 1, acc * f)
        else:
            om = bulk.values[r - bulk.start, h - 1] if bulk is not None else 0.0
            f = 0.5 * (1.0 + (bulk.beta * om if bulk is not None else 0.0))
            rec(r + 1, h + 1, acc * f)
            rec(r + 1, h - 1, acc * f)

    rec(s, x, 1.0)
    return total


def _constant_boundary(gamma, s, t):
    return she.BoundaryWeights(s, np.full(t - s, float(gamma)))


def _uniform_bulk(s, t, x_max, beta, rng):
    """Bulk field over [s, t) x [1, x_max] of i.i.d. Uniform(-sqrt3, sqrt3)
    draws, the bits the sheet's in-place fill gives (see
    test_in_place_bulk_fills_match_per_stream_draws)."""
    return she.BulkWeights(s, rng.gen.uniform(-math.sqrt(3.0), math.sqrt(3.0),
                                              size=(t - s, x_max)), beta)


def _random_instance(rng, t_span):
    s = int(rng.gen.integers(0, 3))
    t = s + t_span
    x = int(rng.gen.integers(0, 4))
    y = x + t_span - 2 * int(rng.gen.integers(0, t_span + 1))
    while y < 0:
        y += 2
    boundary = she.BoundaryWeights(s, np.exp(0.4 * rng.gen.standard_normal(t_span)))
    beta = float(rng.gen.uniform(0.05, 0.5))
    x_max = max(x, y) + t_span
    bulk = _uniform_bulk(s, t, x_max, beta, rng)
    return boundary, bulk, s, x, t, y


@pytest.mark.parametrize("case", range(25))
def test_direct_dp_matches_path_enumeration(case):
    rng = RngStream(5000 + case)
    t_span = int(rng.gen.integers(3, 7))
    boundary, bulk, s, x, t, y = _random_instance(rng, t_span)
    direct = she.modified_partition_direct(boundary, bulk, s, x, t, y)
    oracle = _enumerate_partition(boundary, bulk, s, x, t, y)
    assert direct == pytest.approx(oracle, rel=1e-12, abs=1e-300)


def test_reflected_kernel_hand_values():
    assert she.reflected_kernel(0, 0, 1, 1) == 1.0
    assert she.reflected_kernel(0, 1, 1, 0) == 0.5
    assert she.reflected_kernel(0, 1, 1, 2) == 0.5
    assert she.reflected_kernel(0, 0, 2, 0) == 0.5
    assert she.reflected_kernel(0, 0, 2, 2) == 0.5
    assert she.reflected_kernel(0, 0, 2, 1) == 0.0  # off parity
    with pytest.raises(ValueError):
        she.reflected_kernel(0, 0, 0, 0)
    with pytest.raises(ValueError):
        she.reflected_kernel(0, -1, 1, 0)


@pytest.mark.parametrize("x,span", [(0, 4), (1, 5), (3, 7)])
def test_reflected_kernel_conserves_mass(x, span):
    total = sum(she.reflected_kernel(0, x, span, y) for y in range(x + span + 1))
    assert total == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("case", range(20))
def test_chaos_and_mild_equal_direct(case):
    rng = RngStream(5100 + case)
    t_span = int(rng.gen.integers(3, 9))
    boundary, bulk, s, x, t, y = _random_instance(rng, t_span)
    direct = she.modified_partition_direct(boundary, bulk, s, x, t, y)
    chaos = she.modified_partition_chaos(boundary, bulk, s, x, t, y)
    mild = she.modified_partition_mild(boundary, bulk, s, x, t, y)
    assert chaos == pytest.approx(direct, rel=1e-12, abs=1e-300)
    assert mild == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_chaos_zero_coupling_is_boundary_kernel():
    rng = RngStream(5200)
    boundary, bulk, s, x, t, y = _random_instance(rng, 5)
    free = she.BulkWeights(bulk.start, bulk.values, beta=0.0)
    got = she.modified_partition_chaos(boundary, free, s, x, t, y)
    assert got == pytest.approx(she.boundary_kernel(boundary, s, x, t, y),
                                rel=1e-14)


def test_chaos_series_guard():
    boundary = _constant_boundary(1.0, 0, 14)
    bulk = _uniform_bulk(0, 14, 16, 0.2, RngStream(5201))
    with pytest.raises(ValueError):
        she.modified_partition_chaos(boundary, bulk, 0, 0, 14, 0)


def _chaos_by_tuples(boundary, bulk, s, x, t, y):
    """Oracle: the chaos series as a walk over every increasing time tuple,
    each multiplied out from its first time, a tuple dropped once its vector
    vanishes; orders ascending, tuples in lexicographic order."""
    from itertools import combinations

    cap = she._checked_cap(s, x, t, y)
    kt = she.build_kernel_table(boundary, s, t, cap)
    omega = bulk.window(s, t, cap)
    if not she._parity_ok(s, x, t, y):
        return 0.0
    beta = bulk.beta
    total = kt.value(s, x, t, y)
    if beta == 0.0:
        return float(total)
    times = list(range(s, t))
    for k in range(1, t - s + 1):
        coeff = beta ** k
        for rvec in combinations(times, k):
            vec = kt.matrix(s, rvec[0])[x, :] * omega[rvec[0] - s, :]
            alive = np.any(vec)
            for j in range(1, k):
                if not alive:
                    break
                vec = vec @ kt.matrix(rvec[j - 1], rvec[j])
                vec = vec * omega[rvec[j] - s, :]
                alive = np.any(vec)
            if alive:
                total += coeff * float(vec @ kt.matrix(rvec[-1], t)[:, y])
    return float(total)


def _chaos_instance(case):
    """Random instance for the chaos oracle: every tenth at beta = 0, every
    tenth (offset 1) with a zero bulk row, so every chain through that time
    vanishes, and every fiftieth (offset 2) at t - s = CHAOS_GUARD."""
    rng = RngStream(5400 + case)
    t_span = she.CHAOS_GUARD if case % 50 == 2 else int(rng.gen.integers(1, 8))
    boundary, bulk, s, x, t, y = _random_instance(rng, t_span)
    values = bulk.values.copy()
    if case % 10 == 1:
        values[int(rng.gen.integers(0, t_span))] = 0.0
    beta = 0.0 if case % 10 == 0 else bulk.beta
    return boundary, she.BulkWeights(s, values, beta), s, x, t, y


@pytest.mark.parametrize("block", range(4))
def test_chaos_extends_chains_from_their_prefixes(block):
    # 240 instances: the prefix recursion adds the tuple walk's terms in
    # its order, so the two sums are the same float
    for case in range(60 * block, 60 * (block + 1)):
        instance = _chaos_instance(case)
        assert she.modified_partition_chaos(*instance) == \
            _chaos_by_tuples(*instance), f"case {case}"


def test_composition_over_cut_times():
    rng = RngStream(5202)
    boundary, bulk, s, x, t, y = _random_instance(rng, 6)
    assert she.composition_check(boundary, bulk, s, x, t, y) < 1e-13


def test_kernel_table_entries():
    kt = she.build_kernel_table(None, 0, 5, 8)
    for (r1, w1, r2, w2) in [(0, 0, 3, 1), (1, 2, 5, 4), (2, 1, 4, 0)]:
        assert kt.value(r1, w1, r2, w2) == pytest.approx(
            she.reflected_kernel(r1, w1, r2, w2) if r2 > r1 else 0.0,
            rel=1e-14)
    # zero-step table is the identity
    assert kt.value(2, 3, 2, 3) == 1.0
    assert kt.value(2, 3, 2, 4) == 0.0
    with pytest.raises(ValueError):
        kt.value(3, 0, 1, 0)



def test_initial_data_and_kernel_table_refuse_negative_heights():
    # a negative height used to index the DP vector from its end: the
    # vertical start -2 seeded height cap - 1, and w1 = -1 read height 8
    boundary = _constant_boundary(1.0, 0, 4)
    bulk = _uniform_bulk(0, 4, 10, 0.2, RngStream(5212))
    for kind in ("vertical", "diagonal"):
        for init, y in [({-2: 1.0}, 4), ({0: 1.0}, -2)]:
            with pytest.raises(ValueError, match="nonnegative"):
                she.partition_with_initial_data(kind, init, boundary, bulk,
                                                4, y, x_truncation=5)
    kt = she.build_kernel_table(None, 0, 5, 8)
    for w1, w2 in [(-1, 7), (1, -2)]:
        with pytest.raises(ValueError, match="nonnegative"):
            kt.value(0, w1, 3, w2)

def test_boundary_kernel_collects_origin_factors():
    boundary = she.BoundaryWeights(0, [1.7, 0.4, 2.2, 0.9])
    got = she.boundary_kernel(boundary, 0, 0, 4, 0)
    assert got == pytest.approx(
        _enumerate_partition(boundary, None, 0, 0, 4, 0), rel=1e-14)
    # two paths: 0 1 0 1 0 (origin factors at times 0 and 2) and 0 1 2 1 0
    assert got == pytest.approx(1.7 * 0.5 * 2.2 * 0.5 + 1.7 * 0.125, rel=1e-14)


def test_weights_validation():
    with pytest.raises(ValueError, match="at 3 is negative"):
        she.BoundaryWeights(2, [0.5, -0.1])
    with pytest.raises(ValueError):
        she.BoundaryWeights(0, [np.nan])
    with pytest.raises(ValueError, match=r"at \(1, 2\)"):
        she.BulkWeights(0, [[0.0, 0.0], [0.0, -30.0]], beta=0.1)
    b = she.BulkWeights(3, [[0.5, -0.5]], beta=0.2)
    assert np.array_equal(b.window(3, 4, 2), [[0.0, 0.5, -0.5]])
    assert np.array_equal(b.window(3, 4, 1), [[0.0, 0.5]])
    for s, t, cap in [(3, 4, 3), (2, 4, 1), (3, 5, 1)]:
        with pytest.raises(ValueError):
            b.window(s, t, cap)
    # the origin keeps its boundary factor; above it the bulk factor is halved
    g = she._factor_rows(3, 4, 2, she.BoundaryWeights(3, [0.7]), b)
    assert g[0] == pytest.approx([0.7, 0.55, 0.45], rel=1e-15)
    bw = _constant_boundary(0.8, 2, 5)
    assert np.array_equal(bw.window(2, 5), [0.8, 0.8, 0.8])
    assert np.array_equal(bw.window(3, 4), [0.8])
    for s, t in [(2, 6), (0, 5)]:
        with pytest.raises(ValueError):
            bw.window(s, t)


def test_bulk_sample_laws():
    # the sheet's bulk fill: centered, bounded by sqrt3
    om = np.empty((2, 4, 3))
    she._fill_bulk(om, [RngStream(5203, i) for i in range(2)])
    assert np.all(np.abs(om) <= math.sqrt(3.0))


def test_initial_data_vertical_is_linear():
    rng = RngStream(5204)
    boundary, bulk, _, _, t, _ = _random_instance(rng, 6)
    boundary = _constant_boundary(boundary.values[0], 0, 6)
    bulk = _uniform_bulk(0, 6, 12, 0.3, rng)
    init = {0: 2.0, 2: 1.0, 4: 0.25}
    res = she.partition_with_initial_data("vertical", init, boundary, bulk,
                                          6, 2, x_truncation=6)
    expect = sum(val * she.modified_partition_direct(boundary, bulk, 0, x0, 6, 2)
                 for x0, val in init.items())
    assert not res.truncated and res.tail_bound == 0.0
    assert res.value == pytest.approx(expect, rel=1e-12)


def test_initial_data_vertical_truncation_reported():
    boundary = _constant_boundary(1.0, 0, 4)
    bulk = _uniform_bulk(0, 4, 10, 0.2, RngStream(5205))
    init = {0: 1.0, 6: 5.0}
    res = she.partition_with_initial_data("vertical", init, boundary, bulk,
                                          4, 0, x_truncation=4)
    only_kept = she.partition_with_initial_data("vertical", {0: 1.0}, boundary,
                                                bulk, 4, 0, x_truncation=4)
    assert res.truncated and res.tail_bound > 0.0
    assert res.value == pytest.approx(only_kept.value, rel=1e-14)
    with pytest.raises(ValueError):
        she.partition_with_initial_data("vertical", {1: 1.0}, boundary, bulk,
                                        4, 0, x_truncation=4)


def test_initial_data_diagonal_is_linear():
    rng = RngStream(5206)
    boundary = she.BoundaryWeights(0, np.exp(0.3 * rng.gen.standard_normal(6)))
    bulk = _uniform_bulk(0, 6, 12, 0.3, rng)
    init = {0: 1.0, 2: 0.5}
    res = she.partition_with_initial_data("diagonal", init, boundary, bulk,
                                          6, 2, x_truncation=6)
    expect = (1.0 * she.modified_partition_direct(boundary, bulk, 0, 0, 6, 2)
              + 0.5 * she.modified_partition_direct(boundary, bulk, 2, 2, 6, 2))
    assert res.value == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        she.partition_with_initial_data("sideways", init, boundary, bulk,
                                        6, 2, x_truncation=6)


def test_initial_data_diagonal_endpoint_term():
    boundary = _constant_boundary(1.0, 0, 3)
    bulk = _uniform_bulk(0, 3, 8, 0.2, RngStream(5207))
    res = she.partition_with_initial_data("diagonal", {3: 2.0}, boundary, bulk,
                                          3, 3, x_truncation=4)
    assert res.value == pytest.approx(2.0, rel=1e-14)


def test_gaussian_envelope_value():
    tau, dx, c = 0.5, 1.2, 4.0
    expect = c / math.sqrt(tau) * math.exp(-dx * dx / (c * tau))
    assert she.gaussian_envelope(tau, dx) == pytest.approx(expect, rel=1e-14)


def test_monotone_coupling_in_boundary():
    bulk = _uniform_bulk(0, 5, 8, 0.3, RngStream(5208))
    lo = _constant_boundary(0.5, 0, 5)
    mid = _constant_boundary(1.0, 0, 5)
    hi = _constant_boundary(1.5, 0, 5)
    rep = she.monotone_coupling_check(lo, mid, hi, bulk, 0, 5, 3)
    assert rep["pass"] and rep["max_violation"] == 0.0
    # every start height 0..3 and end height up to 3 + (t2 - s2) of each pair
    assert rep["checked"] == sum(4 * (4 + t2 - s2) for s2 in range(5)
                                 for t2 in range(s2 + 1, 6))
    with pytest.raises(ValueError):
        she.monotone_coupling_check(mid, lo, hi, bulk, 0, 5, 3)


PARTITION_ROUTES = {
    "direct": she.modified_partition_direct,
    "chaos": she.modified_partition_chaos,
    "mild": she.modified_partition_mild,
}
FIVE_ROUTES = {
    "reflected": lambda boundary, bulk, *pt: she.reflected_kernel(*pt),
    "boundary": lambda boundary, bulk, *pt: she.boundary_kernel(boundary, *pt),
    **PARTITION_ROUTES,
}


@pytest.mark.parametrize("route", FIVE_ROUTES.values(), ids=FIVE_ROUTES.keys())
def test_negative_heights_are_refused(route):
    # a negative start height used to index the DP vector from its end
    boundary = _constant_boundary(1.0, 0, 4)
    bulk = _uniform_bulk(0, 4, 8, 0.3, RngStream(5210))
    for x, y in [(-1, 1), (1, -1)]:
        with pytest.raises(ValueError, match="nonnegative"):
            route(boundary, bulk, 0, x, 4, y)


@pytest.mark.parametrize("route", PARTITION_ROUTES.values(),
                         ids=PARTITION_ROUTES.keys())
def test_under_covering_bulk_is_refused(route):
    # the DP from height 0 over four steps reads heights 1..4, the field
    # holds 1..2: every route refuses instead of reading the rest as 0
    boundary = _constant_boundary(1.0, 0, 4)
    bulk = _uniform_bulk(0, 4, 2, 0.3, RngStream(5211))
    with pytest.raises(ValueError, match="bulk weights must cover"):
        route(boundary, bulk, 0, 0, 4, 0)


def test_scaling_params():
    with pytest.raises(ValueError):
        she.ScalingParams(10, 0.0, 0.0)
    with pytest.raises(ValueError):
        she.ScalingParams(2, 0.0, 0.0)
    p = she.ScalingParams(16, 0.5, 1.0)
    assert p.sqrt_n == 4.0
    assert p.beta_n == pytest.approx(16 ** -0.25 / math.sqrt(2.0))
    assert p.boundary_level == pytest.approx(1.0 - 0.5 / 4.0)


def test_scaled_lattice_point_rejects_bad_grids():
    p = she.ScalingParams(16, 0.0, 0.0)
    with pytest.raises(ValueError, match="sqrt"):
        she.scaled_sheet_table(p, 0.0, [0.3], [0.5], [0.25])  # sqrt(n) X not integral
    with pytest.raises(ValueError, match="need T > S"):
        she.scaled_sheet_table(p, 0.5, [0.0], [0.5], [0.0])   # T = S
    with pytest.raises(ValueError, match="even sublattice"):
        she.scaled_sheet_table(p, 0.0, [0.25], [0.5], [0.0])  # off the even sublattice
    # a negative S is refused like the other coordinates
    with pytest.raises(ValueError, match="nS"):
        she.scaled_sheet_table(p, -0.5, [0.0], [0.5], [0.0])


def test_scaled_sheet_needs_rng_for_randomness():
    p = she.ScalingParams(64, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive beta needs an rng"):
        she.scaled_sheet_table(p, 0.0, [0.0], [0.25], [0.0])


def test_scaled_sheet_table_matches_single_points():
    p = she.ScalingParams(64, 0.4, 0.0)
    tab = she.scaled_sheet_table(p, 0.0, [0.25], [0.25, 0.5], [0.25, 0.75])
    assert tab.shape == (1, 1, 2, 2)
    for a, T in enumerate([0.25, 0.5]):
        for b, Y in enumerate([0.25, 0.75]):
            one = she.scaled_sheet_table(p, 0.0, [0.25], [T], [Y])
            assert one.shape == (1, 1, 1, 1)
            assert tab[0, 0, a, b] == pytest.approx(one[0, 0, 0, 0], rel=1e-12)


@pytest.mark.parametrize("n_rep", [1, 3])
@pytest.mark.parametrize("beta", [1.0], ids=["det-uniform"])
def test_batched_sheet_table_matches_single_streams(beta, n_rep):
    # 38 steps: three replicas draw bulk rows in blocks of 3, one replica in
    # blocks of 9; neither divides 38, so every sweep ends on a short block
    p = she.ScalingParams(64, 0.4, beta)
    Ts, Ys = [0.25, 0.59375], [0.0, 0.25, 0.5]

    def streams():
        return [RngStream(8117, i) for i in range(n_rep)]

    batched = she.scaled_sheet_table(p, 0.0, [0.0], Ts, Ys, streams())
    assert batched.shape == (n_rep, 1, len(Ts), len(Ys))
    for i, one in enumerate(streams()):
        single = she.scaled_sheet_table(p, 0.0, [0.0], Ts, Ys, [one])
        assert np.array_equal(batched[i], single[0])
    if n_rep > 1:
        assert not np.array_equal(batched[0], batched[1])


@pytest.mark.parametrize("n_rep", [1, 3])
@pytest.mark.parametrize("beta", [0.0, 1.0], ids=["det-beta0", "det-uniform"])
def test_start_axis_matches_per_start_calls(beta, n_rep):
    # starts <= max Y and a 256-step sweep: every start alone gets the
    # joint cap, 8 + 128, so each start's table is the per-start call's
    p = she.ScalingParams(256, 0.4, beta)
    Xs, Ts, Ys = [0.5, 0.0, 0.25], [0.25, 1.0], [0.0, 0.25, 0.5]

    def streams():
        if beta == 0.0:
            return [None] * n_rep
        return [RngStream(8118, i) for i in range(n_rep)]

    joint = she.scaled_sheet_table(p, 0.0, Xs, Ts, Ys, streams())
    assert joint.shape == (n_rep, len(Xs), len(Ts), len(Ys))
    for j, X in enumerate(Xs):
        alone = she.scaled_sheet_table(p, 0.0, [X], Ts, Ys, streams())
        assert alone.shape == (n_rep, 1, len(Ts), len(Ys))
        assert np.array_equal(joint[:, j], alone[:, 0])
        assert np.array_equal(np.signbit(joint[:, j]), np.signbit(alone[:, 0]))
    single = she.scaled_sheet_table(p, 0.0, Xs, Ts, Ys, streams()[:1])
    assert single.shape == (1, len(Xs), len(Ts), len(Ys))
    assert np.array_equal(single, joint[:1])


def test_start_axis_validates_starts():
    p = she.ScalingParams(64, 0.0, 0.0)
    assert she.scaled_sheet_table(p, 0.0, [0.25], [0.25],
                                  [0.0, 0.25]).shape == (1, 1, 1, 2)
    for bad in ([], [0.0, 0.3], [0.0, 0.125], [[0.0], [0.25]]):
        # empty, sqrt(n) X not integral, off the even sublattice, not 1-D
        with pytest.raises(ValueError):
            she.scaled_sheet_table(p, 0.0, bad, [0.25], [0.0])


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_sheet_has_one_call_shape(beta):
    # a scalar start and a bare stream are refused, not read as one start
    # or one replica with a table of fewer axes
    p = she.ScalingParams(64, 0.0, beta)
    with pytest.raises(ValueError, match="X must be a nonempty 1-D sequence"):
        she.scaled_sheet_table(p, 0.0, 0.25, [0.25], [0.0], [RngStream(3)])
    with pytest.raises(ValueError, match="rng must be None or a sequence"):
        she.scaled_sheet_table(p, 0.0, [0.25], [0.25], [0.0], RngStream(3))


@pytest.mark.parametrize("rows, block, cap", [(1, 1, 7), (2, 2, 5), (9, 4, 33)])
def test_in_place_bulk_fills_match_per_stream_draws(rows, block, cap):
    # the sweep fills om[:, :block] of an (R, rows, cap) buffer; the map
    # must give the bits of the per-stream uniform draw it replaces, so a
    # numpy build that fused a multiply-add fails here
    for seed in range(8):
        om = np.full((3, rows, cap), np.nan)
        she._fill_bulk(om[:, :block], [RngStream(seed, i) for i in range(3)])
        want = np.array([RngStream(seed, i).gen.uniform(
            -math.sqrt(3.0), math.sqrt(3.0), size=(block, cap)) for i in range(3)])
        got = om[:, :block]
        assert np.array_equal(got, want) and np.array_equal(
            np.signbit(got), np.signbit(want)), \
            "in-place uniform fill differs from the per-stream draw"
        assert np.isnan(om[:, block:]).all()

def test_batched_sheet_table_validates_streams():
    p = she.ScalingParams(64, 0.0, 1.0)
    with pytest.raises(ValueError):
        she.scaled_sheet_table(p, 0.0, [0.0], [0.25], [0.0], rng=[])
    with pytest.raises(ValueError):
        she.scaled_sheet_table(p, 0.0, [0.0], [0.25], [0.0],
                               rng=[RngStream(1), None])
    # nothing random: a sequence of None gives identical replicas
    q = she.ScalingParams(64, 0.0, 0.0)
    tab = she.scaled_sheet_table(q, 0.0, [0.0], [0.25], [0.0], rng=[None, None])
    assert tab.shape == (2, 1, 1, 1) and tab[0, 0, 0, 0] == tab[1, 0, 0, 0]


def test_robin_kernel_neumann_case_is_reflection():
    from scipy.stats import norm

    tau, x0 = 0.5, 0.7
    for y in (0.0, 0.4, 1.3):
        expect = (norm.pdf(x0 - y, scale=math.sqrt(tau))
                  + norm.pdf(x0 + y, scale=math.sqrt(tau)))
        assert she.robin_heat_kernel(0.0, 0.0, x0, tau, y) == pytest.approx(
            expect, rel=1e-12)


def test_robin_kernel_matches_erfc_form():
    # kernel = reflection part - mu e^{mu z + mu^2 tau / 2} erfc(...), the
    # overflow-prone arrangement, checked where both forms are stable
    from scipy.special import erfc

    mu, tau, x0 = 0.8, 0.5, 0.7
    for y in (0.0, 0.5, 1.1):
        z = x0 + y
        refl = she.robin_heat_kernel(0.0, 0.0, x0, tau, y)
        corr = mu * math.exp(mu * z + mu * mu * tau / 2.0) * float(
            erfc((z + mu * tau) / math.sqrt(2.0 * tau)))
        assert she.robin_heat_kernel(mu, 0.0, x0, tau, y) == pytest.approx(
            refl - corr, rel=1e-12)


def test_robin_kernel_stable_far_from_origin():
    val = she.robin_heat_kernel(2.0, 0.0, 30.0, 0.5, 30.0)
    refl = she.robin_heat_kernel(0.0, 0.0, 30.0, 0.5, 30.0)
    assert np.isfinite(val) and 0.0 <= val <= refl


def test_robin_kernel_property_report():
    for mu in (-0.5, 0.0, 1.0):
        rep = she.robin_kernel_property_report(mu)
        assert rep["pde_residual"] < 1e-4
        assert rep["boundary_residual"] < 1e-5
        assert rep["delta_mass_defect"] < 1e-6
        assert rep["delta_mean_defect"] < 1e-4
        assert rep["delta_var_defect"] < 1e-6


def test_neumann_kernel_normalized():
    assert she.neumann_normalization_defect() < 1e-10


def test_scaled_sheet_converges_to_robin_kernel():
    for mu, tol in [(0.0, 2e-3), (0.7, 5e-2)]:
        p = she.ScalingParams(1024, mu, 0.0)
        got = she.scaled_sheet_table(p, 0.0, [0.0], [0.5], [0.5])[0, 0, 0, 0]
        want = she.robin_heat_kernel(mu, 0.0, 0.0, 0.5, 0.5)
        assert got == pytest.approx(want, rel=tol)


# Oracles for the one-sweep readings: each check and table written out per
# endpoint, each DP stepped by hand. The sweep readings must give the same
# bits, since a wider cap adds only exact zeros that no path reaches.

def _oracle_step(f, g):
    """One reflected-walk step: multiply by the factor row, shift up, shift
    down, dropping mass that leaves the cap."""
    h = f * g
    out = np.zeros_like(h)
    out[..., 1:] += h[..., :-1]
    out[..., :-1] += h[..., 1:]
    return out


def _oracle_walk(f, rows):
    for row in rows:
        f = _oracle_step(f, row)
    return f


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(she, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(she, name, counted)
    return calls


@pytest.mark.parametrize("n_rows,n_in", [(0, 0), (0, 1), (4, 0), (4, 2), (4, 5),
                                         (4, 7)])
def test_sweep_yields_every_time(n_rows, n_in):
    # n_in = n_rows + 1 injects at the row count, after the last row
    rng = np.random.default_rng(5300 + 10 * n_rows + n_in)
    cap = 6
    f = rng.uniform(size=(2, cap + 1))
    rows = rng.uniform(size=(n_rows, cap + 1))
    inject = rng.uniform(size=(2, n_in)) if n_in else None
    want, cur = [], f.copy()
    for r in range(n_rows + 1):
        if r < n_in:
            cur = cur.copy()
            cur[:, r] += inject[:, r]
        want.append(cur)
        if r < n_rows:
            cur = _oracle_step(cur, rows[r])
    got = [state.copy() for state in she._sweep(f.copy(), iter(rows), inject)]
    assert len(got) == n_rows + 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(she._run_dp(f.copy(), rows, inject), want[-1])


def test_sweep_broadcasts_a_batch_of_factor_rows():
    # rows laid out [time, boundary, 1, height] against a block of starts:
    # each boundary's slice is that boundary's own sweep
    rng = np.random.default_rng(5301)
    cap = 5
    f = np.eye(cap + 1)[:3]
    rows = rng.uniform(size=(4, 2, 1, cap + 1))
    states = list(she._sweep(f, rows))
    assert [a.shape for a in states] == [(3, cap + 1)] + [(2, 3, cap + 1)] * 4
    for i in range(2):
        alone = list(she._sweep(f, rows[:, i, 0]))
        assert all(np.array_equal(a[i], b) for a, b in zip(states[1:], alone[1:]))


@pytest.mark.parametrize("case", range(8))
def test_kernel_table_is_the_step_by_step_table(case, monkeypatch):
    rng = RngStream(5302 + case)
    s = int(rng.gen.integers(0, 3))
    t = s + int(rng.gen.integers(1, 7))
    cap = int(rng.gen.integers(1, 9))
    boundary = (None if case % 2 else
                she.BoundaryWeights(s, np.exp(0.4 * rng.gen.standard_normal(t - s))))
    g = she._factor_rows(s, t, cap, boundary, None)
    want = {}
    for r1 in range(s, t + 1):
        cur = np.eye(cap + 1)
        want[(r1, r1)] = cur
        for r2 in range(r1, t):
            cur = _oracle_step(cur, g[r2 - s])
            want[(r1, r2 + 1)] = cur
    sweeps = _count_calls(monkeypatch, "_sweep")
    kt = she.build_kernel_table(boundary, s, t, cap)
    assert len(sweeps) == t - s + 1  # one sweep per start time
    assert kt.tables.keys() == want.keys()
    assert all(np.array_equal(kt.matrix(*k), want[k]) for k in want)


def _composition_per_endpoint(boundary, bulk, s, x, t, y):
    """Max defect of the composition law with one left DP per cut, at that
    cut's own cap, and one direct DP per right factor, glued in increasing
    height order."""
    whole = she.modified_partition_direct(boundary, bulk, s, x, t, y)
    g = she._factor_rows(s, t, x + (t - s), boundary, bulk)
    worst = 0.0
    for r in range(s + 1, t):
        cap = x + (r - s)
        left = _oracle_walk(np.eye(cap + 1)[x], g[:r - s, :cap + 1])
        glued = 0.0
        for w in range(cap + 1):
            if left[w] != 0.0 and (r + w) % 2 == (t + y) % 2:
                glued += left[w] * she.modified_partition_direct(
                    boundary, bulk, r, w, t, y)
        worst = max(worst, abs(glued - whole))
    return worst


@pytest.mark.parametrize("case", range(12))
def test_composition_is_the_per_endpoint_glue(case, monkeypatch):
    rng = RngStream(5303 + case)
    if case == 0:
        # t - s = 1: no interior cut
        boundary, bulk, s, x, t, y = _random_instance(rng, 1)
    elif case == 1:
        # y = 7 lies beyond x + (t - s) = 5: every term vanishes
        boundary = she.BoundaryWeights(1, np.exp(0.4 * rng.gen.standard_normal(4)))
        bulk = _uniform_bulk(1, 5, 11, 0.3, rng)
        s, x, t, y = 1, 1, 5, 7
    else:
        boundary, bulk, s, x, t, y = _random_instance(rng, int(rng.gen.integers(2, 8)))
    want = _composition_per_endpoint(boundary, bulk, s, x, t, y)
    partitions = _count_calls(monkeypatch, "_partition")
    assert she.composition_check(boundary, bulk, s, x, t, y) == want
    assert partitions == []  # no DP restarts for an endpoint


def _monotone_per_pair(boundaries, bulk, s, t, x_max):
    """The monotone check with one DP per time pair (s2, t2), truncated at
    that pair's own cap x_max + (t2 - s2)."""
    gs = [she._factor_rows(s, t, x_max + (t - s), b, bulk) for b in boundaries]
    checked, worst = 0, 0.0
    for s2 in range(s, t):
        for t2 in range(s2 + 1, t + 1):
            cap = x_max + (t2 - s2)
            lo, mid, hi = (_oracle_walk(np.eye(cap + 1)[:x_max + 1],
                                        g[s2 - s:t2 - s, :cap + 1]) for g in gs)
            checked += lo.size
            worst = max(worst, float(np.max(lo - mid)), float(np.max(mid - hi)))
    return {"pass": worst == 0.0, "checked": checked, "max_violation": worst}


@pytest.mark.parametrize("case", range(8))
def test_monotone_check_is_the_per_pair_check(case):
    rng = RngStream(5304 + case)
    s = int(rng.gen.integers(0, 3))
    t = s + int(rng.gen.integers(1, 7))
    x_max = int(rng.gen.integers(0, 4))
    mid = np.exp(0.4 * rng.gen.standard_normal(t - s))
    boundaries = [she.BoundaryWeights(s, k * mid) for k in (0.5, 1.0, 1.5)]
    bulk = _uniform_bulk(s, t, x_max + (t - s), 0.3, rng)
    got = she.monotone_coupling_check(*boundaries, bulk, s, t, x_max)
    assert got == _monotone_per_pair(boundaries, bulk, s, t, x_max)


def test_normalization_reads_every_end_height_off_one_dp(monkeypatch):
    from hspolymer import experiments

    seed, instances = 20260801, 6
    want = 0.0
    for i in range(instances):
        rng = RngStream(seed, experiments._stable_base("she") + i)
        t_span = int(rng.gen.integers(2, 11))
        _, _, s, x, t, _ = experiments._random_instance(rng, t_span)
        total = sum(she.reflected_kernel(s, x, t, yy) for yy in range(x + t_span + 1))
        want = max(want, abs(total - 1.0))
    partitions = _count_calls(monkeypatch, "_partition")
    rep = experiments.run_experiment("she-identities", {"instances": instances},
                                     [seed], experiments.RunContext())
    got = {r["test"]: r for r in rep["results"]}["kernel-normalization"]
    assert got["statistic"] == want
    # one direct partition per instance; composition, normalization and
    # monotonicity read their endpoints off sweeps
    assert len(partitions) == instances
