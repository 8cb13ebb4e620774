import math

import numpy as np
import pytest

from hspolymer import scaling, she
from hspolymer.distributions import sample_inverse_gamma
from hspolymer.rng import RngStream
from hspolymer.stationary import (DiscreteStationaryParams, sample_zuv_path,
                                  scaled_initial_data, second_moment_analytic)
from hspolymer.stats import SampleSet, ks_two_sample


def test_config_validation():
    for n, u, v, match in [(10, 0.6, -0.2, "perfect square"),
                           (16, 0.6, 0.2, "v <= min"),     # v > 0
                           (16, -0.3, -0.2, "v <= min")]:  # v > u
        with pytest.raises(ValueError, match=match):
            scaling.scaled_stationary_process(n, u, v, 0.0, [0.25], RngStream(0))


def test_process_needs_two_distinct_rows():
    with pytest.raises(ValueError, match="v < u"):
        scaling.scaled_stationary_process(16, -0.2, -0.2, 0.0, [0.25], RngStream(0))


@pytest.mark.parametrize("seed", [6005, 20260801])
def test_process_is_the_matching_left_side(seed):
    # n = 16: alpha_n = 4.5, and (T, X) = (0.5, 0.5) is (t, y) = (4, 2)
    R = 300
    proc = scaling.scaled_stationary_process(16, 0.6, -0.2, 0.5, [0.5],
                                             RngStream(seed).substream(1), R)
    lhs = scaling.matching_identity_check(4.5, 0.6, -0.2, 4, 2, R,
                                          RngStream(seed))[:, 0]
    assert np.array_equal(proc[:, 0], lhs)


def test_process_base_point_vanishes():
    out = scaling.scaled_stationary_process(16, 0.6, -0.2, 0.0, [0.0, 0.5],
                                            RngStream(6001), 200)
    assert np.all(out[:, 0] == 0.0)
    assert not np.all(out[:, 1] == 0.0)


def test_process_deterministic():
    a = scaling.scaled_stationary_process(16, 0.6, -0.2, 0.5, [0.25, 0.75],
                                          RngStream(6002), 100)
    b = scaling.scaled_stationary_process(16, 0.6, -0.2, 0.5, [0.25, 0.75],
                                          RngStream(6002), 100)
    assert np.array_equal(a, b)


def test_process_initial_slice_matches_explicit_sampler():
    n, u, v, x = 64, 0.6, -0.2, 0.5
    proc = scaling.scaled_stationary_process(n, u, v, 0.0, [x], RngStream(6003),
                                             8000)[:, 0]
    init = scaled_initial_data(n, u, v, [x], RngStream(6004), 8000)[:, 0]
    res = ks_two_sample(SampleSet(proc, label="process"),
                        SampleSet(init, label="initial"))
    assert res.passed, (res.statistic, res.threshold)


def test_diagonal_time_map():
    assert scaling.diagonal_time(1, 0) == 0
    assert scaling.diagonal_time(2, 1) == 3
    assert scaling.diagonal_time(3, 2) == 6


@pytest.mark.parametrize("n", [100, 10000])
def test_bulk_moments_closed_forms(n):
    rep = scaling.bulk_weight_matching_moments(n, max_order=4)
    g = rep["g"]
    assert rep["mean_exact_zero"]
    assert rep["var_matches_formula"]
    assert rep["var"] == pytest.approx(g / (g - 1.0), rel=1e-13)
    third = 4.0 * g ** 1.5 / ((g - 1.0) * (g - 2.0))
    fourth = 3.0 * (g + 6.0) * g * g / ((g - 1.0) * (g - 2.0) * (g - 3.0))
    assert rep["moments"][3]["value"] == pytest.approx(third, rel=1e-12)
    assert rep["moments"][4]["value"] == pytest.approx(fourth, rel=1e-12)
    assert rep["moments"][2]["limit"] == 1.0
    assert rep["moments"][4]["limit"] == 3.0
    assert rep["moments"][3]["limit"] == 0.0


def test_bulk_moments_validation():
    with pytest.raises(ValueError):
        scaling.bulk_weight_matching_moments(2)
    with pytest.raises(ValueError):
        scaling.bulk_weight_matching_moments(99)
    with pytest.raises(ValueError):
        scaling.bulk_weight_matching_moments(16, max_order=8)


def test_bulk_mc_moment_agrees_with_exact():
    rep = scaling.bulk_weight_matching_moments(100, max_order=2)
    est = scaling.bulk_weight_mc_moment(100, 2, 200000, RngStream(6102))
    assert est == pytest.approx(rep["moments"][2]["value"], rel=0.03)


def test_boundary_moments_hand_values():
    rep = scaling.boundary_weight_matching_moments(100, 1.0)
    rn, mu = 10.0, 0.5
    assert rep["mu"] == pytest.approx(mu)
    assert rep["mean"] == pytest.approx(rn / (rn + mu), rel=1e-13)
    assert rep["var"] == pytest.approx(100.0 / ((rn + mu) ** 2 * (rn + mu - 1)),
                                       rel=1e-13)
    # the drift defect is exactly mu^2 / (sqrt(n) + mu)
    assert rep["drift_gap"] == pytest.approx(mu * mu / (rn + mu), rel=1e-12)
    assert rep["drift_gap"] == pytest.approx(rep["drift_gap_bound"], rel=1e-12)
    with pytest.raises(ValueError):
        scaling.boundary_weight_matching_moments(4, -1.0)


def test_matching_identity_guards():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        scaling.matching_identity_check(2.0, 0.7, -0.3, 0, 1, 10, rng)
    with pytest.raises(ValueError):
        scaling.matching_identity_check(2.0, 0.7, -0.3, 6, 0, 10, rng)
    with pytest.raises(ValueError):
        scaling.matching_identity_check(2.0, 0.7, -0.3, 2, 5, 10, rng)


def test_matching_identity_at_first_corner():
    out = scaling.matching_identity_check(2.0, 0.7, -0.3, 1, 0, 10000,
                                          RngStream(6103))
    assert out.shape == (10000, 2)
    res = ks_two_sample(SampleSet(out[:, 0], label="octant"),
                        SampleSet(out[:, 1], label="framework"))
    assert res.passed, (res.statistic, res.threshold)


def test_matching_identity_reproducible():
    a = scaling.matching_identity_check(2.0, 0.7, -0.3, 2, 1, 500,
                                        RngStream(6104))
    b = scaling.matching_identity_check(2.0, 0.7, -0.3, 2, 1, 500,
                                        RngStream(6104))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("t,y", [(1, 0), (2, 1), (3, 2)])
def test_matching_right_side_is_the_diagonal_initial_data_partition(t, y):
    # one replica, its draws replayed in the right side's order: the z_{u,v}
    # path, then per row the boundary factor and the bulk row, then the
    # endpoint factor; the bulk enters she as omega = factor - 1 at beta = 1
    alpha, u, v, seed = 2.0, 0.7, -0.3, 6105
    rhs = scaling.matching_identity_check(alpha, u, v, t, y, 1,
                                          RngStream(seed))[0, 1]
    rng = RngStream(seed).substream(2)
    bulk_scale = 2.0 * alpha - 1.0
    bdry_scale = bulk_scale / 2.0
    s_end, x_hi = scaling.diagonal_time(t, y), t + y - 1
    log_zuv = sample_zuv_path(DiscreteStationaryParams(alpha=alpha, u=u, v=v),
                              x_hi + 1, rng, n_replicas=1)[0]
    init = {x: bdry_scale ** (x + 1) * math.exp(log_zuv[x + 1])
            for x in range(x_hi + 1)}
    cap = max(x_hi, y) + s_end    # she's truncation height
    bdry, omega = np.empty(s_end), np.zeros((s_end, cap + 1))
    for r in range(s_end):
        bdry[r] = bdry_scale * sample_inverse_gamma(alpha + u, rng, size=1)[0]
        omega[r, :s_end + 1] = bulk_scale * sample_inverse_gamma(
            2.0 * alpha, rng, size=(1, s_end + 1))[0] - 1.0
    z = she.partition_with_initial_data(
        "diagonal", init, she.BoundaryWeights(0, bdry),
        she.BulkWeights(0, omega, beta=1.0), s_end, y, x_truncation=x_hi)
    if y == 0:
        endpoint = bdry_scale * sample_inverse_gamma(alpha + u, rng, size=1)[0]
        front = 0.0
    else:
        endpoint = bulk_scale * sample_inverse_gamma(2.0 * alpha, rng, size=1)[0]
        front = math.log(0.5)
    assert not z.truncated
    assert rhs == pytest.approx(front + math.log(endpoint * z.value), rel=1e-12)


_SHEET16 = she.ScalingParams(16, 0.0, 0.0)


def _kpz16(T, X_list):
    return scaling.scaled_stationary_process(16, 0.6, -0.2, T, X_list, RngStream(0))


# every refusal of a scaled coordinate or lattice level reached through a
# public caller, at n = 16 (sqrt(n) = 4), with the message it must give
SCALED_REFUSALS = {
    "sheet-X-not-integral": (r"sqrt\(n\)X = 1.2 ", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [0.3], [0.5], [0.25])),
    "sheet-Y-not-integral": (r"sqrt\(n\)Y = 1.2 ", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [0.0], [0.5], [0.3])),
    "sheet-T-not-integral": (r"nT = 8.16 ", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [0.0], [0.51], [0.0])),
    "sheet-S-not-integral": (r"nS = 0.16 ", lambda: she.scaled_sheet_table(
        _SHEET16, 0.01, [0.0], [0.5], [0.0])),
    "sheet-X-negative": (r"sqrt\(n\)X = -2.0 ", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [-0.5], [0.5], [0.0])),
    "sheet-Y-negative": (r"sqrt\(n\)Y = -2.0 ", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [0.0], [0.5], [-0.5])),
    "sheet-T-not-after-S": ("need T > S", lambda: she.scaled_sheet_table(
        _SHEET16, 0.5, [0.0], [0.5], [0.0])),
    "sheet-start-off-sublattice": ("even sublattice", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [0.25], [0.5], [0.0])),
    "sheet-end-off-sublattice": ("even sublattice", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [0.0], [0.5], [0.25])),
    "sheet-one-start-off-sublattice": ("even sublattice", lambda: she.scaled_sheet_table(
        _SHEET16, 0.0, [0.0, 0.25], [0.5], [0.0])),
    "sheet-n-not-square": ("perfect square", lambda: she.ScalingParams(10, 0.0, 0.0)),
    "sheet-n-below-4": ("perfect square", lambda: she.ScalingParams(1, 0.0, 0.0)),
    "kpz-n-not-square": ("perfect square", lambda: scaling.scaled_stationary_process(
        10, 0.6, -0.2, 0.0, [0.0], RngStream(0))),
    "kpz-n-below-4": ("perfect square", lambda: scaling.scaled_stationary_process(
        1, 0.6, -0.2, 0.0, [0.0], RngStream(0))),
    "kpz-T-not-integral": (r"nT/2 = 2.4 ", lambda: _kpz16(0.3, [0.0])),
    "kpz-T-negative": (r"nT/2 = -2.0 ", lambda: _kpz16(-0.25, [0.0])),
    "kpz-X-not-integral": (r"sqrt\(n\) X = 1.2 ", lambda: _kpz16(0.0, [0.0, 0.3])),
    "kpz-X-negative": (r"sqrt\(n\) X = -1.0 ", lambda: _kpz16(0.0, [-0.25])),
    "init-X-not-integral": (r"sqrt\(n\) X = 1.2 ", lambda: scaled_initial_data(
        16, 0.6, 0.2, [0.0, 0.3], RngStream(0))),
    "init-X-negative": (r"sqrt\(n\) X = -1.0 ", lambda: scaled_initial_data(
        16, 0.6, 0.2, [-0.25], RngStream(0))),
    "moment-X-not-integral": (r"sqrt\(n\) X = 1.23 ",
                              lambda: second_moment_analytic(100, 0.5, 0.2, 0.123)),
    "moment-X-negative": (r"sqrt\(n\) X = -1.0 ",
                          lambda: second_moment_analytic(100, 0.5, 0.2, -0.1)),
}


@pytest.mark.parametrize("message, call", SCALED_REFUSALS.values(),
                         ids=SCALED_REFUSALS.keys())
def test_scaled_coordinates_are_refused(message, call):
    with pytest.raises(ValueError, match=message):
        call()
