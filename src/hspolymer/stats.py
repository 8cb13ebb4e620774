"""Statistical machinery turning in-law statements into pass/fail tests.

The models under test satisfy exact equalities in distribution, so the tests
are Kolmogorov-Smirnov comparisons with an asymptotic p-value; a failure at
the 0.1% level over 1e5+ samples points at a bug, not at noise. The limiting
Kolmogorov law Q and its inverse, which give the p-values and critical
values, are scipy's `kolmogorov` and `kolmogi`. A suite helper implements
the shared multiplicity policy: every statistic must clear the critical
value, except that one marginal excursion below 1.2x the threshold is
retried once with a fresh substream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream
from .special import kolmogi, kolmogorov

# the level of every KS test
KS_LEVEL = 1e-3


@dataclass
class SampleSet:
    """Tagged i.i.d. scalar draws."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("empty sample set")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"sample set {self.label!r} contains non-finite entries")
        self.values = vals

    def __len__(self):
        return self.values.size


@dataclass
class KsResult:
    statistic: float
    n_eff: float
    p_approx: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold


def ks_threshold(n_eff: float) -> float:
    """Critical D at KS_LEVEL for effective sample size n_eff: the root
    of Q(lambda) = KS_LEVEL, scaled by 1/sqrt(n_eff)."""
    return kolmogi(KS_LEVEL) / np.sqrt(n_eff)


def ks_result(d: float, sizes: tuple) -> KsResult:
    """The result of sup-distance d between an empirical CDF of sizes[0]
    points and an analytic CDF (one size) or a second empirical CDF of
    sizes[1] points."""
    n_eff = float(sizes[0]) if len(sizes) == 1 else \
        sizes[0] * sizes[1] / (sizes[0] + sizes[1])
    return KsResult(d, n_eff, kolmogorov(np.sqrt(n_eff) * d),
                    ks_threshold(n_eff))


def ks_two_sample(a: SampleSet, b: SampleSet) -> KsResult:
    """Exact sup-distance between the two empirical CDFs."""
    xa = np.sort(a.values)
    xb = np.sort(b.values)
    na, nb = xa.size, xb.size
    both = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, both, side="right") / na
    cdf_b = np.searchsorted(xb, both, side="right") / nb
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    return ks_result(d, (na, nb))


def _cdf_at(cdf, x: np.ndarray) -> np.ndarray:
    f = np.asarray(cdf(x), dtype=float)
    if not np.all((f >= 0.0) & (f <= 1.0)):
        raise ValueError("cdf is NaN or outside [0, 1] on the sample range")
    return f


def _ks_terms(idx: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    """The larger of (i + 1)/n - F(x_i) and F(x_i) - i/n at sorted indices i."""
    grid = idx.astype(float)
    return np.maximum((grid + 1.0) / n - f, f - grid / n)


def ks_one_sample(a: SampleSet, cdf) -> KsResult:
    """Sup-distance of the empirical CDF against an analytic CDF.

    F is evaluated at every s-th sorted point and at the last one, with
    s = isqrt(n) // 16 (at least 1). Between neighbouring evaluated indices
    a < b a nondecreasing F bounds every interior term: (i + 1)/n - F(x_i)
    <= b/n - F(x_a) and F(x_i) - i/n <= F(x_b) - (a + 1)/n. One more call
    evaluates the interiors of the blocks whose bound reaches the best
    coarse term, less the monotonicity guard's 1e-12. Every term is the
    expression of a full evaluation, so D is the same double.
    """
    x = np.sort(a.values)
    n = x.size
    s = max(1, math.isqrt(n) // 16)
    idx = np.append(np.arange(0, n - 1, s), n - 1)
    f = _cdf_at(cdf, x[idx])
    best = np.max(_ks_terms(idx, f, n))
    bound = np.maximum(idx[1:] / n - f[:-1], f[1:] - (idx[:-1] + 1.0) / n)
    inner = np.repeat(bound >= best - 1e-12, np.diff(idx))
    inner[::s] = False
    rest = np.flatnonzero(inner)
    if rest.size:
        idx = np.concatenate([idx, rest])
        f = np.concatenate([f, _cdf_at(cdf, x[rest])])
    if np.any(np.diff(f[np.argsort(idx)]) < -1e-12):
        raise ValueError("cdf is not monotone on the sample range")
    return ks_result(float(np.max(_ks_terms(idx, f, n))), (n,))


def moment_compare(a: SampleSet, k: int, target: float) -> dict:
    """k-th raw sample moment against a target, at 3 jackknife SE.

    Returns a report dict; `pass` is |estimate - target| <= 3 SE. A huge SE
    relative to the estimate is flagged so callers notice divergent moments.
    """
    xk = a.values ** k if k != 1 else a.values
    n = xk.size
    est = float(np.mean(xk))
    # leave-one-out means; their spread gives the jackknife SE of the mean
    loo = (n * est - xk) / (n - 1)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))
    err = abs(est - target)
    return {
        "test": f"moment k={k}",
        "estimate": est,
        "target": float(target),
        "se": se,
        "statistic": err / se if se > 0 else np.inf,
        "threshold": 3.0,
        "pass": bool(err <= 3.0 * se),
        "se_blowup": bool(se > max(abs(est), 1.0)),
    }


@dataclass
class KsSuite:
    """Collects named KS checks and applies the multiplicity policy.

    No statistic may exceed its threshold; at most one marginal excursion
    under 1.2x the threshold is allowed, and that single check is
    rerun once via the provided resample callback on retry_stream. The
    retry must then clear the threshold outright.
    """

    name: str = ""
    checks: list = field(default_factory=list)

    def add(self, label: str, result: KsResult, resample=None):
        self.checks.append({"label": label, "result": result, "resample": resample})

    def evaluate(self, retry_stream: RngStream) -> dict:
        hard, marginal = [], []
        for c in self.checks:
            r = c["result"]
            if r.statistic >= 1.2 * r.threshold:
                hard.append(c)
            elif r.statistic > r.threshold:
                marginal.append(c)
        retried = []
        if not hard and len(marginal) == 1 and marginal[0]["resample"] is not None:
            c = marginal[0]
            r2 = c["resample"](retry_stream)
            retried.append({"label": c["label"], "statistic": r2.statistic,
                            "threshold": r2.threshold})
            if r2.passed:
                c["result"] = r2
                marginal = []
        ok = not hard and not marginal
        return {
            "suite": self.name,
            "pass": bool(ok),
            "n_checks": len(self.checks),
            "retried": retried,
            "results": [
                {
                    "test": c["label"],
                    "statistic": c["result"].statistic,
                    "threshold": c["result"].threshold,
                    "pass": bool(c["result"].passed),
                }
                for c in self.checks
            ],
        }
