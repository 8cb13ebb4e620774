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

from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream
from .special import kolmogi, kolmogorov


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


def ks_threshold(n_eff: float, alpha: float = 1e-3) -> float:
    """Critical D at level alpha for effective sample size n_eff: the root
    of Q(lambda) = alpha, scaled by 1/sqrt(n_eff)."""
    return kolmogi(alpha) / np.sqrt(n_eff)


def ks_two_sample(a: SampleSet, b: SampleSet, alpha: float = 1e-3) -> KsResult:
    """Exact sup-distance between the two empirical CDFs."""
    xa = np.sort(a.values)
    xb = np.sort(b.values)
    na, nb = xa.size, xb.size
    both = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, both, side="right") / na
    cdf_b = np.searchsorted(xb, both, side="right") / nb
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = na * nb / (na + nb)
    lam = np.sqrt(n_eff) * d
    return KsResult(d, n_eff, kolmogorov(lam), ks_threshold(n_eff, alpha))


def ks_one_sample(a: SampleSet, cdf, alpha: float = 1e-3) -> KsResult:
    """Sup-distance of the empirical CDF against an analytic CDF."""
    x = np.sort(a.values)
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf is not monotone on the sample range")
    grid = np.arange(n, dtype=float)
    d_plus = np.max((grid + 1.0) / n - f)
    d_minus = np.max(f - grid / n)
    d = float(max(d_plus, d_minus))
    lam = np.sqrt(n) * d
    return KsResult(d, float(n), kolmogorov(lam), ks_threshold(n, alpha))


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
    rerun once via the provided resample callback with a fresh stream. The
    retry must then clear the threshold outright.
    """

    name: str = ""
    checks: list = field(default_factory=list)

    def add(self, label: str, result: KsResult, resample=None):
        self.checks.append({"label": label, "result": result, "resample": resample})

    def evaluate(self, retry_stream: RngStream | None = None) -> dict:
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
            stream = retry_stream if retry_stream is not None else RngStream(0xF5EE, 0)
            r2 = c["resample"](stream)
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
