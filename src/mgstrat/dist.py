"""Poisson and binomial probability kernels.

The cumulative distributions are validated wrappers over scipy's
regularized incomplete gamma and beta functions (``pdtr`` and ``betaincc``),
so each value costs O(1) whatever the count.  The pmf vector is evaluated in
log space through the log-gamma function, so means up to ~1e7 stay finite
where naive factorials would overflow; :func:`poisson_tail_cutoff` bounds
how far such a vector needs to run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincc, gammaln, pdtr

__all__ = [
    "poisson_pmf_vector",
    "poisson_cdf",
    "poisson_tail_cutoff",
    "binomial_cdf",
]


def _check_count(value: int, name: str) -> None:
    if value != int(value) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")


def _check_mean(lam: float) -> None:
    if not (lam >= 0.0) or math.isinf(lam):
        raise ValueError(f"mean must be finite and nonnegative, got {lam}")


def _check_probability(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")


def poisson_tail_cutoff(lam: float) -> int:
    """Count past which the remaining Poisson(lam) mass is below 1e-12."""
    _check_mean(lam)
    return int(math.ceil(lam + 12.0 * math.sqrt(lam) + 20.0))


def poisson_pmf_vector(r_max: int, lam: float) -> np.ndarray:
    """Poisson(lam) pmf at every count 0..r_max, as one array."""
    _check_count(r_max, "r_max")
    _check_mean(lam)
    if lam == 0.0:
        out = np.zeros(r_max + 1)
        out[0] = 1.0
        return out
    r = np.arange(r_max + 1, dtype=np.float64)
    return np.exp(r * math.log(lam) - lam - gammaln(r + 1.0))


def poisson_cdf(r: int, lam: float) -> float:
    """P(X <= r) for X ~ Poisson(lam)."""
    _check_count(r, "r")
    _check_mean(lam)
    return float(pdtr(r, lam))


def binomial_cdf(r: int, n: int, p: float) -> float:
    """P(X <= r) for X ~ Binomial(n, p)."""
    _check_count(r, "r")
    _check_count(n, "n")
    _check_probability(p)
    if r >= n:
        return 1.0
    # 1 - I_p(r + 1, n - r).  scipy's bdtr evaluates I_{1-p}(n - r, r + 1)
    # instead, and rounding 1 - p costs it ~n*eps of relative accuracy when p
    # is small (4.5e-10 at n = 1e6, p = 2e-6).
    return float(betaincc(r + 1, n - r, p))
