"""Poisson, binomial and Skellam probability kernels.

The cumulative distributions are validated wrappers over scipy's
regularized incomplete gamma and beta functions (``pdtr`` and ``betaincc``)
and its noncentral chi-square CDF (``chndtr``), so each value costs O(1)
whatever the count.  scipy is imported on the first call (``_special``), so
subcommands that never evaluate a CDF (``kpr``, ``--version``) skip its
start-up cost.
"""

from __future__ import annotations

import math
from functools import cache
from types import ModuleType

import numpy as np

__all__ = [
    "poisson_cdf",
    "binomial_cdf",
    "skellam_cdf",
]


@cache
def _special() -> ModuleType:
    """``scipy.special``, imported once on first use.

    A cached call costs ~0.1 us; an import statement in each kernel cost
    ~1 us, which the root solver's hundreds of thousands of CDF calls felt.
    """
    import scipy.special

    return scipy.special


def _check_count(value: int, name: str) -> None:
    if value != int(value) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")


def _check_mean(lam: float) -> None:
    if not (lam >= 0.0) or math.isinf(lam):
        raise ValueError(f"mean must be finite and nonnegative, got {lam}")


def _check_probability(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")


def poisson_cdf(r: int, lam: float) -> float:
    """P(X <= r) for X ~ Poisson(lam)."""
    _check_count(r, "r")
    _check_mean(lam)
    return float(_special().pdtr(r, lam))


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
    return float(_special().betaincc(r + 1, n - r, p))


def skellam_cdf(
    k: int, lam_first: np.typing.ArrayLike, lam_second: np.typing.ArrayLike
) -> np.ndarray:
    """P(X - Y <= k) for independent X ~ Poisson(lam_first), Y ~ Poisson(lam_second).

    Elementwise over arrays of means.  The difference of two Poisson counts
    is Skellam-distributed, and its CDF is a noncentral chi-square CDF:
    chndtr(2 lam_second, -2k, 2 lam_first) for k < 0, and one minus the
    mirrored case for k >= 0.
    """
    if k != int(k):
        raise ValueError(f"k must be an integer, got {k}")
    lam_first = np.asarray(lam_first, dtype=np.float64)
    lam_second = np.asarray(lam_second, dtype=np.float64)
    for lam in (lam_first, lam_second):
        if not np.all((lam >= 0.0) & np.isfinite(lam)):
            raise ValueError(f"means must be finite and nonnegative, got {lam}")
    chndtr = _special().chndtr
    if k < 0:
        return chndtr(2.0 * lam_second, -2.0 * k, 2.0 * lam_first)
    return 1.0 - chndtr(2.0 * lam_first, 2.0 * (k + 1), 2.0 * lam_second)
