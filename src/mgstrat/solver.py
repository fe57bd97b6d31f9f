"""Cheat-proof switch-rate solvers.

Setting
-------
2M + 1 agents split between two restaurants, M - d against M + d + 1 with
d >= 1.  Every agent on the crowded side flips an identical biased coin to
decide whether to defect to the thin side, so the defector count is (in the
large-M limit) Poisson with some mean ``lam``.  The strategy is cheat-proof
when a crowded-side agent is exactly indifferent between obeying the coin
and ignoring it: overriding the coin in either direction then carries zero
expected gain, so no unilateral deviation pays.

That indifference condition is a single scalar equation in ``lam``,

    2 * P(X <= d - 1) - 1 + P(X = d) = 0,   X ~ Poisson(lam),

whose left side -- :func:`indifference_residual` -- is strictly decreasing
in ``lam`` (its derivative is -(pmf(d-1) + pmf(d))), so the root is unique.
It always lies inside [d, d + 1], and for large d approaches d + 1/6 from
above.

:func:`solve_lambda` finds the root by bisection.  :func:`solve_p_finite`
solves the analogous balance at finite crowd size, where the defector count
is Binomial(M + d, p) and the unknown is the per-agent probability p.
:class:`LambdaTable` precomputes roots up to a chosen d and extends them
with the ``d + 1/6`` asymptote beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .dist import binomial_cdf, poisson_cdf

__all__ = [
    "ASYMPTOTIC_GAP",
    "MAX_TOLERANCE",
    "NumericError",
    "indifference_residual",
    "solve_lambda",
    "lambda_gap",
    "solve_p_finite",
    "finite_m_balance",
    "LambdaTable",
    "default_delta_max",
]

# Large-imbalance limit of solve_lambda(d) - d.
ASYMPTOTIC_GAP = 1.0 / 6.0

# Loosest residual tolerance solve_lambda accepts.  The bisection stops on
# the residual alone, so a looser one would return a visibly wrong root.
MAX_TOLERANCE = 1e-6

_MAX_BISECTIONS = 200


class NumericError(ArithmeticError):
    """A root finder failed to bracket a sign change or to converge."""


def _check_delta(delta: int) -> None:
    if delta != int(delta) or delta < 1:
        raise ValueError(f"imbalance must be a positive integer, got {delta}")


def indifference_residual(lam: float, delta: int) -> float:
    """Expected-gain balance for a crowded-side agent, as a function of lam.

    Positive values mean defecting too rarely (a deviator should leave),
    negative values mean defecting too often (a deviator should stay put).
    Zero is the cheat-proof point.
    """
    _check_delta(delta)
    if not (lam > 0.0) or math.isinf(lam):
        raise ValueError(f"mean must be finite and positive, got {lam}")
    # 2 P(X <= d-1) - 1 + P(X = d), with P(X = d) = P(X <= d) - P(X <= d-1).
    return poisson_cdf(delta - 1, lam) + poisson_cdf(delta, lam) - 1.0


def solve_lambda(delta: int, tolerance: float = 1e-10) -> float:
    """Cheat-proof mean defector count for imbalance ``delta``.

    Bisects :func:`indifference_residual` on [delta, delta + 1], widening
    the bracket once if the sign change is not already inside.  Stops when
    the residual magnitude drops below ``tolerance``, which must lie in
    (0, MAX_TOLERANCE].  Roots are cached per (delta, tolerance), however
    the arguments are passed; ``solve_lambda.cache_clear()`` empties the
    cache.
    """
    _check_delta(delta)
    if not (0.0 < tolerance <= MAX_TOLERANCE):
        raise ValueError(
            f"tolerance must lie in (0, {MAX_TOLERANCE:g}], got {tolerance}"
        )
    return _bisect_root(int(delta), float(tolerance))


@lru_cache(maxsize=None)
def _bisect_root(delta: int, tolerance: float) -> float:
    lo, hi = float(delta), float(delta + 1)
    f_lo = indifference_residual(lo, delta)
    f_hi = indifference_residual(hi, delta)
    if not (f_lo > 0.0 > f_hi):
        lo, hi = 0.5 * delta, float(delta + 2)
        f_lo = indifference_residual(lo, delta)
        f_hi = indifference_residual(hi, delta)
        if not (f_lo > 0.0 > f_hi):
            raise NumericError(
                f"switch-rate solver: no sign change on [{lo}, {hi}] for imbalance {delta}"
            )
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = indifference_residual(mid, delta)
        if abs(f_mid) < tolerance:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericError(
        f"switch-rate solver: residual still {f_mid:.3e} after {_MAX_BISECTIONS} "
        f"bisections for imbalance {delta}"
    )


solve_lambda.cache_clear = _bisect_root.cache_clear  # type: ignore[attr-defined]
solve_lambda.cache_info = _bisect_root.cache_info  # type: ignore[attr-defined]


def lambda_gap(delta: int) -> float:
    """solve_lambda(delta) - delta; tends to 1/6 as the imbalance grows."""
    return solve_lambda(delta) - delta


def finite_m_balance(p: float, delta: int, m: int) -> float:
    """Finite-crowd analogue of :func:`indifference_residual`, in p.

    The crowded side holds m + delta agents besides the deviator, each
    defecting with probability p, so the defector count is
    Binomial(m + delta, p).  This balance is increasing in p.
    """
    _check_delta(delta)
    if m != int(m) or m < 1:
        raise ValueError(f"crowd parameter must be a positive integer, got {m}")
    if delta > m:
        raise ValueError(f"imbalance {delta} exceeds crowd parameter {m}")
    n = m + delta
    return (1.0 - binomial_cdf(delta, n, p)) - binomial_cdf(delta - 1, n, p)


@lru_cache(maxsize=None)
def solve_p_finite(delta: int, m: int, tolerance: float = 1e-12) -> float:
    """Cheat-proof per-agent defection probability at finite crowd size.

    Bisects :func:`finite_m_balance` on (0, 1); its value runs from -1 at
    p=0 to +1 at p=1 and is monotone, so the root is unique.
    """
    if not (tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = finite_m_balance(mid, delta, m)
        if abs(f_mid) < tolerance:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericError(
        f"finite-crowd solver: residual still {f_mid:.3e} after {_MAX_BISECTIONS} "
        f"bisections for imbalance {delta}, crowd parameter {m}"
    )


def default_delta_max(n: int) -> int:
    """Table depth that comfortably covers the imbalances a crowd of n visits."""
    if n != int(n) or n < 1:
        raise ValueError(f"population size must be a positive integer, got {n}")
    return int(math.ceil(3.0 * math.sqrt(n))) + 10


@dataclass(frozen=True)
class LambdaTable:
    """Precomputed cheat-proof means with an asymptotic fallback.

    ``lookup`` returns the exact root for imbalances up to ``delta_max``
    and ``delta + 1/6`` beyond it, where the table's own entries confirm
    the approximation error is already far below simulation noise.
    """

    delta_max: int
    tolerance: float = 1e-10
    entries: Mapping[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.delta_max != int(self.delta_max) or self.delta_max < 1:
            raise ValueError(
                f"table depth must be a positive integer, got {self.delta_max}"
            )
        table = {
            d: solve_lambda(d, self.tolerance) for d in range(1, self.delta_max + 1)
        }
        object.__setattr__(self, "entries", MappingProxyType(table))

    def lookup(self, delta: int) -> float:
        _check_delta(delta)
        if delta <= self.delta_max:
            return self.entries[delta]
        return delta + ASYMPTOTIC_GAP
