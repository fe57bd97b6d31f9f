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

:func:`solve_lambda` finds the roots by bisection.  :func:`solve_p_finite`
solves the analogous balance at finite crowd size, where the defector count
is Binomial(M + d, p) and the unknown is the per-agent probability p.  Both
take arrays and run one bisection loop over all their entries at once
(:func:`_bisect`), each entry stepping through exactly the midpoints a
scalar bisection of its own would.  :class:`LambdaTable` precomputes roots
up to a chosen d and extends them with the ``d + 1/6`` asymptote beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._checks import count, float_or_array, integers, means, positive
from .dist import _poisson_cdf, binomial_cdf

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


def _check_delta(delta: np.typing.ArrayLike) -> np.ndarray:
    return integers(delta, "imbalance", 1).astype(np.int64, copy=False)


def _bisect(
    residual: Callable[..., np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    params: tuple[np.ndarray, ...],
    tolerance: float,
    solver: str,
    label: Callable[[int], str],
) -> np.ndarray:
    """Roots of a decreasing residual on the brackets [lo, hi], elementwise.

    ``residual(x, *params)`` evaluates the open entries at ``x``; each array
    in ``params`` holds one column per entry along its last axis, and drops
    an entry's column when the entry closes.  Each step evaluates every open
    entry at its midpoint; an entry closes at its first midpoint with
    |residual| < ``tolerance``, and otherwise keeps the half where the sign
    changes.  So each entry follows the midpoints a scalar bisection of its
    own would, bit for bit.  ``label(i)`` names entry i in the error.
    """
    roots = np.empty_like(lo)
    index = np.arange(lo.size)
    steps = 0
    while index.size and steps < _MAX_BISECTIONS:
        steps += 1
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid, *params)
        done = np.abs(f_mid) < tolerance
        # count_nonzero: a third of the cost of .any() on small arrays
        if np.count_nonzero(done):
            roots[index[done]] = mid[done]
            open_ = ~done
            index, lo, hi, mid, f_mid = (a[open_] for a in (index, lo, hi, mid, f_mid))
            params = tuple(a[..., open_] for a in params)
        above = f_mid > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    if not index.size:
        return roots
    raise NumericError(
        f"{solver}: residual still {f_mid[0]:.3e} after "
        f"{_MAX_BISECTIONS} bisections for {label(index[0])}"
    )


def _counts(delta: np.ndarray) -> np.ndarray:
    """d - 1 stacked over d: the two CDF counts of the residual at imbalance d."""
    return np.stack((delta - 1, delta))


def _residual(lam: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # 2 P(X <= d-1) - 1 + P(X = d), with P(X = d) = P(X <= d) - P(X <= d-1);
    # one CDF call gives both terms, unchecked: both callers checked the inputs.
    cdf = _poisson_cdf(counts, lam)
    return cdf[0] + cdf[1] - 1.0


def indifference_residual(
    lam: np.typing.ArrayLike, delta: np.typing.ArrayLike
) -> float | np.ndarray:
    """Expected-gain balance for a crowded-side agent, as a function of lam.

    Positive values mean defecting too rarely (a deviator should leave),
    negative values mean defecting too often (a deviator should stay put).
    Zero is the cheat-proof point.  Elementwise over arrays; a float for
    scalar input.
    """
    delta = _check_delta(delta)
    lam, delta = np.broadcast_arrays(means(lam, positive=True), delta)
    return float_or_array(_residual(lam, _counts(delta)))


def solve_lambda(
    delta: np.typing.ArrayLike, tolerance: float = 1e-10
) -> float | np.ndarray:
    """Cheat-proof mean defector count for each imbalance in ``delta``.

    Elementwise over an integer array of any shape, in any order and with
    repeats; a float for scalar input.  Bisects
    :func:`indifference_residual` on [delta, delta + 1] and stops when the
    residual magnitude drops below ``tolerance``, which must lie in
    (0, MAX_TOLERANCE].  One bisection solves every entry.
    """
    deltas = _check_delta(delta)
    shape, deltas = deltas.shape, deltas.ravel()
    tolerance = positive(tolerance, "tolerance", MAX_TOLERANCE)
    counts = _counts(deltas)
    lo = deltas.astype(np.float64)
    hi = lo + 1.0
    unbracketed = ~((_residual(lo, counts) > 0.0) & (_residual(hi, counts) < 0.0))
    if unbracketed.any():
        delta = int(deltas[unbracketed][0])
        raise NumericError(
            f"switch-rate solver: no sign change on [{float(delta)}, "
            f"{float(delta + 1)}] for imbalance {delta}"
        )
    roots = _bisect(
        _residual,
        lo,
        hi,
        (counts,),
        tolerance,
        "switch-rate solver",
        lambda i: f"imbalance {deltas[i]}",
    )
    return float_or_array(roots.reshape(shape))


def lambda_gap(delta: np.typing.ArrayLike) -> float | np.ndarray:
    """solve_lambda(delta) - delta; tends to 1/6 as the imbalance grows."""
    return solve_lambda(delta) - delta


def _check_crowd(
    delta: np.typing.ArrayLike, m: np.typing.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    delta = _check_delta(delta)
    m = integers(m, "crowd parameter", 1).astype(np.int64)
    over = delta > m
    if over.any():
        delta, m = (a[over].flat[0] for a in np.broadcast_arrays(delta, m))
        raise ValueError(f"imbalance {delta} exceeds crowd parameter {m}")
    return delta, m


def _balance(p: np.ndarray, delta: np.ndarray, m: np.ndarray) -> np.ndarray:
    n = m + delta
    return (1.0 - binomial_cdf(delta, n, p)) - binomial_cdf(delta - 1, n, p)


def finite_m_balance(
    p: np.typing.ArrayLike, delta: np.typing.ArrayLike, m: np.typing.ArrayLike
) -> float | np.ndarray:
    """Finite-crowd analogue of :func:`indifference_residual`, in p.

    The crowded side holds m + delta agents besides the deviator, each
    defecting with probability p, so the defector count is
    Binomial(m + delta, p).  This balance is increasing in p.  Elementwise
    over arrays; a float for scalar input.
    """
    return _balance(p, *_check_crowd(delta, m))


def solve_p_finite(
    delta: np.typing.ArrayLike, m: np.typing.ArrayLike, tolerance: float = 1e-12
) -> float | np.ndarray:
    """Cheat-proof per-agent defection probability at finite crowd size.

    Bisects :func:`finite_m_balance` on (0, 1); its value runs from -1 at
    p=0 to +1 at p=1 and is monotone, so the root is unique.  Elementwise
    over the broadcast ``delta`` and ``m``; a float for scalar input.
    """
    tolerance = positive(tolerance, "tolerance")
    deltas, ms = np.broadcast_arrays(*_check_crowd(delta, m))
    shape = deltas.shape
    deltas, ms = deltas.ravel(), ms.ravel()
    roots = _bisect(
        # Negated, so the residual decreases as _bisect expects.
        lambda p, delta, m: -_balance(p, delta, m),
        np.zeros(deltas.size),
        np.ones(deltas.size),
        (deltas, ms),
        tolerance,
        "finite-crowd solver",
        lambda i: f"imbalance {deltas[i]}, crowd parameter {ms[i]}",
    )
    return float_or_array(roots.reshape(shape))


def default_delta_max(n: int) -> int:
    """Table depth that comfortably covers the imbalances a crowd of n visits."""
    n = count(n, "population size", 1)
    return int(math.ceil(3.0 * math.sqrt(n))) + 10


@dataclass(frozen=True)
class LambdaTable:
    """Precomputed cheat-proof means with an asymptotic fallback.

    ``roots[d - 1]`` holds the root for imbalance d, as a read-only array.
    ``lookup`` gives these roots up to ``delta_max`` and ``d + 1/6`` beyond
    it, where the table's own entries confirm the approximation error is
    already far below simulation noise.
    """

    delta_max: int
    roots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        depth = count(self.delta_max, "table depth", 1)
        roots = solve_lambda(np.arange(1, depth + 1))
        roots.flags.writeable = False
        object.__setattr__(self, "roots", roots)

    def lookup(self, delta: np.typing.ArrayLike) -> float | np.ndarray:
        """The mean for each imbalance in ``delta``; a float for scalar input."""
        delta = _check_delta(delta)
        inside = delta <= self.roots.size
        lam = np.asarray(delta + ASYMPTOTIC_GAP)
        lam[inside] = self.roots[delta[inside] - 1]
        return float_or_array(lam)
