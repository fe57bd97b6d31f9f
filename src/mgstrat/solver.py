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

:func:`solve_lambda` finds the roots on [d, d + 1].  :func:`solve_p_finite`
solves the balance at finite crowd size, where the defector count is
Binomial(M + d, p), on the same bracket in ``lam = p * (M + d + 1)``.  Both
hand one ITP loop (interpolate, truncate, project; :func:`_itp`) all their
entries at once; it checks every bracket's sign change, then steps each
entry through exactly the points a scalar loop of its own would.  On these
smooth residuals ITP converges superlinearly: every root of d = 1..3000
takes at most 6 steps where bisection took up to 32, and finite-crowd roots
at most 7.  :class:`LambdaTable` precomputes roots up to a chosen d and
extends them with the ``d + 1/6`` asymptote beyond it.
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
    "solve_p_finite",
    "finite_m_balance",
    "LambdaTable",
    "default_delta_max",
]

# Large-imbalance limit of solve_lambda(d) - d.
ASYMPTOTIC_GAP = 1.0 / 6.0

# Loosest residual tolerance both solvers accept.  The root loop stops on the
# residual alone, so a looser one would return a visibly wrong root.
MAX_TOLERANCE = 1e-6

# The root loop's step cap, and its ITP constants: the truncation is
# _KAPPA1 * w**2 on a bracket of width w (kappa2 = 2, computed as w * w), and
# the projection lets the bracket fall at most _N0 steps behind bisection's.
_MAX_STEPS = 200
_KAPPA1 = 0.1
_N0 = 1


class NumericError(ArithmeticError):
    """A root finder failed to bracket a sign change or to converge."""


def _check_delta(delta: np.typing.ArrayLike) -> np.ndarray:
    return integers(delta, "imbalance", 1).astype(np.int64, copy=False)


def _itp(
    residual: Callable[..., np.ndarray],
    lo: np.ndarray,
    params: tuple[np.ndarray, ...],
    tolerance: float,
    solver: str,
    label: Callable[[int], str],
) -> np.ndarray:
    """Roots of a decreasing residual on the unit brackets [lo, lo + 1], elementwise.

    ``residual(x, *params)`` evaluates the open entries at ``x``; each array
    in ``params`` holds one column per entry along its last axis, and drops
    an entry's column when the entry closes.  The residual must be positive
    at ``lo`` and negative at ``lo + 1``; NumericError naming the first
    entry where it is not.  Each step is one ITP step (interpolate,
    truncate, project; Oliveira & Takahashi, ACM TOMS 47(1), 2020): take
    the regula falsi point, move it κ1·w² towards the midpoint of the
    width-w bracket, and keep it close enough to the midpoint that the
    bracket after j steps is at most 2**(_N0 - j) wide, never more than
    2**_N0 times bisection's.  An entry closes at its first point with
    |residual| < ``tolerance`` and otherwise keeps the part where the sign
    changes.  Every iterate is built from +, -, *, / and exact powers of
    two, so a scalar copy of the loop gives the same roots bit for bit.
    ``label(i)`` names entry i in the errors.  ``lo`` is updated in place.
    """
    hi = lo + 1.0
    f_lo = residual(lo, *params)
    f_hi = residual(hi, *params)
    unbracketed = np.flatnonzero(~((f_lo > 0.0) & (f_hi < 0.0)))
    if unbracketed.size:
        i = unbracketed[0]
        raise NumericError(f"{solver}: no sign change on [{lo[i]}, {hi[i]}] for {label(i)}")
    roots = np.empty_like(lo)
    index = np.arange(lo.size)
    steps = 0
    while index.size and steps < _MAX_STEPS:
        width = hi - lo
        mid = lo + hi
        mid *= 0.5
        # Interpolate: the regula falsi point, as its offset from the midpoint.
        offset = f_lo - f_hi
        np.divide(f_lo, offset, out=offset)
        offset *= width
        offset += lo
        np.subtract(mid, offset, out=offset)
        # Truncate: move it _KAPPA1 * w**2 towards the midpoint, but not past it;
        # project: keep it within 2**(_N0 - 1 - j) - w / 2 of the midpoint.
        shift = np.abs(offset)
        shift -= _KAPPA1 * (width * width)
        reach = 2.0 ** (_N0 - 1 - steps) - np.multiply(width, 0.5, out=width)
        np.minimum(shift, reach, out=shift)
        np.maximum(shift, 0.0, out=shift)
        x = np.subtract(mid, np.copysign(shift, offset, out=shift), out=mid)
        del width, offset, shift, reach  # freed before the residual allocates
        steps += 1
        f_x = residual(x, *params)
        done = np.abs(f_x) < tolerance
        # count_nonzero: a third of the cost of .any() on small arrays
        if np.count_nonzero(done):
            roots[index[done]] = x[done]
            open_ = ~done
            # One array at a time, so each old copy is freed before the next.
            index = index[open_]
            lo = lo[open_]
            hi = hi[open_]
            f_lo = f_lo[open_]
            f_hi = f_hi[open_]
            x = x[open_]
            f_x = f_x[open_]
            params = tuple(a[..., open_] for a in params)
        above = f_x > 0.0
        np.copyto(lo, x, where=above)
        np.copyto(f_lo, f_x, where=above)
        np.logical_not(above, out=above)
        np.copyto(hi, x, where=above)
        np.copyto(f_hi, f_x, where=above)
    if not index.size:
        return roots
    raise NumericError(
        f"{solver}: residual still {f_x[0]:.3e} after "
        f"{_MAX_STEPS} steps for {label(index[0])}"
    )


def _counts(delta: np.ndarray) -> np.ndarray:
    """d - 1 stacked over d: the two CDF counts of the residual at imbalance d."""
    return np.stack((delta - 1, delta))


def _residual(lam: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # 2 P(X <= d-1) - 1 + P(X = d), with P(X = d) = P(X <= d) - P(X <= d-1);
    # one CDF call gives both terms, unchecked: both callers checked the inputs.
    cdf = _poisson_cdf(counts, lam)
    residual = cdf[0] + cdf[1]
    residual -= 1.0
    return residual


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
    repeats; a float for scalar input.  Searches
    :func:`indifference_residual` on [delta, delta + 1] by ITP steps and
    stops when the residual magnitude drops below ``tolerance``, which must
    lie in (0, MAX_TOLERANCE].  One loop solves every entry.
    """
    deltas = _check_delta(delta)
    shape, deltas = deltas.shape, deltas.ravel()
    tolerance = positive(tolerance, "tolerance", MAX_TOLERANCE)
    roots = _itp(
        _residual,
        deltas.astype(np.float64),
        (_counts(deltas),),
        tolerance,
        "switch-rate solver",
        lambda i: f"imbalance {deltas[i]}",
    )
    return float_or_array(roots.reshape(shape))


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


def _binomial_residual(p: np.ndarray, counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    # F(d-1) + F(d) - 1 for F the CDF of Binomial(n, p), from one CDF call.
    cdf = binomial_cdf(counts, n, p)
    residual = cdf[0] + cdf[1]
    residual -= 1.0
    return residual


def finite_m_balance(
    p: np.typing.ArrayLike, delta: np.typing.ArrayLike, m: np.typing.ArrayLike
) -> float | np.ndarray:
    """Finite-crowd analogue of :func:`indifference_residual`, in p.

    The crowded side holds m + delta agents besides the deviator, each
    defecting with probability p, so the defector count is
    Binomial(m + delta, p).  This balance is increasing in p: it is minus
    the residual :func:`solve_p_finite` solves.  Elementwise over arrays; a
    float for scalar input.
    """
    delta, m = _check_crowd(delta, m)
    p, delta, m = np.broadcast_arrays(p, delta, m)
    return float_or_array(-_binomial_residual(p, _counts(delta), m + delta))


def solve_p_finite(
    delta: np.typing.ArrayLike, m: np.typing.ArrayLike, tolerance: float = 1e-12
) -> float | np.ndarray:
    """Cheat-proof per-agent defection probability at finite crowd size.

    Solves :func:`finite_m_balance` as :func:`solve_lambda` solves its
    residual, in ``lam = p * (m + delta + 1)`` on [delta, delta + 1] with
    ``tolerance`` in (0, MAX_TOLERANCE], and returns ``lam / (m + delta + 1)``.
    The balance is monotone, so the root is unique.  Elementwise over the
    broadcast ``delta`` and ``m``; a float for scalar input.
    """
    tolerance = positive(tolerance, "tolerance", MAX_TOLERANCE)
    deltas, ms = np.broadcast_arrays(*_check_crowd(delta, m))
    shape, deltas, ms = deltas.shape, deltas.ravel(), ms.ravel()
    n = ms + deltas
    roots = _itp(
        lambda lam, counts, n: _binomial_residual(lam / (n + 1), counts, n),
        deltas.astype(np.float64),
        (_counts(deltas), n),
        tolerance,
        "finite-crowd solver",
        lambda i: f"imbalance {deltas[i]}, crowd parameter {ms[i]}",
    )
    return float_or_array((roots / (n + 1)).reshape(shape))


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
