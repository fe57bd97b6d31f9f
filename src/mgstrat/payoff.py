"""Expected payoffs under the cheat-proof switch rate, and the balanced-split scan.

For a split of M - d against M + d + 1 (d >= 1) with Poisson(lam) defectors
leaving the crowded side, the four next-day winning probabilities of a
thin-side agent ("stay" vs "switch") and a crowded-side agent ("stay" vs
"switch") are plain Poisson tail sums.  At the cheat-proof lam the two
crowded-side options tie exactly, and the two thin-side options leave
staying strictly better -- which is what makes the strategy stable.

The balanced split (M against M + 1) is different: there the defector
counts on the two sides would have to silence two indifference conditions
at once, and no pair of means does. :func:`infeasibility_scan` demonstrates
this on a grid by showing the two residuals are never simultaneously small.
The pointwise reason: the thin residual minus the crowd one is minus a sum
of two coincidence probabilities, P(first = second - 2) + P(first = second),
which is strictly negative, so the residuals can never both vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import count, float_or_array, integers, means, number, positive
from .dist import poisson_cdf, skellam_cdf
from .solver import solve_lambda

__all__ = [
    "PayoffQuadruple",
    "expected_payoffs",
    "CheatCheck",
    "verify_no_cheat",
    "payoff_curve",
    "CrossProbs",
    "delta0_cross_probs",
    "InfeasibilityReport",
    "infeasibility_scan",
    "log_spaced_grid",
]


@dataclass(frozen=True)
class PayoffQuadruple:
    """Next-day winning probabilities for the two sides of an unbalanced split.

    ``thin_stay``/``thin_switch`` are for an agent currently on the minority
    side; ``crowd_stay``/``crowd_switch`` for one on the majority side.
    Each is a float, or an array when the payoffs were taken over arrays.
    """

    thin_stay: float | np.ndarray
    thin_switch: float | np.ndarray
    crowd_stay: float | np.ndarray
    crowd_switch: float | np.ndarray


def expected_payoffs(
    delta: np.typing.ArrayLike, lam: np.typing.ArrayLike
) -> PayoffQuadruple:
    """Winning probabilities when Poisson(lam) agents defect from the crowd.

    A thin-side stayer wins if at most ``delta`` agents arrive; a thin-side
    switcher wins only if so many leave that the sides trade places, i.e.
    at least ``delta + 2`` departures; and symmetrically for the crowd.
    Elementwise over the broadcast ``delta`` and ``lam``.
    """
    delta = integers(delta, "imbalance", 1)
    lam = means(lam, positive=True)
    thin_stay = poisson_cdf(delta, lam)
    return PayoffQuadruple(
        thin_stay=thin_stay,
        thin_switch=1.0 - poisson_cdf(delta + 1, lam),
        crowd_stay=1.0 - thin_stay,
        crowd_switch=poisson_cdf(delta - 1, lam),
    )


@dataclass(frozen=True)
class CheatCheck:
    """Stay-minus-switch margins for both sides at a candidate switch rate.

    ``ok`` requires the crowded side to be indifferent (margin ~ 0) while
    the thin side strictly prefers staying (margin > 0).
    """

    ok: bool
    crowd_margin: float
    thin_margin: float


def verify_no_cheat(delta: int, lam: float, tol: float = 1e-8) -> CheatCheck:
    """Check that ``lam`` makes deviation unprofitable on both sides.

    Takes one imbalance and one mean; arrays are refused, naming the argument.
    """
    tol = positive(tol, "tolerance")
    q = expected_payoffs(count(delta, "delta", 1), number(lam, "lam"))
    crowd_margin = q.crowd_stay - q.crowd_switch
    thin_margin = q.thin_stay - q.thin_switch
    return CheatCheck(
        ok=abs(crowd_margin) <= tol and thin_margin > tol,
        crowd_margin=crowd_margin,
        thin_margin=thin_margin,
    )


def payoff_curve(delta_max: int) -> list[tuple[int, float, float]]:
    """(imbalance, thin-side stay payoff, crowd-side stay payoff) at the solved rate.

    The two stay payoffs sum to one at every imbalance: the thin side wins
    exactly when the crowd does not.
    """
    deltas = np.arange(1, count(delta_max, "imbalance", 1) + 1)
    q = expected_payoffs(deltas, solve_lambda(deltas))
    return list(zip(deltas.tolist(), q.thin_stay.tolist(), q.crowd_stay.tolist()))


@dataclass(frozen=True)
class CrossProbs:
    """Tail probabilities of two independent defector counts.

    ``first`` counts arrivals onto the smaller side, ``second`` departures
    from it.  The four fields are P(first < second - 2), P(first >= second),
    P(first < second - 1), and P(first >= second + 1).  Each is a float, or
    an array when the probabilities were taken over arrays.
    """

    lt_minus_2: float | np.ndarray
    ge: float | np.ndarray
    lt_minus_1: float | np.ndarray
    ge_plus_1: float | np.ndarray


def delta0_cross_probs(
    lam_first: np.typing.ArrayLike, lam_second: np.typing.ArrayLike
) -> CrossProbs:
    """Cross probabilities for independent Poisson(lam_first), Poisson(lam_second).

    Each is a value of the Skellam CDF of the count difference, in closed
    form.  Elementwise over the broadcast means; floats for scalar input.
    """
    lam_first = means(lam_first, "first mean", positive=True)
    lam_second = means(lam_second, "second mean", positive=True)
    # first < second - j  <=>  first - second <= -j - 1, and
    # first >= second + j  <=>  second - first <= -j.
    probs = (
        skellam_cdf(-3, lam_first, lam_second),
        skellam_cdf(0, lam_second, lam_first),
        skellam_cdf(-2, lam_first, lam_second),
        skellam_cdf(-1, lam_second, lam_first),
    )
    return CrossProbs(*(float_or_array(np.clip(p, 0.0, 1.0)) for p in probs))


@dataclass(frozen=True)
class InfeasibilityReport:
    """Outcome of a grid search for a joint root of the balanced-split residuals."""

    min_max_residual: float
    worst_point: tuple[float, float]
    orderings_hold: bool
    points_checked: int
    tolerance: float
    no_joint_root: bool


def infeasibility_scan(
    grid: list[tuple[float, float]], tol: float = 1e-4
) -> InfeasibilityReport:
    """Show no mean pair on ``grid`` silences both balanced-split residuals.

    For each pair the score is max(|thin residual|, |crowd residual|); the
    report carries the smallest score seen and where it occurred.
    ``no_joint_root`` is true when even that best point stays above ``tol``.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    tol = positive(tol, "tolerance")
    means = np.asarray(grid, dtype=np.float64)
    outside = ~((means > 0.0) & (means <= 20.0)).all(axis=1)
    if outside.any():
        lam_first, lam_second = grid[int(np.argmax(outside))]
        raise ValueError(
            f"grid means must lie in (0, 20], got ({lam_first}, {lam_second})"
        )
    c = delta0_cross_probs(means[:, 0], means[:, 1])
    scores = np.maximum(np.abs(c.lt_minus_2 - c.ge), np.abs(c.lt_minus_1 - c.ge_plus_1))
    best = int(np.argmin(scores))
    lam_first, lam_second = grid[best]
    return InfeasibilityReport(
        min_max_residual=float(scores[best]),
        worst_point=(lam_first, lam_second),
        orderings_hold=bool(np.all((c.lt_minus_2 < c.lt_minus_1) & (c.ge_plus_1 < c.ge))),
        points_checked=len(grid),
        tolerance=tol,
        no_joint_root=bool(scores[best] > tol),
    )


def log_spaced_grid(
    low: float = 0.05, high: float = 20.0, count: int = 50
) -> list[tuple[float, float]]:
    """All pairs from a log-spaced axis of ``count`` means in [low, high]."""
    low, high, count = number(low, "low"), number(high, "high"), number(count, "count", int)
    if not (0.0 < low < high):
        raise ValueError(f"need 0 < low < high, got low={low}, high={high}")
    if count < 2:
        raise ValueError(f"count must be at least 2, got {count}")
    axis = np.geomspace(low, high, count)
    return [(float(a), float(b)) for a in axis for b in axis]
