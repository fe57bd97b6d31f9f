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
this on a grid by showing the two residuals are never simultaneously small,
and :func:`delta0_residual_gap_bound` gives the pointwise reason: their
difference is minus a sum of two coincidence probabilities, which is
strictly negative, so the residuals can never both vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "delta0_residuals",
    "delta0_residual_gap_bound",
    "InfeasibilityReport",
    "infeasibility_scan",
    "log_spaced_grid",
]


def _check_delta(delta: int) -> None:
    if delta != int(delta) or delta < 1:
        raise ValueError(f"imbalance must be a positive integer, got {delta}")


def _check_mean(lam: float, name: str = "mean") -> None:
    if not (lam > 0.0) or math.isinf(lam):
        raise ValueError(f"{name} must be finite and positive, got {lam}")


@dataclass(frozen=True)
class PayoffQuadruple:
    """Next-day winning probabilities for the two sides of an unbalanced split.

    ``thin_stay``/``thin_switch`` are for an agent currently on the minority
    side; ``crowd_stay``/``crowd_switch`` for one on the majority side.
    """

    thin_stay: float
    thin_switch: float
    crowd_stay: float
    crowd_switch: float


def expected_payoffs(delta: int, lam: float) -> PayoffQuadruple:
    """Winning probabilities when Poisson(lam) agents defect from the crowd.

    A thin-side stayer wins if at most ``delta`` agents arrive; a thin-side
    switcher wins only if so many leave that the sides trade places, i.e.
    at least ``delta + 2`` departures; and symmetrically for the crowd.
    """
    _check_delta(delta)
    _check_mean(lam)
    return PayoffQuadruple(
        thin_stay=poisson_cdf(delta, lam),
        thin_switch=1.0 - poisson_cdf(delta + 1, lam),
        crowd_stay=1.0 - poisson_cdf(delta, lam),
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
    """Check that ``lam`` makes deviation unprofitable on both sides."""
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    q = expected_payoffs(delta, lam)
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
    _check_delta(delta_max)
    rows = []
    for d in range(1, delta_max + 1):
        q = expected_payoffs(d, solve_lambda(d))
        rows.append((d, q.thin_stay, q.crowd_stay))
    return rows


@dataclass(frozen=True)
class CrossProbs:
    """Tail probabilities of two independent defector counts.

    ``first`` counts arrivals onto the smaller side, ``second`` departures
    from it.  The four fields are P(first < second - 2), P(first >= second),
    P(first < second - 1), and P(first >= second + 1).
    """

    lt_minus_2: float
    ge: float
    lt_minus_1: float
    ge_plus_1: float


def _cross_arrays(
    lam_first: np.typing.ArrayLike, lam_second: np.typing.ArrayLike
) -> tuple[np.ndarray, ...]:
    """The four CrossProbs fields, in order, elementwise over arrays of means."""
    # first < second - j  <=>  first - second <= -j - 1, and
    # first >= second + j  <=>  second - first <= -j.
    probs = (
        skellam_cdf(-3, lam_first, lam_second),
        skellam_cdf(0, lam_second, lam_first),
        skellam_cdf(-2, lam_first, lam_second),
        skellam_cdf(-1, lam_second, lam_first),
    )
    return tuple(np.clip(p, 0.0, 1.0) for p in probs)


def delta0_cross_probs(lam_first: float, lam_second: float) -> CrossProbs:
    """Cross probabilities for independent Poisson(lam_first), Poisson(lam_second).

    Each is a value of the Skellam CDF of the count difference, in closed
    form.
    """
    _check_mean(lam_first, "first mean")
    _check_mean(lam_second, "second mean")
    return CrossProbs(*(float(p) for p in _cross_arrays(lam_first, lam_second)))


def delta0_residuals(lam_first: float, lam_second: float) -> tuple[float, float]:
    """The two indifference residuals of the balanced split.

    First element: the thin side's stay-vs-switch balance; second: the
    crowd's.  Cheat-proofness would need both to vanish at once.
    """
    c = delta0_cross_probs(lam_first, lam_second)
    return (c.lt_minus_2 - c.ge, c.lt_minus_1 - c.ge_plus_1)


def delta0_residual_gap_bound(lam_first: float, lam_second: float) -> float:
    """Difference of the two balanced-split residuals (thin minus crowd).

    It equals -(P(first = second - 2) + P(first = second)), a strictly
    negative quantity, so the two residuals are never equal -- let alone
    simultaneously zero.
    """
    first_r, second_r = delta0_residuals(lam_first, lam_second)
    return first_r - second_r


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
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    means = np.asarray(grid, dtype=np.float64)
    outside = ~((means > 0.0) & (means <= 20.0)).all(axis=1)
    if outside.any():
        lam_first, lam_second = grid[int(np.argmax(outside))]
        raise ValueError(
            f"grid means must lie in (0, 20], got ({lam_first}, {lam_second})"
        )
    lt_minus_2, ge, lt_minus_1, ge_plus_1 = _cross_arrays(means[:, 0], means[:, 1])
    scores = np.maximum(np.abs(lt_minus_2 - ge), np.abs(lt_minus_1 - ge_plus_1))
    best = int(np.argmin(scores))
    lam_first, lam_second = grid[best]
    return InfeasibilityReport(
        min_max_residual=float(scores[best]),
        worst_point=(lam_first, lam_second),
        orderings_hold=bool(np.all((lt_minus_2 < lt_minus_1) & (ge_plus_1 < ge))),
        points_checked=len(grid),
        tolerance=tol,
        no_joint_root=bool(scores[best] > tol),
    )


def log_spaced_grid(
    low: float = 0.05, high: float = 20.0, count: int = 50
) -> list[tuple[float, float]]:
    """All pairs from a log-spaced axis of ``count`` means in [low, high]."""
    if not (0.0 < low < high):
        raise ValueError(f"need 0 < low < high, got low={low}, high={high}")
    if count < 2:
        raise ValueError(f"count must be at least 2, got {count}")
    axis = np.geomspace(low, high, count)
    return [(float(a), float(b)) for a in axis for b in axis]
