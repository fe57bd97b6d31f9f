"""Expected payoffs under the cheat-proof switch rate, and the no-cheat check.

For a split of M - d against M + d + 1 (d >= 1) with Poisson(lam) defectors
leaving the crowded side, the four next-day winning probabilities of a
thin-side agent ("stay" vs "switch") and a crowded-side agent ("stay" vs
"switch") are plain Poisson tail sums.  At the cheat-proof lam the two
crowded-side options tie exactly, and the two thin-side options leave
staying strictly better -- which is what makes the strategy stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import count, integers, means, number, positive
from .dist import poisson_cdf

__all__ = [
    "PayoffQuadruple",
    "expected_payoffs",
    "CheatCheck",
    "verify_no_cheat",
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
