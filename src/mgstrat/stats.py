"""Observables computed over recorded trajectories.

The headline quantity is the inefficiency eta: four times the mean squared
distance of the attendance from the ideal n/2, normalized by n.  Random
choice pins it at 1; the strategy drives it toward zero like a power of the
crowd size.  The rest of the module measures how the system decorrelates --
which side wins (fast, a few days) and who sits where (slow, controlled by
the reset policy) -- and how long recovery from a reset takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Trajectory

__all__ = [
    "inefficiency_eta",
    "delta_histogram",
    "s_autocorrelation",
    "s_decay_rate",
    "c_autocorrelation",
    "EpisodeStats",
    "convergence_time",
]


def _burned(values: np.ndarray, burn_in: int, what: str) -> np.ndarray:
    if burn_in != int(burn_in) or burn_in < 0:
        raise ValueError(f"burn-in must be a nonnegative integer, got {burn_in}")
    out = values[burn_in:]
    if out.size == 0:
        raise ValueError(f"burn-in {burn_in} leaves no {what}")
    return out


def inefficiency_eta(trajectory: Trajectory, burn_in: int = 0) -> float:
    """(4/n) * mean over days of (imbalance + 1/2)^2.

    Equivalent to (4/n) * mean of (attendance_A - n/2)^2, since the signed
    imbalance is M - attendance_A and n = 2M + 1 is the trajectory's
    population size.
    """
    shifted = _burned(trajectory.deltas, burn_in, "days") + 0.5
    np.square(shifted, out=shifted)
    return float(4.0 / trajectory.n * np.mean(shifted))


def delta_histogram(trajectory: Trajectory, burn_in: int = 0) -> dict[int, float]:
    """Empirical distribution of the signed imbalance, as {value: frequency}."""
    deltas = _burned(trajectory.deltas, burn_in, "days")
    values, counts = np.unique(deltas, return_counts=True)
    total = counts.sum()
    return {int(v): float(c) / total for v, c in zip(values, counts)}


def s_autocorrelation(trajectory: Trajectory, tau_max: int) -> np.ndarray:
    """<S(t) S(t+tau)> for tau = 0..tau_max, S being the winning-side sign.

    This is C(tau) of the one-column record of which side won, so it shares
    c_autocorrelation's exact integer count.
    """
    return c_autocorrelation((trajectory.deltas < 0)[:, None], tau_max)


def s_decay_rate(acf: np.ndarray) -> float:
    """Exponential decay rate fitted to |acf| at lags 1..3 by least squares.

    Magnitudes are floored at 1e-300 so a zero sample correlation cannot
    take the logarithm to -inf.
    """
    acf = np.asarray(acf, dtype=np.float64)
    if acf.size < 4:
        raise ValueError(f"need lags 0..3, got {acf.size} entries")
    lags = np.array([1.0, 2.0, 3.0])
    logs = np.log(np.maximum(np.abs(acf[1:4]), 1e-300))
    slope = np.polyfit(lags, logs, 1)[0]
    return float(-slope)


# Upper bound on the boolean temporary of one block comparison in
# c_autocorrelation, so its memory stays flat however long the record is.
COMPARE_BLOCK_BYTES = 4 << 20


def c_autocorrelation(choice_matrix: np.ndarray | None, tau_max: int) -> np.ndarray:
    """Mean per-agent choice autocorrelation at lags 0..tau_max.

    ``choice_matrix`` is the (days x agents) record of 0/1 choices; with
    entries read as +/-1, the value at lag tau is the mean product of an
    agent's choices tau days apart, so lag 0 gives exactly 1.  It is
    computed from the integer count of changed entries, (N - 2 changed) / N
    over the N = (days - tau) * agents pairs, rounded once.  The changed
    entries are counted in row blocks of at most ``COMPARE_BLOCK_BYTES``.
    """
    if choice_matrix is None:
        raise ValueError("choices were not recorded; rerun with record_choices=True")
    if tau_max != int(tau_max) or tau_max < 1:
        raise ValueError(f"tau_max must be a positive integer, got {tau_max}")
    choice_matrix = np.asarray(choice_matrix)
    if choice_matrix.ndim != 2:
        raise ValueError("choice matrix must be two-dimensional (days x agents)")
    days = choice_matrix.shape[0]
    if days <= tau_max:
        raise ValueError(f"trajectory of {days} days is too short for lag {tau_max}")
    agents = choice_matrix.shape[1]
    block = max(1, COMPARE_BLOCK_BYTES // agents)
    out = np.empty(tau_max + 1)
    out[0] = 1.0
    for tau in range(1, tau_max + 1):
        changed = 0
        for start in range(0, days - tau, block):
            stop = min(start + block, days - tau)
            changed += int(
                np.count_nonzero(
                    choice_matrix[start:stop] != choice_matrix[start + tau : stop + tau]
                )
            )
        pairs = (days - tau) * agents
        out[tau] = (pairs - 2 * changed) / pairs
    return out


@dataclass(frozen=True)
class EpisodeStats:
    """Lengths of the recovery episodes that follow re-randomization nights."""

    lengths: np.ndarray
    mean: float
    median: float
    max: int

    @classmethod
    def from_lengths(cls, lengths: np.typing.ArrayLike) -> "EpisodeStats":
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size == 0:
            raise ValueError("no completed episodes")
        # Integer sums are exact in float64, so the mean and median are too.
        return cls(
            lengths=lengths,
            mean=float(lengths.mean()),
            median=float(np.median(lengths)),
            max=int(lengths.max()),
        )


def episode_lengths(trajectory: Trajectory) -> np.ndarray:
    """Days from each re-randomization night back to the next marginal split.

    An episode runs from a recorded reset day to the first later day whose
    excess is zero (imbalance 0 or -1).  Episodes still open when the record
    ends are dropped rather than guessed at.
    """
    deltas = trajectory.deltas
    marginal_days = np.flatnonzero((deltas == 0) | (deltas == -1))
    reset_days = np.flatnonzero(trajectory.reset)
    following = np.searchsorted(marginal_days, reset_days, side="right")
    closed = following < marginal_days.size
    return marginal_days[following[closed]] - reset_days[closed]


def convergence_time(trajectory: Trajectory) -> EpisodeStats:
    """Episode-length statistics (mean/median/max) over all completed episodes."""
    if not trajectory.reset.any():
        raise ValueError("trajectory contains no re-randomization nights")
    return EpisodeStats.from_lengths(episode_lengths(trajectory))
