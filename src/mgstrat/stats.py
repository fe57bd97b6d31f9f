"""Observables computed over recorded trajectories.

The headline quantity is the inefficiency eta: four times the mean squared
distance of the attendance from the ideal n/2, normalized by n.  Random
choice pins it at 1; the strategy drives it toward zero like a power of the
crowd size.  The rest of the module measures how the system decorrelates --
which side wins (fast, a few days) and who sits where (slow, controlled by
the reset policy) -- and how long recovery from a reset takes.  C(tau) is
read off the head counts, with the same mean as a per-agent record's value
and less variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import binary, count
from .engine import Trajectory

__all__ = [
    "inefficiency_eta",
    "delta_histogram",
    "s_autocorrelation",
    "c_autocorrelation",
    "EpisodeStats",
    "episode_lengths",
]


def _burned(values: np.ndarray, burn_in: int, what: str) -> np.ndarray:
    burn_in = count(burn_in, "burn_in", 0)
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


# Upper bound on the packed rows one block comparison in c_autocorrelation
# XORs, so its memory stays flat however long the record is.
COMPARE_BLOCK_BYTES = 4 << 20

# Starting days one block of the count-path C(tau) takes, so its
# temporaries (~15 float64 a day) stay flat however long the run is.
COUNT_BLOCK_DAYS = 1 << 14


def c_autocorrelation(choices: Trajectory | np.ndarray, tau_max: int) -> np.ndarray:
    """Mean per-agent choice autocorrelation at lags 0..tau_max.

    With choices read as +/-1, the value at lag tau is the mean product of
    an agent's choices tau days apart, so lag 0 gives exactly 1.

    For a trajectory it is the expectation given the head counts.  The
    movers off a side are a uniform subset of it, so with pa = off_A / a and
    pb = off_B / b on night t a tagged agent's choice x has E[x(t + 1) |
    x(t)] = r x(t) + d, r = 1 - (pa + pb) and d = pb - pa.  As the choices
    on day t add to a_t - b_t, (T - tau) n C(tau) sums, over days t,
    n prod_{s=t}^{t+tau-1} r_s + (a_t - b_t) h_tau(t), where
    h_tau = h_(tau-1) r + d and h_0 = 0.  Writing r as 1 - (pa + pb) keeps
    relabeling A and B exact.

    For a (days x agents) record of 0s and 1s it is the exact count of
    changed choices, the set bits of row XOR row-tau over packed rows
    compared ``COMPARE_BLOCK_BYTES`` at a time, as (N - 2 changed) / N over
    the N = (days - tau) * agents pairs, rounded once.
    """
    tau_max = count(tau_max, "tau_max", 1)
    if isinstance(choices, Trajectory):
        days, words = choices.days, None
    else:
        matrix = np.asarray(choices)
        if matrix.ndim != 2 or not matrix.shape[1]:
            raise ValueError("choice matrix must be (days x agents), with at least one agent")
        (days, agents), words = matrix.shape, _packed_words(binary(matrix))
    if days <= tau_max:
        raise ValueError(f"trajectory of {days} days is too short for lag {tau_max}")
    if words is None:
        return _count_path_autocorrelation(choices, tau_max)
    block = max(1, COMPARE_BLOCK_BYTES // words[0].nbytes)
    out = np.empty(tau_max + 1)
    out[0] = 1.0
    for tau in range(1, tau_max + 1):
        changed = 0
        for start in range(0, days - tau, block):
            stop = min(start + block, days - tau)
            changed += int(
                np.bitwise_count(words[start:stop] ^ words[start + tau : stop + tau]).sum()
            )
        pairs = (days - tau) * agents
        out[tau] = (pairs - 2 * changed) / pairs
    return out


def _packed_words(matrix: np.ndarray) -> np.ndarray:
    """Each row of a 0/1 matrix as uint64 words, one bit per entry.

    Entry j is bit j % 8 of byte j // 8, and a row is zero-padded to whole
    words, so the set bits of one row XOR another count where they differ.
    """
    packed = np.packbits(matrix, axis=1, bitorder="little")
    rows = np.zeros((matrix.shape[0], 8 * -(-matrix.shape[1] // 64)), dtype=np.uint8)
    rows[:, : packed.shape[1]] = packed
    return rows.view(np.uint64)


def _count_path_autocorrelation(trajectory: Trajectory, tau_max: int) -> np.ndarray:
    """C(tau) given the head counts, ``COUNT_BLOCK_DAYS`` starting days at a time."""
    n, days = trajectory.n, trajectory.days
    m = (n - 1) // 2
    sums = np.zeros(tau_max + 1)
    for start in range(0, days - 1, COUNT_BLOCK_DAYS):
        stop = min(start + COUNT_BLOCK_DAYS, days - 1)
        # The nights after days start .. last - 1 reach lag tau_max.
        last = min(stop + tau_max - 1, days - 1)
        before = trajectory.deltas[start:last]
        rise = before - trajectory.deltas[start + 1 : last + 1]  # of the head count at A
        thin = trajectory.thin_movers[start:last]
        # The crowd, at B when the imbalance is nonnegative, loses the thin
        # side's movers plus the net change.
        crowd_at_b = before >= 0
        crowd = thin + np.where(crowd_at_b, rise, -rise)
        at_a = m - before
        pa = np.where(crowd_at_b, thin, crowd) / np.maximum(at_a, 1)
        pb = np.where(crowd_at_b, crowd, thin) / np.maximum(n - at_a, 1)
        r = 1 - (pa + pb)
        d = pb - pa
        spread = 2 * at_a[: stop - start] - n  # a_t - b_t
        product = np.ones(stop - start)
        h = np.zeros(stop - start)
        for tau in range(1, tau_max + 1):
            size = min(stop, days - tau) - start
            if size <= 0:
                break
            product, h = product[:size], h[:size]
            product *= r[tau - 1 : tau - 1 + size]
            h *= r[tau - 1 : tau - 1 + size]
            h += d[tau - 1 : tau - 1 + size]
            sums[tau] += np.sum(n * product + spread[:size] * h)
    out = sums / ((days - np.arange(tau_max + 1)) * n)
    out[0] = 1.0
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
    marginal_days = np.flatnonzero(trajectory.excess() == 0)
    reset_days = np.flatnonzero(trajectory.reset)
    following = np.searchsorted(marginal_days, reset_days, side="right")
    closed = following < marginal_days.size
    return marginal_days[following[closed]] - reset_days[closed]

