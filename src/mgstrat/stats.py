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

import numpy as np

from ._checks import binary, count
from .engine import Trajectory

__all__ = [
    "inefficiency_eta",
    "delta_histogram",
    "s_autocorrelation",
    "c_autocorrelation",
    "episode_lengths",
]


def _burned(values: np.ndarray, burn_in: int, what: str) -> np.ndarray:
    burn_in = count(burn_in, "burn_in", 0)
    out = values[burn_in:]
    if out.size == 0:
        raise ValueError(f"burn-in {burn_in} leaves no {what}")
    return out


# Most days one block of a day-by-day scan takes: eta's int64 partial sums,
# the histogram's counts, the recovery episodes' tally and the starting days
# of the count-path C(tau), whose temporaries are seven float64 a day.  They
# stay flat however long the run is: between blocks the episodes carry only
# the reset days still open.
BLOCK_DAYS = 1 << 14


def inefficiency_eta(trajectory: Trajectory, burn_in: int = 0) -> float:
    """(4/n) * mean over days of (imbalance + 1/2)^2.

    Equivalent to (4/n) * mean of (attendance_A - n/2)^2, since the signed
    imbalance is M - attendance_A and n = 2M + 1 is the trajectory's
    population size.  Over N days it is (4 sum d^2 + 4 sum d + N) / (n N),
    from exact integer sums rounded once.  Each int64 partial sum covers
    few enough days that it cannot wrap at the run's largest |d|.
    """
    deltas = _burned(trajectory.deltas, burn_in, "days")
    reach = max(int(deltas.max()), -int(deltas.min()), 1)
    block = max(1, min(BLOCK_DAYS, np.iinfo(np.int64).max // reach**2))
    squares = total = 0
    for start in range(0, deltas.size, block):
        part = deltas[start : start + block]
        squares += int(np.dot(part, part))
        total += int(part.sum())
    days = deltas.size
    return (4 * squares + 4 * total + days) / (trajectory.n * days)


def delta_histogram(trajectory: Trajectory, burn_in: int = 0) -> dict[int, float]:
    """Empirical distribution of the signed imbalance, as {value: frequency}."""
    deltas = _burned(trajectory.deltas, burn_in, "days")
    low = int(deltas.min())
    counts = np.zeros(int(deltas.max()) - low + 1, dtype=np.int64)
    for start in range(0, deltas.size, BLOCK_DAYS):
        counts += np.bincount(deltas[start : start + BLOCK_DAYS] - low, minlength=counts.size)
    values = np.flatnonzero(counts)
    return {int(v) + low: int(c) / deltas.size for v, c in zip(values, counts[values])}


def s_autocorrelation(trajectory: Trajectory, tau_max: int) -> np.ndarray:
    """<S(t) S(t+tau)> for tau = 0..tau_max, S being the winning-side sign.

    It counts the days whose winning side differs tau days on, over the
    series at one byte a day, with the exact count c_autocorrelation uses
    for a record.
    """
    tau_max = count(tau_max, "tau_max", 1)
    return _exact_autocorrelation(trajectory.deltas < 0, tau_max)


# Upper bound on the one-byte flags one block comparison of the exact count
# writes into one reused buffer, one per entry of the rows it compares: a
# choice record's agent-days, or S(tau)'s days.  Its memory stays flat
# however long the run is.
COMPARE_BLOCK_BYTES = 1 << 16


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
    changed choices, row against row-tau as stored, at most
    ``COMPARE_BLOCK_BYTES`` entries at a time, as (N - 2 changed) / N over
    the N = (days - tau) * agents pairs, rounded once.
    """
    tau_max = count(tau_max, "tau_max", 1)
    if not isinstance(choices, Trajectory):
        matrix = np.asarray(choices)
        if matrix.ndim != 2 or not matrix.shape[1]:
            raise ValueError("choice matrix must be (days x agents), with at least one agent")
        return _exact_autocorrelation(binary(matrix), tau_max)
    n, days = choices.n, choices.days
    if days <= tau_max:
        raise ValueError(f"trajectory of {days} days is too short for lag {tau_max}")
    sums = np.zeros(tau_max + 1)
    for start in range(0, days - 1, BLOCK_DAYS):
        _add_block_sums(sums, choices, start, min(start + BLOCK_DAYS, days - 1))
    out = sums / ((days - np.arange(tau_max + 1)) * n)
    out[0] = 1.0
    return out


def _exact_autocorrelation(rows: np.ndarray, tau_max: int) -> np.ndarray:
    """(N - 2 changed) / N, as c_autocorrelation states, over 0/1 rows as stored."""
    days = rows.shape[0]
    if days <= tau_max:
        raise ValueError(f"trajectory of {days} days is too short for lag {tau_max}")
    entries = rows[0].size
    block = max(1, COMPARE_BLOCK_BYTES // entries)
    differ = np.empty((min(block, days), *rows.shape[1:]), dtype=bool)
    out = np.empty(tau_max + 1)
    out[0] = 1.0
    for tau in range(1, tau_max + 1):
        changed = 0
        for start in range(0, days - tau, block):
            stop = min(start + block, days - tau)
            changed += np.count_nonzero(np.not_equal(
                rows[start:stop], rows[start + tau : stop + tau], out=differ[: stop - start]
            ))
        pairs = (days - tau) * entries
        out[tau] = (pairs - 2 * changed) / pairs
    return out


def _add_block_sums(sums: np.ndarray, trajectory: Trajectory, start: int, stop: int) -> None:
    """Add the (T - tau) n C(tau) terms of starting days start .. stop - 1 to ``sums``.

    Seven block arrays are live at most, and all are freed on return.
    """
    n, deltas, tau_max = trajectory.n, trajectory.deltas, sums.size - 1
    days, m = deltas.size, (n - 1) // 2
    # The nights after days start .. last - 1 reach lag tau_max.
    last = min(stop + tau_max - 1, days - 1)
    before = deltas[start:last]
    thin = trajectory.thin_movers[start:last]
    # The head count at A rises by the movers off B less those off A, and
    # the thin side, at A when the imbalance is nonnegative, loses ``thin``.
    rise = before - deltas[start + 1 : last + 1]
    off_a = np.where(before >= 0, thin, thin - rise)
    pa = off_a / np.maximum(m - before, 1)
    pb = (rise + off_a) / np.maximum(before + m + 1, 1)
    del rise, off_a
    r = 1 - (pa + pb)
    d = pb - pa
    del pa, pb
    spread = before[: stop - start] * -2.0 - 1.0  # a_t - b_t
    product = np.ones(stop - start)
    h = np.zeros(stop - start)
    term, spread_h = np.empty(stop - start), np.empty(stop - start)
    for tau in range(1, tau_max + 1):
        size = min(stop, days - tau) - start
        if size <= 0:
            break
        product, h = product[:size], h[:size]
        product *= r[tau - 1 : tau - 1 + size]
        h *= r[tau - 1 : tau - 1 + size]
        h += d[tau - 1 : tau - 1 + size]
        total = np.multiply(n, product, out=term[:size])
        total += np.multiply(spread[:size], h, out=spread_h[:size])
        sums[tau] += np.sum(total)


def episode_lengths(trajectory: Trajectory) -> np.ndarray:
    """Recovery episodes tallied by length: entry k counts those of k days.

    An episode runs from a recorded reset day to the first later day whose
    excess is zero (imbalance 0 or -1).  Episodes still open when the record
    ends are dropped rather than guessed at.  With none closed the tally is
    empty; otherwise its last entry, the longest episode, is nonzero.  The
    days are scanned ``BLOCK_DAYS`` at a time, and only the reset days still
    open at a block's end are carried to the next: all of them close at the
    first marginal day to come.
    """
    deltas, reset = trajectory.deltas, trajectory.reset
    tally = waiting = np.zeros(0, dtype=np.intp)
    for start in range(0, deltas.size, BLOCK_DAYS):
        block = deltas[start : start + BLOCK_DAYS]
        resets = np.flatnonzero(reset[start : start + BLOCK_DAYS])
        marginal = np.flatnonzero((block == 0) | (block == -1))
        if not marginal.size:
            waiting = np.concatenate((waiting, resets + start))
            continue
        if waiting.size:
            tally = _tallied(tally, marginal[0] + start - waiting)
        # A reset on the block's last marginal day, or later, stays open.
        closed = resets[: np.searchsorted(resets, marginal[-1])]
        following = np.searchsorted(marginal, closed, side="right")
        tally = _tallied(tally, marginal[following] - closed)
        waiting = resets[closed.size :] + start
    return tally


def _tallied(tally: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``tally`` with ``lengths`` counted in, as long as the longest of either."""
    counts = np.bincount(lengths, minlength=tally.size)
    counts[: tally.size] += tally
    return counts
