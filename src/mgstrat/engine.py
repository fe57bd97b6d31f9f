"""Cycle-by-cycle simulation of the win-stay/lose-shift crowd.

An odd population of n = 2M + 1 agents picks between restaurants A and B
every evening.  The smaller crowd eats well (wins); everyone can see both
head counts the next morning.  Winners return.  When the crowd overshoots
by e >= 1 beyond the marginal M + 1, each crowd agent independently flips
to the other side with probability lam(e) / (M + e + 1), the cheat-proof
rate.  A marginal split (e = 0) cannot be improved, so after ``wait_t``
consecutive marginal days the whole population re-randomizes: every agent
flips with probability q = reset_prefactor * M**(epsilon - 1), trading a
brief burst of crowding for long-run fairness.

Agents on a side act alike, so the head count at A and the marginal-day
wait form a Markov chain by themselves (the crowd is lumpable), and ``run``
tracks only these: Binomial(crowd, lam(e) / (M + e + 1)) movers on an
imbalanced day, Binomial(side, q) off each side on a reset night.  Nobody
moves on a waiting day, so the wait is 0 on every imbalanced day and the
chain starts afresh at each reset night: a run is a string of independent
cycles (an excursion of imbalanced days, then wait_t + 1 marginal days,
the last a reset night), alike up to swapping A and B.  ``run`` draws a
block of reset nights at once, thin side first, steps the excursions they
start in lockstep as arrays, each in the frame of its own thin side, and
lays the cycles end to end, mirroring a cycle when the one before it ended
with the thin side at B; so relabeling A and B mirrors a run exactly.

The random baseline redraws every agent every night, so tomorrow's head
count at today's thin side is Binomial(n, 1/2) whatever today holds, and
the thin side's movers given it are hypergeometric.

With each night's thin-side count kept, the path gives the movers off each
side every night, all that the agent-mean C(tau) needs.  Agents exist only
for the optional choice record, a plain reference drawn from a child
stream after the head counts, so recording never changes the imbalance path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import MODE_BASELINE, MODE_STRATEGY
from ._checks import binary, count, derive_rng, number, positive
from .solver import ASYMPTOTIC_GAP, LambdaTable, default_delta_max

__all__ = [
    "RESTAURANT_A",
    "RESTAURANT_B",
    "MODE_STRATEGY",
    "MODE_BASELINE",
    "MAX_RECORD_BYTES",
    "MAX_WAIT_T",
    "StrategyConfig",
    "Trajectory",
    "check_record_size",
    "run",
    "derive_rng",
    "switch_probabilities",
]

RESTAURANT_A = 0
RESTAURANT_B = 1

# Largest trajectory record ``run`` allocates: 1 GiB.
MAX_RECORD_BYTES = 2**30

# Largest wait_t: a run adds wait_t + 1 to int64 day counts, and 2**62 leaves
# room for any run the record guard allows (~8.3 * 10**7 days) without a wrap.
MAX_WAIT_T = 2**62

# Bytes per agent that bound the arrays a run builds from n alone: one day
# at n = 2 * 10**7 peaks at 270 MiB of RSS (289 MiB with the choice record,
# its two rows included), against 40 MiB at n = 201, so about 12 (13) bytes
# per agent.
_AGENT_BYTES = 24

# Most cycles (strategy) or days (baseline) one block of ``run`` draws at once,
# so its temporaries (about 0.5 MB at most) stay flat however long the run.
BLOCK_CYCLES = 1 << 11


@dataclass
class StrategyConfig:
    """Population size, reset policy, and mode for one simulation.

    ``epsilon`` steers the fairness/efficiency trade-off of resets: larger
    epsilon means more agents move on a reset night.  ``wait_t`` delays the
    reset by that many extra marginal days.
    """

    n: int
    epsilon: float = 0.5
    wait_t: int = 0
    reset_prefactor: float = 0.5
    seed: int = 0
    mode: str = MODE_STRATEGY

    def __post_init__(self) -> None:
        self.n = count(self.n, "n", 1)
        if self.n % 2 == 0:
            raise ValueError(f"n must be odd, got {self.n}")
        self.epsilon = number(self.epsilon, "epsilon")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        self.wait_t = count(self.wait_t, "wait_t", 0)
        if self.wait_t > MAX_WAIT_T:
            raise ValueError(f"wait_t must be at most 2**62 = {MAX_WAIT_T}, got {self.wait_t}")
        self.reset_prefactor = positive(self.reset_prefactor, "reset_prefactor")
        self.seed = count(self.seed, "seed", 0)
        if self.mode not in (MODE_STRATEGY, MODE_BASELINE):
            raise ValueError(f"unknown mode {self.mode!r}")
        # Surface a bad reset probability at construction, not mid-run.
        if not (0.0 < self.reset_probability <= 1.0):
            raise ValueError(
                f"reset_prefactor {self.reset_prefactor:g} puts the reset probability at "
                f"{self.reset_probability:.6g}, outside (0, 1], for epsilon {self.epsilon:g}; "
                "lower reset_prefactor or epsilon"
            )

    @property
    def m(self) -> int:
        return (self.n - 1) // 2

    @property
    def reset_probability(self) -> float:
        # The lone-agent population (M = 0) degenerates: the single agent
        # always re-randomizes.
        if self.m == 0:
            return 1.0
        return self.reset_prefactor * self.m ** (self.epsilon - 1.0)


@lru_cache(maxsize=4)
def switch_probabilities(n: int) -> np.ndarray:
    """Per-agent flip probability for each excess e = 0..m of a crowd of n.

    Entry e >= 1 is lam(e) / (m + e + 1): lam(e) is a ``LambdaTable`` root
    up to the default depth for n and the asymptote e + 1/6 past it, where
    its error is far below simulation noise.  Entry 0 is 0, since a marginal
    crowd never switches.  Read-only, and cached for the last few n: one
    array at n = 2 * 10**6 takes 8 MB.
    """
    m = (int(n) - 1) // 2
    excess = np.arange(1, m + 1)
    rates = excess + ASYMPTOTIC_GAP
    roots = LambdaTable(default_delta_max(n)).roots[:m]
    rates[: roots.size] = roots
    rates /= m + excess + 1
    probabilities = np.concatenate(([0.0], rates))
    probabilities.flags.writeable = False
    return probabilities


@dataclass
class Trajectory:
    """Recorded time series of one run.

    ``deltas[t]`` is the signed imbalance M - attendance_A on day t, so it
    is nonnegative when A held the smaller crowd; ``reset[t]`` is true when
    the night after marginal day t re-randomized the population.
    ``thin_movers[t]`` counts the agents who left the thin side that night:
    nonzero only on re-randomization nights (every night of the baseline),
    since otherwise only the crowd moves.  ``choice_matrix`` (days x n
    int8) holds every agent's daily choice, 0 for A and 1 for B, and is kept
    only on request.  Every other series is derived from these.
    """

    n: int
    deltas: np.ndarray
    reset: np.ndarray
    thin_movers: np.ndarray
    choice_matrix: np.ndarray | None = None

    @property
    def reset_days(self) -> list[int]:
        """The marginal days whose following night re-randomized the population."""
        return np.flatnonzero(self.reset).tolist()

    @property
    def days(self) -> int:
        return len(self.deltas)


def check_record_size(n: int, steps: int, record_choices: bool) -> None:
    """Refuse a run whose record or per-agent arrays would exceed MAX_RECORD_BYTES.

    Each day keeps an int64 imbalance, a one-byte reset flag and an int32
    thin-side mover count (13 bytes), plus one byte per agent when choices
    are recorded.  The switch probabilities, the agents' choices and their
    temporaries take at most ``_AGENT_BYTES`` per agent.
    """
    per_day = 13 + (n if record_choices else 0)
    need = (steps + 1) * per_day
    if need > MAX_RECORD_BYTES:
        raise ValueError(
            f"steps {steps} at n {n}{' with recorded choices' if record_choices else ''} "
            f"needs a {need / 2**30:.3g} GiB record, above the "
            f"{MAX_RECORD_BYTES / 2**30:g} GiB limit; at most "
            f"{max(MAX_RECORD_BYTES // per_day - 1, 0)} steps fit at that n"
        )
    if n * _AGENT_BYTES > MAX_RECORD_BYTES:
        raise ValueError(
            f"n {n} needs {n * _AGENT_BYTES / 2**30:.3g} GiB of per-agent arrays, above the "
            f"{MAX_RECORD_BYTES / 2**30:g} GiB limit; the largest odd n is "
            f"{(MAX_RECORD_BYTES // _AGENT_BYTES - 1) | 1}"
        )


def run(
    config: StrategyConfig,
    steps: int,
    record_choices: bool = False,
    rng: np.random.Generator | None = None,
    initial_choices: Sequence[int] | None = None,
) -> Trajectory:
    """Simulate ``steps`` days and record the imbalance trajectory.

    The generator defaults to one seeded from ``config.seed``; pass ``rng``
    to draw several runs from a single stream.  ``initial_choices`` pins
    day 0 instead of sampling it (useful for symmetry checks).
    ``record_choices`` also keeps every agent's daily choice, drawn from a
    child stream after the head counts.
    """
    steps = count(steps, "steps", 1)
    n, m = config.n, config.m
    check_record_size(n, steps, record_choices)
    if rng is None:
        rng = derive_rng(config.seed)
    if initial_choices is None:
        attendance = rng.binomial(n, 0.5)
    else:
        choices = np.asarray(initial_choices)
        if choices.shape != (n,):
            raise ValueError(f"initial choices have length {choices.size}, expected {n}")
        choices = binary(choices).astype(np.int8)
        attendance = n - int(np.count_nonzero(choices))
    if record_choices:
        # Who moves is drawn from a child stream; ``rng`` alone sets the counts.
        who = rng.spawn(1)[0]
        if initial_choices is None:
            choices = np.full(n, RESTAURANT_B, dtype=np.int8)
            choices[who.choice(n, attendance, replace=False)] = RESTAURANT_A

    deltas = np.empty(steps + 1, dtype=np.int64)
    reset = np.zeros(steps + 1, dtype=bool)
    thin_movers = np.zeros(steps + 1, dtype=np.int32)
    deltas[0] = m - attendance
    if config.mode == MODE_BASELINE:
        _baseline_days(rng, n, deltas, thin_movers)
    else:
        _strategy_days(rng, config, deltas, reset, thin_movers)

    matrix = None
    if record_choices:
        # Each night a uniform subset of the thin side, then of the crowd,
        # moves; both flip after both draws, so relabeling A and B mirrors
        # the record exactly.
        matrix = np.empty((steps + 1, n), dtype=np.int8)
        matrix[0] = choices
        for t in range(steps):
            delta, after, thin = int(deltas[t]), int(deltas[t + 1]), int(thin_movers[t])
            # The crowd, at B when delta >= 0, loses ``net`` more than the thin side.
            net = delta - after if delta >= 0 else after - delta
            thin_side = RESTAURANT_A if delta >= 0 else RESTAURANT_B
            moved = [
                who.choice(np.flatnonzero(choices == side), k, replace=False)
                for side, k in ((thin_side, thin), (1 - thin_side, thin + net))
                if k
            ]
            for agents in moved:
                choices[agents] ^= 1
            matrix[t + 1] = choices
    return Trajectory(n, deltas, reset, thin_movers, choice_matrix=matrix)


def _excursions(
    rng: np.random.Generator,
    m: int,
    probabilities: np.ndarray,
    start: np.ndarray,
    room: int,
    spacing: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step every lane from its start, in lockstep, until its split is marginal.

    ``start`` holds each lane's first imbalance in its own thin-side frame.
    Lane k's excursion starts at least ``k * spacing`` days after lane 0's,
    so it holds at most ``room - k * spacing`` imbalanced days, past which
    it cannot reach the run.  A lane's movers leave the crowd, and past an
    excess of zero the crowd changes side; the bitwise NOT of an imbalance
    is its A/B mirror, -delta - 1.  Returns each imbalanced day's lane, its
    day within the lane's excursion and its imbalance, and each lane's last
    imbalance: 0 or -1 once it is marginal.
    """
    lanes, delta = np.arange(start.size), start
    last = start.copy()
    owner, value = [], []
    while True:
        imbalanced = (delta ^ (delta >> 63)) > 0
        lanes, delta = lanes[imbalanced], delta[imbalanced]
        owner.append(lanes)
        value.append(delta)
        # Lanes are in order, so those with a day left are a prefix.
        lanes = lanes[: lanes.searchsorted(-(-(room - len(value)) // spacing))]
        if not lanes.size:
            break
        side = delta[: lanes.size] >> 63  # -1 where the crowd is at the frame's A
        excess = delta[: lanes.size] ^ side
        delta = (excess - rng.binomial(m + 1 + excess, probabilities[excess])) ^ side
        last[lanes] = delta
    age = np.repeat(np.arange(len(value)), [lanes.size for lanes in owner])
    return np.concatenate(owner), age, np.concatenate(value), last


def _strategy_days(
    rng: np.random.Generator,
    config: StrategyConfig,
    deltas: np.ndarray,
    reset: np.ndarray,
    thin_movers: np.ndarray,
) -> None:
    """Fill a strategy run's series from day 0's imbalance, cycle by cycle.

    The wait is 0 on every imbalanced day, so the chain starts afresh at
    each reset night.  Day 0 opens the first cycle; each cycle is an
    excursion of imbalanced days, then ``wait_t + 1`` marginal days, the
    last a reset night that starts the next cycle.  Blocks of up to
    ``BLOCK_CYCLES`` cycles, as many as the mean cycle so far says the days
    left need, are drawn at once: each reset night thin side first, each
    excursion in the frame of its own thin side, a block's excursions
    stepped in lockstep.  The cycles are laid end to end: a cycle's frame
    is its predecessor's, mirrored when that excursion ended with the thin
    side at the frame's B.
    """
    m, wait = config.m, config.wait_t + 1
    q, probabilities = config.reset_probability, switch_probabilities(config.n)
    end = deltas.size
    # The next cycle's first imbalance in its own frame, and that frame's side.
    start, side = int(deltas[0]), 0
    # Days and cycles laid so far, counting from a first guess of one
    # cycle with one imbalanced day.
    pos, laid, cycles = 0, wait + 1, 1
    while pos < end:
        room = end - pos
        lanes = min(BLOCK_CYCLES, -(-room * cycles // laid))
        # Thin side first, so that relabeling A and B mirrors a run exactly.
        thin = rng.binomial(m, q, lanes)
        after = thin - rng.binomial(m + 1, q, lanes)
        # Cycle k's excursion starts at least k * wait days into the block.
        owner, age, values, last = _excursions(
            rng, m, probabilities, np.concatenate(([start], after[:-1])), room, wait
        )
        start = int(after[-1])
        flips = last >> 63
        count = np.bincount(owner, minlength=lanes)
        ends = (count + wait).cumsum() + pos  # the day after each cycle
        calm = ends - wait  # each cycle's first marginal day
        stop = min(end, int(ends[-1]))
        span = deltas[pos:stop]
        # From a cycle's first marginal day to the next one, every day holds
        # the next frame's side until an excursion is written over it.
        span.fill(0)
        inside = calm < stop
        deltas[calm[inside]] = flips[inside]
        span[0] ^= side
        np.bitwise_xor.accumulate(span, out=span)
        day = (calm - count)[owner] + age
        kept = day < stop
        deltas[day[kept]] ^= values[kept]
        nights = ends[ends < end] - 1
        reset[nights] = True
        thin_movers[nights] = thin[: nights.size]
        side ^= int(np.bitwise_xor.reduce(flips))
        laid += stop - pos
        cycles += lanes
        pos = stop


def _baseline_days(
    rng: np.random.Generator, n: int, deltas: np.ndarray, thin_movers: np.ndarray
) -> None:
    """Fill a baseline run's series from day 0's imbalance.

    Every night redraws each agent's side by a fair coin, so tomorrow's
    head count at today's thin side is Binomial(n, 1/2) whatever today
    holds, and given it the thin side's stayers are hypergeometric: the
    agents there tomorrow are a uniform subset of that size.
    """
    m = (n - 1) // 2
    end = deltas.size
    side = int(deltas[0]) >> 63
    for start in range(0, end - 1, BLOCK_CYCLES):
        stop = min(start + BLOCK_CYCLES, end - 1)
        heads = rng.binomial(n, 0.5, stop - start)
        frame = m - heads  # tomorrow's imbalance with today's thin side as A
        flips = np.bitwise_xor.accumulate(frame >> 63)
        deltas[start + 1 : stop + 1] = frame ^ flips ^ (frame >> 63) ^ side
        side ^= int(flips[-1])
        before = deltas[start:stop]
        thin = m - (before ^ (before >> 63))
        thin_movers[start:stop] = thin - rng.hypergeometric(thin, n - thin, heads)
