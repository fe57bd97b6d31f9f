"""Day-by-day simulation of the win-stay/lose-shift crowd.

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
imbalanced day, Binomial(side, q) off each side on a reset night, the thin
side drawn first so that relabeling A and B mirrors a run exactly.  The
random baseline is a reset every night at q = 1/2, an exact uniform redraw.
Agents exist only for the optional choice record, where a child stream
picks who moves, so recording never changes the imbalance path; its cost
grows with the number of movers, not with n (see ``_fill_choice_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .solver import LambdaTable, default_delta_max

__all__ = [
    "RESTAURANT_A",
    "RESTAURANT_B",
    "MODE_STRATEGY",
    "MODE_BASELINE",
    "MAX_RECORD_BYTES",
    "StrategyConfig",
    "Trajectory",
    "check_record_size",
    "pack_choices",
    "row_bytes",
    "run",
    "derive_rng",
    "switch_probabilities",
]

RESTAURANT_A = 0
RESTAURANT_B = 1

MODE_STRATEGY = "strategy"
MODE_BASELINE = "random-baseline"

# Largest trajectory record ``run`` allocates: 1 GiB.
MAX_RECORD_BYTES = 2**30

# Bytes per agent that bound the arrays a run builds from n alone: one day
# at n = 2 * 10**7 peaks at 293 MB (477 MB with the choice record), against
# 54 MB at n = 201, so about 12 (21) bytes per agent.
_AGENT_BYTES = 24

# A side that loses more than this fraction of its agents in one night is
# shuffled whole (~16 ns an agent) rather than swapped mover by mover
# (~150 ns a mover).
SHUFFLE_FRACTION = 0.1

# The choice record is rebuilt a block of nights at a time.  A block holds
# at most IDENTITY_BLOCK movers (~40 bytes of temporaries each, ~130 when
# swapped), IDENTITY_BLOCK // 128 nights and 16 * IDENTITY_BLOCK
# agent-nights (a flag byte each), but at least one night, so its
# temporaries stay below ~10 MiB however long the run is.
IDENTITY_BLOCK = 1 << 16

_SHUFFLE_A = -1
_SHUFFLE_B = -2


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, run indices...)."""
    return np.random.default_rng([int(seed), *(int(k) for k in key)])


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
        if self.n != int(self.n) or self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"population size must be a positive odd integer, got {self.n}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.wait_t != int(self.wait_t) or self.wait_t < 0:
            raise ValueError(f"wait time must be a nonnegative integer, got {self.wait_t}")
        if not (self.reset_prefactor > 0.0):
            raise ValueError(f"reset prefactor must be positive, got {self.reset_prefactor}")
        if self.mode not in (MODE_STRATEGY, MODE_BASELINE):
            raise ValueError(f"unknown mode {self.mode!r}")
        # Surface a bad reset probability at construction, not mid-run.
        if not (0.0 < self.reset_probability <= 1.0):
            raise ValueError(
                f"reset probability {self.reset_probability:.6g} falls outside (0, 1]; "
                "lower the prefactor or epsilon"
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

    Entry e >= 1 is lam(e) / (m + e + 1), with lam from a ``LambdaTable`` of
    the default depth for n; entry 0 is 0, since a marginal crowd never
    switches.  Read-only, and cached for the last few n: one array at
    n = 2 * 10**6 takes 8 MB.
    """
    m = (int(n) - 1) // 2
    excess = np.arange(1, m + 1)
    rates = LambdaTable(default_delta_max(n)).lookup(excess)
    rates /= m + excess + 1
    probabilities = np.concatenate(([0.0], rates))
    probabilities.flags.writeable = False
    return probabilities


def row_bytes(n: int) -> int:
    """Bytes of one packed choice row: n bits, padded to whole 64-bit words."""
    return 8 * -(-n // 64)


def pack_choices(matrix: np.typing.ArrayLike) -> np.ndarray:
    """Packed rows of a (days x agents) 0/1 choice record.

    Agent i is bit i % 8 of byte i // 8 (little bit order), and each row is
    zero-padded to ``row_bytes(agents)``, so a row reads as whole uint64
    words.
    """
    matrix = np.asarray(matrix)
    packed = np.packbits(matrix, axis=-1, bitorder="little")
    rows = np.zeros(packed.shape[:-1] + (row_bytes(matrix.shape[-1]),), dtype=np.uint8)
    rows[..., : packed.shape[-1]] = packed
    return rows


@dataclass
class Trajectory:
    """Recorded time series of one run.

    ``deltas[t]`` is the signed imbalance M - attendance_A on day t, so it
    is nonnegative when A held the smaller crowd; ``reset[t]`` is true when
    the night after marginal day t re-randomized the population.
    ``choice_rows`` (days x ``row_bytes(n)``, see ``pack_choices``) holds
    every agent's daily choice as one bit, 0 for A and 1 for B, and is kept
    only on request.  Every other series is derived from these.
    """

    n: int
    deltas: np.ndarray
    reset: np.ndarray
    choice_rows: np.ndarray | None = None

    @property
    def choice_matrix(self) -> np.ndarray | None:
        """The choice record unpacked to (days x agents) int8, 0 for A and 1 for B."""
        if self.choice_rows is None:
            return None
        return np.unpackbits(
            self.choice_rows, axis=1, count=self.n, bitorder="little"
        ).view(np.int8)
    @property
    def minority_side(self) -> np.ndarray:
        """+1 on days A held the smaller crowd, -1 otherwise (int8)."""
        return np.where(self.deltas >= 0, np.int8(1), np.int8(-1))

    @property
    def reset_days(self) -> list[int]:
        """The marginal days whose following night re-randomized the population."""
        return np.flatnonzero(self.reset).tolist()

    def excess(self) -> np.ndarray:
        """Majority head count beyond the marginal M + 1, per day."""
        return np.where(self.deltas >= 0, self.deltas, -self.deltas - 1)

    @property
    def days(self) -> int:
        return len(self.deltas)


def check_record_size(n: int, steps: int, record_choices: bool) -> None:
    """Refuse a run whose record or per-agent arrays would exceed MAX_RECORD_BYTES.

    Each day keeps an int64 imbalance and a one-byte reset flag (9 bytes),
    plus a packed row of ``row_bytes(n)`` when choices are recorded.  The
    switch probabilities, the agents' order and their temporaries take at
    most ``_AGENT_BYTES`` per agent.
    """
    need = (steps + 1) * (9 + (row_bytes(n) if record_choices else 0))
    if need > MAX_RECORD_BYTES:
        raise ValueError(
            f"steps {steps} at n {n}{' with recorded choices' if record_choices else ''} "
            f"needs a {need / 2**30:.3g} GiB record, above the "
            f"{MAX_RECORD_BYTES / 2**30:g} GiB limit"
        )
    if n * _AGENT_BYTES > MAX_RECORD_BYTES:
        raise ValueError(
            f"n {n} needs {n * _AGENT_BYTES / 2**30:.3g} GiB of per-agent arrays, above the "
            f"{MAX_RECORD_BYTES / 2**30:g} GiB limit"
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
    """
    if steps != int(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
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
        if not ((choices == RESTAURANT_A) | (choices == RESTAURANT_B)).all():
            raise ValueError("choices must contain only 0 (A) and 1 (B)")
        choices = choices.astype(np.int8)
        attendance = n - int(np.count_nonzero(choices))
    rows = thin_log = None
    if record_choices:
        # Who moves is drawn from a child stream; ``rng`` alone sets the counts.
        who = rng.spawn(1)[0]
        if initial_choices is None:
            choices = np.full(n, RESTAURANT_B, dtype=np.int8)
            choices[who.choice(n, attendance, replace=False)] = RESTAURANT_A
        rows = np.zeros((steps + 1, row_bytes(n)), dtype=np.uint8)
        rows[0] = pack_choices(choices)
        # Until _fill_choice_rows rebuilds them, the first word of row t + 1
        # holds the agents the night after day t moved off the thin side on
        # a reset; every other move follows from the head counts.
        thin_log = rows.view(np.uint64)[:, 0]

    baseline = config.mode == MODE_BASELINE
    reset_q = 0.5 if baseline else config.reset_probability
    probabilities = None if baseline else switch_probabilities(n)
    wait_t = config.wait_t
    deltas = np.empty(steps + 1, dtype=np.int64)
    reset = np.zeros(steps + 1, dtype=bool)
    wait = 0

    for t in range(steps):
        delta = m - attendance
        deltas[t] = delta
        excess = delta if delta >= 0 else -delta - 1
        if baseline or (excess == 0 and wait >= wait_t):
            if not baseline:
                reset[t] = True
            thin_movers = rng.binomial(m - excess, reset_q)
            net = rng.binomial(m + excess + 1, reset_q) - thin_movers
            if thin_log is not None:
                thin_log[t + 1] = thin_movers
            wait = 0
        elif excess:
            net = rng.binomial(m + excess + 1, probabilities[excess])
        else:
            # Nobody moves while waiting, so the wait is 0 on every imbalanced day.
            wait += 1
            continue
        # ``net`` agents more leave the crowd than the thin side; the crowd
        # is at B when delta >= 0.
        attendance += net if delta >= 0 else -net
    deltas[steps] = m - attendance

    if rows is not None:
        _fill_choice_rows(rows, deltas, choices, who)
    return Trajectory(n=n, deltas=deltas, reset=reset, choice_rows=rows)


def _fill_choice_rows(
    rows: np.ndarray, deltas: np.ndarray, choices: np.ndarray, who: np.random.Generator
) -> None:
    """Rebuild the choice record ``rows[1:]`` from day 0's ``choices`` and the path.

    ``rows[t + 1]`` enters holding the reset-night thin-side movers that
    ``run`` logged.  The agents sit in one permutation ``order``: those at A
    in ``order[:attendance]``, counted from the front, and those at B in
    ``order[attendance:]``, counted from the back, so relabeling A and B
    reverses ``order`` and, with the thin side drawn first, mirrors the
    record exactly.  To move k agents off a side of s, k partial
    Fisher-Yates swaps (their positions drawn for a block of nights in one
    ``who.integers`` call) or, past ``SHUFFLE_FRACTION``, one shuffle of the
    side bring a uniform k-subset to the boundary, which then moves over.
    The movers' bits make per-night difference rows, and an XOR scan down
    the days turns those into the record.
    """
    n = choices.size
    m = (n - 1) // 2
    width = rows.shape[1]
    words = rows.view(np.uint64)
    order = np.concatenate(
        (np.flatnonzero(choices == RESTAURANT_A), np.flatnonzero(choices == RESTAURANT_B)[::-1])
    )
    # Scalar swaps through a memoryview cost half as much as numpy indexing.
    slots = memoryview(order)
    nights = deltas.size - 1
    start = 0
    while start < nights:
        stop = min(start + max(1, min(IDENTITY_BLOCK // 128, 16 * IDENTITY_BLOCK // n)), nights)
        before = deltas[start:stop]
        crowd_at_b = before >= 0
        rise = before - deltas[start + 1 : stop + 1]  # of the head count at A
        thin = words[start + 1 : stop + 1, 0].astype(np.int64)
        crowd = thin + np.where(crowd_at_b, rise, -rise)
        # Cut the block at IDENTITY_BLOCK movers, keeping at least one night.
        fit = int(np.searchsorted(np.cumsum(thin + crowd), IDENTITY_BLOCK, side="right"))
        stop = start + max(1, fit)
        before, crowd_at_b = before[: stop - start], crowd_at_b[: stop - start]
        thin, crowd = thin[: stop - start], crowd[: stop - start]
        attendance = m - before
        off_a = np.where(crowd_at_b, thin, crowd)
        off_b = np.where(crowd_at_b, crowd, thin)

        # Every side of every night, in draw order: the thin side, then the
        # crowd.  Its op is the count of movers to swap over one by one, or
        # _SHUFFLE_A / _SHUFFLE_B to shuffle that side whole.
        on_a = np.column_stack((crowd_at_b, ~crowd_at_b)).ravel()
        movers = np.column_stack((thin, crowd)).ravel()
        at_a = np.repeat(attendance, 2)
        size = np.where(on_a, at_a, n - at_a)
        shuffled = movers > SHUFFLE_FRACTION * size
        ops = np.where(shuffled, np.where(on_a, _SHUFFLE_A, _SHUFFLE_B), movers)
        # Swap i of a side fills the position size - 1 - i of the side's own
        # count from a uniform position below it; A counts from 0 and B from
        # n - 1 down.
        swaps = np.where(shuffled, 0, movers)
        bound = np.repeat(size + np.cumsum(swaps) - swaps, swaps) - np.arange(swaps.sum())
        pick = who.integers(0, bound)
        side_a = np.repeat(on_a, swaps)
        pairs = zip(
            np.where(side_a, pick, n - 1 - pick).tolist(),
            np.where(side_a, bound - 1, n - bound).tolist(),
        )

        counts = off_a + off_b
        active = np.flatnonzero(counts)
        lo = attendance - off_a
        hi = attendance + off_b
        moved = []
        for att, first, second, low, high, both in zip(
            attendance[active].tolist(),
            ops[0::2][active].tolist(),
            ops[1::2][active].tolist(),
            lo[active].tolist(),
            hi[active].tolist(),
            np.minimum(off_a, off_b)[active].tolist(),
        ):
            for op in (first, second):
                if op > 0:
                    for i, j in islice(pairs, op):
                        slots[i], slots[j] = slots[j], slots[i]
                elif op == _SHUFFLE_A:
                    who.shuffle(order[:att])
                elif op == _SHUFFLE_B:
                    who.shuffle(order[att:][::-1])
            if both:
                # [stay at A][off A][off B][stay at B]: trade the first
                # ``both`` of the A movers for the last ``both`` of the B
                # movers, so that A's block is again one run from the front.
                cut = high - both
                order[low : low + both], order[cut:high] = (
                    order[cut:high].copy(),
                    order[low : low + both].copy(),
                )
            moved.append(slots[low:high].tobytes())

        # One flag per (night, agent bit) of the block, packed into the
        # night's difference row.
        flips = np.zeros((stop - start) * 8 * width, dtype=bool)
        if moved:
            agents = np.frombuffer(b"".join(moved), dtype=order.dtype)
            flips[np.repeat(np.arange(stop - start) * (8 * width), counts) + agents] = True
        rows[start + 1 : stop + 1] = np.packbits(flips, bitorder="little").reshape(-1, width)
        block = words[start : stop + 1]
        np.bitwise_xor.accumulate(block, axis=0, out=block)
        start = stop
