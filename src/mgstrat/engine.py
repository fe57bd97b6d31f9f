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
picks who moves, so recording never changes the imbalance path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .solver import LambdaTable, default_delta_max, solve_p_finite

__all__ = [
    "RESTAURANT_A",
    "RESTAURANT_B",
    "MODE_STRATEGY",
    "MODE_BASELINE",
    "MAX_RECORD_BYTES",
    "StrategyConfig",
    "Trajectory",
    "check_record_size",
    "run",
    "derive_rng",
]

RESTAURANT_A = 0
RESTAURANT_B = 1

MODE_STRATEGY = "strategy"
MODE_BASELINE = "random-baseline"

# Largest trajectory record ``run`` allocates: 1 GiB.
MAX_RECORD_BYTES = 2**30


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, run indices...)."""
    if key:
        return np.random.default_rng([int(seed), *(int(k) for k in key)])
    return np.random.default_rng(int(seed))


@dataclass
class StrategyConfig:
    """Population size, reset policy, and mode for one simulation.

    ``epsilon`` steers the fairness/efficiency trade-off of resets: larger
    epsilon means more agents move on a reset night.  ``wait_t`` delays the
    reset by that many extra marginal days.  ``exact_finite_m`` swaps the
    large-crowd switch rate for the finite-crowd root (much slower; only
    sensible for small n).
    """

    n: int
    epsilon: float = 0.5
    wait_t: int = 0
    reset_prefactor: float = 0.5
    seed: int = 0
    mode: str = MODE_STRATEGY
    exact_finite_m: bool = False
    _table: LambdaTable | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def switch_probability(self, excess: int) -> float:
        """Per-agent flip probability for a crowd overshooting by ``excess``."""
        if excess < 1:
            raise ValueError(f"excess must be at least 1, got {excess}")
        if self.exact_finite_m:
            return solve_p_finite(excess, self.m)
        if self._table is None:
            self._table = LambdaTable(delta_max=default_delta_max(self.n))
        # Overshoots past the table depth are transient; the mean falls back
        # to the asymptotic gap inside lookup().
        return self._table.lookup(excess) / (self.m + excess + 1)


@dataclass
class Trajectory:
    """Recorded time series of one run.

    ``deltas[t]`` is the signed imbalance M - attendance_A on day t, so it
    is nonnegative when A held the smaller crowd; ``minority_side[t]`` is
    +1 when A held the smaller crowd and -1 otherwise; ``reset_days`` lists
    the marginal days whose following night re-randomized the population.
    ``choice_matrix`` (days x agents, 0 for A and 1 for B) is kept only on
    request.
    """

    n: int
    deltas: np.ndarray
    minority_side: np.ndarray
    reset_days: list[int]
    choice_matrix: np.ndarray | None = None

    def excess(self) -> np.ndarray:
        """Majority head count beyond the marginal M + 1, per day."""
        return np.where(self.deltas >= 0, self.deltas, -self.deltas - 1)

    @property
    def days(self) -> int:
        return len(self.deltas)


def check_record_size(n: int, steps: int, record_choices: bool) -> None:
    """Refuse a run whose record would exceed MAX_RECORD_BYTES.

    Each day keeps an int64 imbalance and an int8 side (9 bytes), plus one
    int8 per agent when choices are recorded.
    """
    need = (steps + 1) * (9 + (n if record_choices else 0))
    if need > MAX_RECORD_BYTES:
        raise ValueError(
            f"steps {steps} at n {n}{' with recorded choices' if record_choices else ''} "
            f"needs a {need / 2**30:.3g} GiB record, above the "
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
    who = None
    if record_choices:
        # Who moves is drawn from a child stream; ``rng`` alone sets the counts.
        who = rng.spawn(1)[0]
        if initial_choices is None:
            choices = np.full(n, RESTAURANT_B, dtype=np.int8)
            choices[who.choice(n, attendance, replace=False)] = RESTAURANT_A

    baseline = config.mode == MODE_BASELINE
    reset_q = 0.5 if baseline else config.reset_probability
    deltas = np.empty(steps + 1, dtype=np.int64)
    matrix = np.empty((steps + 1, n), dtype=np.int8) if record_choices else None
    reset_days: list[int] = []
    wait = 0

    for t in range(steps + 1):
        delta = m - attendance
        deltas[t] = delta
        if matrix is not None:
            matrix[t] = choices
        if t == steps:
            break
        crowd_side = RESTAURANT_B if delta >= 0 else RESTAURANT_A
        thin_side = 1 - crowd_side
        excess = delta if delta >= 0 else -delta - 1
        crowd = m + excess + 1
        if baseline or (excess == 0 and wait >= config.wait_t):
            if not baseline:
                reset_days.append(t)
            moves = (
                (thin_side, rng.binomial(n - crowd, reset_q)),
                (crowd_side, rng.binomial(crowd, reset_q)),
            )
            wait = 0
        elif excess >= 1:
            moves = ((crowd_side, rng.binomial(crowd, config.switch_probability(excess))),)
        else:
            # Nobody moves while waiting, so the wait is 0 on every imbalanced day.
            wait += 1
            continue
        for side, movers in moves:
            attendance += movers if side == RESTAURANT_B else -movers
        if who is not None:
            picks = [
                who.choice(np.flatnonzero(choices == side), movers, replace=False)
                for side, movers in moves
                if movers
            ]
            for pick in picks:
                choices[pick] ^= 1

    return Trajectory(
        n=n,
        deltas=deltas,
        minority_side=np.where(deltas >= 0, 1, -1).astype(np.int8),
        reset_days=reset_days,
        choice_matrix=matrix,
    )
