"""Cyclic strategy for n agents sharing n ranked single-serving restaurants.

Daily rules:

* an agent served at rank k today goes to rank k - 1 tomorrow, with rank 1
  wrapping around to rank n;
* an agent left unserved picks, uniformly at random, one of the restaurants
  that had zero customers today, and goes one rank down from it (same
  wraparound);
* each restaurant serves exactly one of its arrivals: the arrival that was
  served at the next rank up yesterday has priority (cyclically, so rank n
  favors yesterday's rank-1 diner); failing that, service is uniform among
  the arrivals.

Once the positions form a permutation the motion is a pure rotation --
everyone is served every day and cycles through all ranks -- so that state
is absorbing and maximally fair.  From random starts it is reached quickly,
with a mean convergence time growing roughly logarithmically in n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNSERVED",
    "NO_AGENT",
    "KPRState",
    "resolve_service",
    "kpr_init",
    "kpr_step",
    "KPRRunResult",
    "kpr_run",
]

UNSERVED = 0  # last_served_rank entry for an agent who found no food
NO_AGENT = -1  # served entry for a restaurant that fed nobody


@dataclass
class KPRState:
    """Positions and service outcome of one day.

    ``positions[agent]`` is the rank (1..n) attended today.
    ``served[rank - 1]`` is the agent fed at that rank, or ``NO_AGENT``.
    ``last_served_rank[agent]`` is the rank the agent was fed at, or
    ``UNSERVED``; the next day's movement and tie-breaks read it as
    "yesterday's" service.
    """

    n: int
    positions: np.ndarray
    served: np.ndarray
    last_served_rank: np.ndarray
    day: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one agent, got {self.n}")
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.served = np.asarray(self.served, dtype=np.int64)
        self.last_served_rank = np.asarray(self.last_served_rank, dtype=np.int64)
        if self.positions.shape != (self.n,):
            raise ValueError("positions must hold one rank per agent")
        if self.positions.min() < 1 or self.positions.max() > self.n:
            raise ValueError(f"ranks must lie in 1..{self.n}")

    @property
    def utilization(self) -> float:
        """Fraction of agents fed today."""
        return float((self.last_served_rank != UNSERVED).sum()) / self.n

    def is_cyclic(self) -> bool:
        """True when every restaurant got exactly one customer."""
        return bool(np.bincount(self.positions, minlength=self.n + 1)[1:].all())


def resolve_service(
    positions: np.ndarray, prev_served_rank: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Decide who eats: (served-by-restaurant, served-rank-by-agent).

    At a restaurant of rank k, an arrival that was served at rank k + 1
    yesterday (rank 1 when k = n) eats; otherwise one arrival is drawn
    uniformly.  At most one arrival can hold the priority claim, because a
    single restaurant feeds a single agent per day.

    One random permutation of the agents, stable-sorted by (rank,
    not-claimant), puts each rank's claimant first and otherwise leaves its
    arrivals in uniformly random order; the first agent of each rank eats.
    """
    n = len(positions)
    claims = prev_served_rank == positions % n + 1
    claim_counts = np.bincount(positions[claims], minlength=n + 1)
    if claim_counts.max() > 1:
        rank = int(np.argmax(claim_counts))
        raise RuntimeError(
            f"rank {rank}: several arrivals claim yesterday's rank {rank % n + 1}; "
            "service history is corrupt"
        )
    order = rng.permutation(n)
    order = order[np.lexsort((~claims[order], positions[order]))]
    ranks = positions[order]
    first = np.diff(ranks, prepend=0) != 0
    winners, winner_ranks = order[first], ranks[first]
    served = np.full(n, NO_AGENT, dtype=np.int64)
    served_rank = np.full(n, UNSERVED, dtype=np.int64)
    served[winner_ranks - 1] = winners
    served_rank[winners] = winner_ranks
    return served, served_rank


def kpr_init(
    n: int, rng: np.random.Generator, positions: np.ndarray | None = None
) -> KPRState:
    """Day-0 state: i.i.d. uniform choices (or the given ones), then service.

    Day 0 has no service history, so no arrival holds a priority claim and
    every collision is settled uniformly.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"need at least one agent, got {n}")
    if positions is None:
        positions = rng.integers(1, n + 1, size=n)
    positions = np.asarray(positions, dtype=np.int64)
    if positions.shape != (n,):
        raise ValueError(f"positions must have shape ({n},), got {positions.shape}")
    if positions.min() < 1 or positions.max() > n:
        raise ValueError("positions must be restaurant ranks in 1..n")
    no_history = np.full(n, UNSERVED, dtype=np.int64)
    served, served_rank = resolve_service(positions, no_history, rng)
    return KPRState(n, positions, served, served_rank, day=0)


def kpr_step(state: KPRState, rng: np.random.Generator) -> KPRState:
    """Advance one day: move everyone, then resolve service at each rank."""
    n = state.n
    k = state.last_served_rank.copy()
    unserved = np.flatnonzero(k == UNSERVED)
    if unserved.size:
        counts = np.bincount(state.positions, minlength=n + 1)
        empty_ranks = np.flatnonzero(counts[1:] == 0) + 1
        if empty_ranks.size == 0:
            # Impossible: with n agents in n restaurants, someone is
            # unserved only if some restaurant drew a crowd, which
            # leaves another one empty.
            raise RuntimeError("unserved agent but no empty restaurant")
        k[unserved] = empty_ranks[rng.integers(empty_ranks.size, size=unserved.size)]
    new_positions = np.where(k > 1, k - 1, n)
    served, served_rank = resolve_service(new_positions, state.last_served_rank, rng)
    return KPRState(n, new_positions, served, served_rank, day=state.day + 1)


@dataclass(frozen=True)
class KPRRunResult:
    """Convergence day (None if never reached), per-day utilization, final state."""

    convergence_day: int | None
    utilization: np.ndarray
    final_state: KPRState


def kpr_run(
    n: int,
    max_steps: int,
    rng: np.random.Generator,
    positions: np.ndarray | None = None,
) -> KPRRunResult:
    """Run from a random start until the positions first form a permutation.

    Stops at the first cyclic day or after ``max_steps`` days, whichever
    comes first, and reports the utilization (fraction fed) of every day
    seen, day 0 included.
    """
    if max_steps != int(max_steps) or max_steps < 0:
        raise ValueError(f"max_steps must be a nonnegative integer, got {max_steps}")
    state = kpr_init(n, rng, positions)
    utilization = [state.utilization]
    convergence_day: int | None = 0 if state.is_cyclic() else None
    day = 0
    while convergence_day is None and day < max_steps:
        state = kpr_step(state, rng)
        day += 1
        utilization.append(state.utilization)
        if state.is_cyclic():
            convergence_day = day
    return KPRRunResult(
        convergence_day=convergence_day,
        utilization=np.asarray(utilization),
        final_state=state,
    )
