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

from ._checks import integers

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


def _count(value: int, name: str, minimum: int) -> int:
    """``value`` as one int of at least ``minimum``; integral floats pass."""
    array = integers(value, name, minimum)
    if array.ndim:
        raise ValueError(f"{name} must be a single integer, got {value!r}")
    return int(array)


def _ranks(positions: np.ndarray, n: int) -> np.ndarray:
    """``positions`` as n int64 ranks in 1..n; ValueError naming the first bad one."""
    array = integers(positions, "positions", 1)
    if array.shape != (n,):
        raise ValueError(f"positions must have shape ({n},), got {array.shape}")
    if array.max() > n:
        raise ValueError(f"positions must be ranks in 1..{n}, got {array[array > n][0]}")
    return array.astype(np.int64, copy=False)


@dataclass
class KPRState:
    """Positions and service outcome of one day.

    ``positions[agent]`` is the rank (1..n) attended today.
    ``served[rank - 1]`` is the agent fed at that rank, or ``NO_AGENT``.
    ``last_served_rank[agent]`` is the rank the agent was fed at, or
    ``UNSERVED``; the next day's movement and tie-breaks read it as
    "yesterday's" service.  ``kpr_step`` takes the ranks that fed nobody
    as the empty ones, so ``served`` must be the service at ``positions``,
    as ``kpr_init`` and ``kpr_step`` make it.
    """

    n: int
    positions: np.ndarray
    served: np.ndarray
    last_served_rank: np.ndarray
    day: int = 0

    def __post_init__(self) -> None:
        self.n = n = _count(self.n, "n", 1)
        self.positions = _ranks(self.positions, n)
        self.served = np.asarray(self.served, dtype=np.int64)
        self.last_served_rank = np.asarray(self.last_served_rank, dtype=np.int64)
        for name in ("served", "last_served_rank"):
            shape = getattr(self, name).shape
            if shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {shape}")

    @property
    def utilization(self) -> float:
        """Fraction of agents fed today."""
        return float((self.last_served_rank != UNSERVED).sum()) / self.n

    def is_cyclic(self) -> bool:
        """True when every restaurant got exactly one customer."""
        return bool(np.bincount(self.positions, minlength=self.n + 1)[1:].all())


def _winners(
    positions: np.ndarray, claims: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The agents fed at ``positions``, ascending.

    Each agent's key is its place in one random permutation, and a
    claimant's is -1.  The smallest key at each rank eats.
    """
    n = positions.size
    key = np.empty(n, dtype=np.int64)
    key[rng.permutation(n)] = np.arange(n)
    np.putmask(key, claims, -1)
    best = np.full(n + 1, n, dtype=np.int64)
    np.minimum.at(best, positions, key)
    winners = np.flatnonzero(key == best[positions])
    if winners.size > np.count_nonzero(best < n):
        # Claimants all hold key -1, so two at one rank both match its minimum.
        rank = int(np.argmax(np.bincount(positions[winners]) > 1))
        raise RuntimeError(
            f"rank {rank}: several arrivals claim yesterday's rank {rank % n + 1}; "
            "service history is corrupt"
        )
    return winners


def _serve(
    positions: np.ndarray, claims: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """(served, served_rank, number fed) at ``positions``, given who claims."""
    n = positions.size
    winners = _winners(positions, claims, rng)
    winner_ranks = positions[winners]
    served = np.full(n, NO_AGENT, dtype=np.int64)
    served[winner_ranks - 1] = winners
    served_rank = np.full(n, UNSERVED, dtype=np.int64)
    served_rank[winners] = winner_ranks
    return served, served_rank, winners.size


def resolve_service(
    positions: np.ndarray, prev_served_rank: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Decide who eats: (served-by-restaurant, served-rank-by-agent).

    At a restaurant of rank k, an arrival that was served at rank k + 1
    yesterday (rank 1 when k = n) eats; otherwise one arrival is drawn
    uniformly.  At most one arrival can hold the priority claim, because a
    single restaurant feeds a single agent per day.

    Each agent is keyed by its place in one random permutation of the
    agents, and each claimant by -1; one scatter-min takes every rank's
    smallest key, and the agent holding it eats.  That is O(n), and it
    feeds the agent a stable sort of the permutation by (rank,
    not-claimant) would put first.
    """
    claims = prev_served_rank == positions % len(positions) + 1
    served, served_rank, _ = _serve(positions, claims, rng)
    return served, served_rank


def _start(
    n: int, rng: np.random.Generator, positions: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Day 0: (positions, served, served_rank, number fed)."""
    if positions is None:
        positions = rng.integers(1, n + 1, size=n)
    else:
        positions = _ranks(positions, n)
    return positions, *_serve(positions, np.zeros(n, dtype=bool), rng)


def _move(
    served: np.ndarray, served_rank: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Tomorrow's positions after a day with this service."""
    n = served.size
    positions = served_rank.copy()
    unserved = np.flatnonzero(positions == UNSERVED)
    if unserved.size:
        # Each occupied rank feeds exactly one arrival, so the ranks that
        # fed nobody are the empty ones.
        empty_ranks = np.flatnonzero(served == NO_AGENT) + 1
        if empty_ranks.size == 0:
            # Impossible: with n agents in n restaurants, someone is
            # unserved only if some restaurant drew a crowd, which
            # leaves another one empty.
            raise RuntimeError("unserved agent but no empty restaurant")
        positions[unserved] = empty_ranks[
            rng.integers(empty_ranks.size, size=unserved.size)
        ]
    positions -= 1
    positions[positions == 0] = n
    return positions


def _day(
    served: np.ndarray, served_rank: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The next day: (positions, served, served_rank, number fed).

    Each step is its own function, so no step's temporaries outlive it.
    """
    positions = _move(served, served_rank, rng)
    # Every agent fed yesterday moved to the rank just below, so holds the
    # claim there; nobody else does.
    return positions, *_serve(positions, served_rank != UNSERVED, rng)


def kpr_init(
    n: int, rng: np.random.Generator, positions: np.ndarray | None = None
) -> KPRState:
    """Day-0 state: i.i.d. uniform choices (or the given ones), then service.

    Day 0 has no service history, so no arrival holds a priority claim and
    every collision is settled uniformly.
    """
    n = _count(n, "n", 1)
    positions, served, served_rank, _ = _start(n, rng, positions)
    return KPRState(n, positions, served, served_rank, day=0)


def kpr_step(state: KPRState, rng: np.random.Generator) -> KPRState:
    """Advance one day: move everyone, then resolve service at each rank."""
    positions, served, served_rank, _ = _day(state.served, state.last_served_rank, rng)
    return KPRState(state.n, positions, served, served_rank, day=state.day + 1)


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
    seen, day 0 included.  The positions form a permutation exactly when
    all n agents are fed.
    """
    n = _count(n, "n", 1)
    max_steps = _count(max_steps, "max_steps", 0)
    positions, served, served_rank, fed = _start(n, rng, positions)
    utilization = [fed / n]
    day = 0
    while fed < n and day < max_steps:
        positions, served, served_rank, fed = _day(served, served_rank, rng)
        day += 1
        utilization.append(fed / n)
    return KPRRunResult(
        convergence_day=day if fed == n else None,
        utilization=np.asarray(utilization),
        final_state=KPRState(n, positions, served, served_rank, day=day),
    )
