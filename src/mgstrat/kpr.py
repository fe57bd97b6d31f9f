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

The priority never decides anything.  Stepping one rank down is a
bijection, so two agents fed at different ranks arrive at different ranks;
and an unserved agent arrives one below an empty rank, which no fed agent
comes from.  So every claimant eats alone, only arrivals without a claim
ever collide, and a day's state is just the positions and who ate.

That leaves a chain on the unfed agents.  Each occupied rank feeds exactly
one agent, so there are as many empty ranks as unfed agents, say u.  In the
frame that rotates one rank down per day, fed agents stand still: an agent
in slot s is at rank ``(s - t) mod n + 1`` on day t.  The empty ranks are
the u slots no fed agent holds, and tomorrow the u unfed agents land on
them uniformly at random, one eater per slot that anyone hit.  Day 0 is the
same landing of all n agents on all n slots.  The unfed count u' is u minus
the slots hit, and the convergence day is the first day u reaches 0.

Then the positions form a permutation and the motion is a pure rotation --
everyone is served every day and cycles through all ranks -- so that state
is absorbing and maximally fair.  From random starts it is reached quickly,
with a mean convergence time growing roughly logarithmically in n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import binary, count, integers

__all__ = [
    "KPRState",
    "kpr_init",
    "kpr_step",
    "KPRRunResult",
    "kpr_run",
]


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
    """Positions and who ate, on one day.

    ``positions[agent]`` is the rank (1..n) attended today, and
    ``fed[agent]`` is true when the agent ate there; the next day's movement
    reads both as "yesterday's".  Fed agents must sit at distinct ranks, one
    at every occupied rank; ValueError otherwise.
    """

    n: int
    positions: np.ndarray
    fed: np.ndarray
    day: int = 0

    def __post_init__(self) -> None:
        self.n = n = count(self.n, "n", 1)
        self.positions = _ranks(self.positions, n)
        self.fed = fed = binary(self.fed, "fed", "unfed", "fed").astype(bool, copy=False)
        if fed.shape != (n,):
            raise ValueError(f"fed must have shape ({n},), got {fed.shape}")
        eaters = np.bincount(self.positions[fed], minlength=n + 1)
        occupied = np.bincount(self.positions, minlength=n + 1) > 0
        if not np.array_equal(eaters, occupied):
            raise ValueError("fed must be the service at positions: "
                             "one agent fed at each occupied rank")


def _land(
    slot: np.ndarray,
    movers: np.ndarray,
    free: np.ndarray,
    rng: np.random.Generator,
    picks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Land the unfed ``movers`` on as many ``free`` slots: (still unfed, still free).

    Each mover draws one of the free slots (``picks`` replaces the draw)
    and takes its key from one random permutation; the smallest key at
    each slot eats.  ``slot`` is updated in place, and both returned
    lists keep the order of the given ones.
    """
    u = free.size
    if picks is None:
        picks = rng.integers(u, size=u)
    key = rng.permutation(u)
    best = np.full(u, u, dtype=np.int64)
    np.minimum.at(best, picks, key)
    slot[movers] = free[picks]
    return movers[key != best[picks]], free[best == u]


def _first_day(
    n: int, rng: np.random.Generator, positions: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Day 0, every agent landing on every slot: (slot, unfed, free).

    A function of its own, so that day 0's n-sized temporaries end with it.
    """
    everyone = np.arange(n)
    slot = np.empty(n, dtype=np.int64)
    picks = None if positions is None else _ranks(positions, n) - 1
    return slot, *_land(slot, everyone, everyone, rng, picks)


def _state(n: int, slot: np.ndarray, unfed: np.ndarray, day: int) -> KPRState:
    """The state of ``day``, turning ``slot`` into ranks in place."""
    slot -= day
    slot %= n
    slot += 1
    fed = np.ones(n, dtype=bool)
    fed[unfed] = False
    return KPRState(n, slot, fed, day=day)


def kpr_init(
    n: int, rng: np.random.Generator, positions: np.ndarray | None = None
) -> KPRState:
    """Day-0 state: i.i.d. uniform choices (or the given ones), then service.

    Day 0 has no service history, so every collision is settled uniformly.
    """
    return kpr_run(n, 0, rng, positions).final_state


def kpr_step(state: KPRState, rng: np.random.Generator) -> KPRState:
    """Advance one day: the unfed land on the empty ranks, the fed step down."""
    n, day, fed = state.n, state.day, state.fed
    slot = (state.positions - 1 + day) % n
    held = np.zeros(n, dtype=bool)
    held[slot[fed]] = True
    unfed, _ = _land(slot, np.flatnonzero(~fed), np.flatnonzero(~held), rng)
    return _state(n, slot, unfed, day + 1)


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
    all n agents are fed.  A day costs O(unfed agents); the final state is
    built once, at the end.
    """
    n = count(n, "n", 1)
    max_steps = count(max_steps, "max_steps", 0)
    slot, unfed, free = _first_day(n, rng, positions)
    utilization = [(n - unfed.size) / n]
    day = 0
    while unfed.size and day < max_steps:
        unfed, free = _land(slot, unfed, free, rng)
        day += 1
        utilization.append((n - unfed.size) / n)
    return KPRRunResult(
        convergence_day=None if unfed.size else day,
        utilization=np.asarray(utilization),
        final_state=_state(n, slot, unfed, day),
    )
