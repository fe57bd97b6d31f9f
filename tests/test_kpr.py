"""Ranked-restaurant cyclic-strategy tests.

The former service rule, a stable sort of one random permutation, is kept
here as the oracle: the scatter-min service must feed the same agents and
draw the same random numbers.
"""

import itertools

import numpy as np
import pytest

from mgstrat import kpr
from mgstrat.engine import derive_rng
from mgstrat.kpr import (
    NO_AGENT,
    UNSERVED,
    KPRState,
    kpr_init,
    kpr_run,
    kpr_step,
    resolve_service,
)


def sorted_service(positions, prev_served_rank, rng):
    """The former service rule, kept as the oracle.

    One random permutation of the agents, stable-sorted by (rank,
    not-claimant); the first agent of each rank eats.
    """
    n = len(positions)
    claims = prev_served_rank == positions % n + 1
    order = rng.permutation(n)
    order = order[np.lexsort((~claims[order], positions[order]))]
    ranks = positions[order]
    first = np.diff(ranks, prepend=0) != 0
    served = np.full(n, NO_AGENT, dtype=np.int64)
    served_rank = np.full(n, UNSERVED, dtype=np.int64)
    served[ranks[first] - 1] = order[first]
    served_rank[order[first]] = ranks[first]
    return served, served_rank


def random_history(n, rng):
    """Random positions with at most one claimant per rank, one at rank n.

    Each rank gets a claimant among its arrivals with probability 1/2.
    Agent 0 sits at rank n and was fed at rank 1, so its claim wraps.
    Everyone else was fed at a random rank other than the one above, or
    not at all.
    """
    positions = rng.integers(1, n + 1, size=n)
    positions[0] = n
    above = positions % n + 1
    prev = rng.integers(UNSERVED, n + 1, size=n)
    prev[prev == above] = UNSERVED
    for rank in range(1, n + 1):
        arrivals = np.flatnonzero(positions == rank)
        if rank == n:
            prev[0] = above[0]
        elif arrivals.size and rng.random() < 0.5:
            claimant = rng.choice(arrivals)
            prev[claimant] = above[claimant]
    return positions, prev


class TestSingleAgent:
    def test_always_served_fixed_cycle(self):
        result = kpr_run(1, 10, derive_rng(70))
        assert result.convergence_day == 0
        assert (result.utilization == 1.0).all()
        state = result.final_state
        for _ in range(5):
            state = kpr_step(state, derive_rng(71))
            assert state.positions[0] == 1
            assert state.last_served_rank[0] == 1


class TestServiceResolution:
    def test_lone_arrival_is_served(self):
        positions = np.array([1, 2, 3])
        prev = np.array([UNSERVED, UNSERVED, UNSERVED])
        served, served_rank = resolve_service(positions, prev, derive_rng(72))
        assert np.array_equal(served, np.array([0, 1, 2]))
        assert np.array_equal(served_rank, np.array([1, 2, 3]))

    def test_priority_claimant_always_wins(self):
        # agent 0 was served at rank 2 yesterday, so at rank 1 today it
        # holds the priority claim against agent 1
        for trial in range(50):
            served, served_rank = resolve_service(
                np.array([1, 1, 3]),
                np.array([2, UNSERVED, UNSERVED]),
                derive_rng(73, trial),
            )
            assert served[0] == 0
            assert served_rank[0] == 1
            assert served_rank[1] == UNSERVED

    def test_priority_wraps_at_top_rank(self):
        # at rank n the claim belongs to yesterday's rank-1 diner
        for trial in range(50):
            served, served_rank = resolve_service(
                np.array([3, 3, 1]),
                np.array([1, UNSERVED, UNSERVED]),
                derive_rng(74, trial),
            )
            assert served_rank[0] == 3

    def test_collision_without_priority_is_uniform(self):
        winners = [
            int(
                resolve_service(
                    np.array([2, 2, 3]),
                    np.array([UNSERVED] * 3),
                    derive_rng(75, trial),
                )[0][1]
            )
            for trial in range(400)
        ]
        share = winners.count(0) / len(winners)
        assert 0.4 < share < 0.6
        assert set(winners) == {0, 1}

    def test_three_way_collision_without_claim_is_uniform(self):
        # three arrivals at rank 2 of four, none served at rank 3 yesterday
        rng = derive_rng(95)
        trials = 3000
        wins = np.zeros(3, dtype=int)
        for _ in range(trials):
            served, served_rank = resolve_service(
                np.array([2, 2, 2, 4]), np.array([1, UNSERVED, 4, 3]), rng
            )
            wins[served[1]] += 1
            assert served_rank[3] == 4
        sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
        assert (np.abs(wins - trials / 3) < 5 * sigma).all(), wins

    @pytest.mark.parametrize("claimant", [0, 1, 2])
    def test_claimant_wins_at_any_agent_index(self, claimant):
        prev = np.array([3, 4, UNSERVED, UNSERVED])
        prev[claimant] = 2
        for trial in range(100):
            served, served_rank = resolve_service(
                np.array([1, 1, 1, 3]), prev, derive_rng(96, claimant, trial)
            )
            assert served[0] == claimant
            assert (served_rank[:3] == UNSERVED).sum() == 2

    def test_two_claimants_flag_corrupt_history(self):
        with pytest.raises(RuntimeError):
            resolve_service(
                np.array([1, 1, 3]), np.array([2, 2, UNSERVED]), derive_rng(76)
            )

    def test_empty_restaurant_serves_nobody(self):
        served, _ = resolve_service(
            np.array([1, 1, 1]), np.array([UNSERVED] * 3), derive_rng(77)
        )
        assert served[1] == NO_AGENT
        assert served[2] == NO_AGENT

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1024])
    def test_scatter_min_feeds_the_sorted_winners(self, n):
        history = derive_rng(100, n)
        for trial in range(60):
            positions, prev = random_history(n, history)
            ours, oracle = derive_rng(101, n, trial), derive_rng(101, n, trial)
            served, served_rank = resolve_service(positions, prev, ours)
            expected_served, expected_rank = sorted_service(positions, prev, oracle)
            assert np.array_equal(served, expected_served)
            assert np.array_equal(served_rank, expected_rank)
            assert ours.random() == oracle.random()


class TestStepMechanics:
    def test_cyclic_state_rotates_exactly(self):
        state = kpr_init(3, derive_rng(78), positions=np.array([2, 3, 1]))
        assert state.is_cyclic()
        after = kpr_step(state, derive_rng(79))
        assert np.array_equal(after.positions, np.array([1, 2, 3]))
        assert after.is_cyclic()

    def test_rank_one_wraps_to_top(self):
        state = kpr_init(4, derive_rng(80), positions=np.array([1, 2, 3, 4]))
        after = kpr_step(state, derive_rng(81))
        assert after.positions[0] == 4

    def test_unserved_agent_moves_below_an_empty_restaurant(self):
        # three agents pile onto rank 2 of four restaurants; the two losers
        # must move one below an empty restaurant, and the empties are
        # ranks 1 and 3 (below 1 wraps to 4)
        state = kpr_init(4, derive_rng(82), positions=np.array([2, 2, 2, 4]))
        losers = [a for a in range(3) if state.last_served_rank[a] == UNSERVED]
        assert len(losers) == 2
        after = kpr_step(state, derive_rng(83))
        for agent in losers:
            assert after.positions[agent] in {4, 2}

    def test_unserved_agents_land_uniformly_below_empty_restaurants(self):
        # four agents pile onto rank 3 of five; the empties are ranks 1, 2
        # and 4, so each of the three losers lands on rank 5, 1 or 3
        state = kpr_init(5, derive_rng(97), positions=np.array([3, 3, 3, 3, 5]))
        losers = np.flatnonzero(state.last_served_rank == UNSERVED)
        assert losers.size == 3
        rng = derive_rng(98)
        trials = 3000
        landings = np.array([kpr_step(state, rng).positions[losers] for _ in range(trials)])
        sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
        for column in landings.T:
            ranks, counts = np.unique(column, return_counts=True)
            assert ranks.tolist() == [1, 3, 5]
            assert (np.abs(counts - trials / 3) < 5 * sigma).all(), counts

    def test_permutation_is_absorbing_long_horizon(self):
        rng = derive_rng(84)
        state = kpr_init(6, rng)
        for _ in range(200):
            state = kpr_step(state, rng)
            if state.is_cyclic():
                break
        assert state.is_cyclic()
        for _ in range(1000):
            state = kpr_step(state, rng)
            assert state.is_cyclic()
            assert state.utilization == 1.0

    def test_corrupt_states_are_flagged(self):
        # two agents fed at rank 2 both move to rank 1 and both claim it
        twice_fed = KPRState(3, [2, 2, 3], [NO_AGENT, 0, 2], [2, 2, 3])
        with pytest.raises(RuntimeError, match="several arrivals claim"):
            kpr_step(twice_fed, derive_rng(110))
        # an unfed agent while every rank fed someone
        nowhere_to_go = KPRState(2, [1, 2], [0, 1], [UNSERVED, 2])
        with pytest.raises(RuntimeError, match="no empty restaurant"):
            kpr_step(nowhere_to_go, derive_rng(111))

    def test_serve_counts_bounded(self):
        rng = derive_rng(85)
        state = kpr_init(9, rng)
        for _ in range(50):
            served_agents = state.served[state.served != NO_AGENT]
            assert len(served_agents) == len(set(served_agents.tolist()))
            assert (state.last_served_rank != UNSERVED).sum() == len(served_agents)
            state = kpr_step(state, rng)


class TestTwoAgentExhaustive:
    def test_all_starts_and_streams(self):
        # Both colliding starts converge in exactly one day (the served
        # agent wraps away while the loser takes the empty restaurant);
        # both permutation starts are converged at day 0.
        for start in ([1, 1], [2, 2], [1, 2], [2, 1]):
            expected = 0 if len(set(start)) == 2 else 1
            for seed in range(40):
                result = kpr_run(
                    2, 10, derive_rng(86, seed), positions=np.array(start)
                )
                assert result.convergence_day == expected
                assert result.utilization[-1] == 1.0


def _first_day_support(start):
    """Every (day-0 served, day-1 positions) pair the rules allow.

    Day 0 has no history, so each occupied rank feeds any one of its
    arrivals; each unserved agent then picks any empty rank and moves one
    below it.  Distinct choices give distinct pairs, so the law is uniform
    over this set.
    """
    n = len(start)
    arrivals = {r: [a for a in range(n) if start[a] == r] for r in range(1, n + 1)}
    occupied = [r for r in arrivals if arrivals[r]]
    empty = [r for r in arrivals if not arrivals[r]]
    support = set()
    for winners in itertools.product(*(arrivals[r] for r in occupied)):
        served = [NO_AGENT] * n
        rank_of = [UNSERVED] * n
        for rank, agent in zip(occupied, winners):
            served[rank - 1] = agent
            rank_of[agent] = rank
        losers = [a for a in range(n) if rank_of[a] == UNSERVED]
        for picks in itertools.product(empty, repeat=len(losers)):
            k = list(rank_of)
            for agent, rank in zip(losers, picks):
                k[agent] = rank
            support.add((tuple(served), tuple(r - 1 if r > 1 else n for r in k)))
    return support


class TestThreeAgentExhaustive:
    def test_first_day_law_from_every_start(self):
        for index, start in enumerate(itertools.product((1, 2, 3), repeat=3)):
            support = _first_day_support(start)
            trials = 200 * len(support)
            rng = derive_rng(99, index)
            seen = {}
            for _ in range(trials):
                day0 = kpr_init(3, rng, positions=np.array(start))
                day1 = kpr_step(day0, rng)
                outcome = (tuple(day0.served.tolist()), tuple(day1.positions.tolist()))
                seen[outcome] = seen.get(outcome, 0) + 1
            assert set(seen) == support, start
            p = 1 / len(support)
            sigma = np.sqrt(trials * p * (1 - p))
            for outcome, count in seen.items():
                assert abs(count - trials * p) <= 5 * sigma, (start, outcome, count)


class TestRun:
    def test_post_convergence_rank_fairness(self):
        result = kpr_run(8, 500, derive_rng(87))
        assert result.convergence_day is not None
        state = result.final_state
        # roll forward a little, then examine two overlapping 8-day windows
        history = []
        for _ in range(20):
            state = kpr_step(state, derive_rng(88, state.day))
            history.append(state.last_served_rank.copy())
        for offset in (0, 3):
            window = np.stack(history[offset : offset + 8])
            for agent in range(8):
                assert sorted(window[:, agent].tolist()) == list(range(1, 9))

    def test_utilization_one_after_convergence(self):
        result = kpr_run(16, 500, derive_rng(89))
        day = result.convergence_day
        assert day is not None
        assert (result.utilization[day:] == 1.0).all()

    def test_determinism(self):
        a = kpr_run(12, 200, derive_rng(90))
        b = kpr_run(12, 200, derive_rng(90))
        assert a.convergence_day == b.convergence_day
        assert np.array_equal(a.utilization, b.utilization)

    def test_zero_step_budget_reports_unconverged(self):
        result = kpr_run(2, 0, derive_rng(91), positions=np.array([1, 1]))
        assert result.convergence_day is None
        assert len(result.utilization) == 1

    def test_mean_convergence_grows_slowly(self):
        means = []
        for n in (8, 16, 32, 64):
            days = [
                kpr_run(n, 10**4, derive_rng(92, n, s)).convergence_day
                for s in range(60)
            ]
            assert all(d is not None for d in days)
            means.append(float(np.mean(days)))
        assert all(b > a for a, b in zip(means, means[1:]))
        assert means[-1] / means[0] < 3.0  # far from linear growth (8x)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 257])
    def test_run_is_init_plus_steps(self, n):
        stopped_early = False
        for seed in range(6):
            start = None if seed % 2 else np.ones(n, dtype=np.int64)
            max_steps = 2 if seed >= 4 else 10**4
            ours, stepped = derive_rng(102, n, seed), derive_rng(102, n, seed)
            result = kpr_run(n, max_steps, ours, positions=start)
            state = kpr_init(n, stepped, positions=start)
            utilization = [state.utilization]
            while not state.is_cyclic() and state.day < max_steps:
                state = kpr_step(state, stepped)
                utilization.append(state.utilization)
            expected_day = state.day if state.is_cyclic() else None
            stopped_early |= expected_day is None
            assert result.convergence_day == expected_day
            assert np.array_equal(result.utilization, np.array(utilization))
            final = result.final_state
            assert final.day == state.day
            assert np.array_equal(final.positions, state.positions)
            assert np.array_equal(final.served, state.served)
            assert np.array_equal(final.last_served_rank, state.last_served_rank)
            assert ours.random() == stepped.random()
        assert stopped_early or n < 16

    def test_inputs_are_checked_once_per_run(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return integers(*args)

        integers = kpr.integers
        monkeypatch.setattr(kpr, "integers", counted)
        result = kpr_run(64, 10**4, derive_rng(103), positions=np.ones(64))
        assert len(result.utilization) > 3
        # n and max_steps, the given positions, then the final state's n
        # and positions
        assert calls == ["n", "max_steps", "positions", "n", "positions"]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kpr_run(0, 5, derive_rng(93))
        with pytest.raises(ValueError):
            kpr_init(3, derive_rng(94), positions=np.array([1, 2, 9]))


class TestInputChecks:
    def test_fractional_positions_are_refused(self):
        with pytest.raises(ValueError, match="positions .* got 1.7"):
            kpr_init(3, derive_rng(104), positions=[1.7, 2.2, 3.9])

    def test_first_bad_position_is_named(self):
        with pytest.raises(ValueError, match="got 2.5"):
            kpr_run(3, 5, derive_rng(105), positions=[1, 2.5, 0])
        with pytest.raises(ValueError, match="got 5"):
            kpr_init(3, derive_rng(105), positions=[1, 5, 4])

    def test_infinite_step_budget_is_refused(self):
        with pytest.raises(ValueError, match="max_steps .* got inf"):
            kpr_run(4, float("inf"), derive_rng(106))

    def test_string_agent_count_is_named_as_such(self):
        with pytest.raises(ValueError, match="n must be an integer, got '4'"):
            kpr_run("4", 3, derive_rng(107))

    def test_integral_floats_pass(self):
        state = kpr_init(3.0, derive_rng(108))
        expected = kpr_init(3, derive_rng(108))
        assert state.n == 3 and isinstance(state.n, int)
        assert np.array_equal(state.served, expected.served)
        result = kpr_run(5.0, 40.0, derive_rng(109), positions=[1.0, 1.0, 2.0, 3.0, 5.0])
        expected = kpr_run(5, 40, derive_rng(109), positions=[1, 1, 2, 3, 5])
        assert result.convergence_day == expected.convergence_day
        assert np.array_equal(result.final_state.positions, expected.final_state.positions)

    @pytest.mark.parametrize("field", ["served", "last_served_rank"])
    def test_state_checks_service_shapes(self, field):
        arrays = {"served": [0, 1, 2], "last_served_rank": [1, 2, 3]}
        arrays[field] = arrays[field][:2]
        with pytest.raises(ValueError, match=f"{field} must have shape"):
            KPRState(3, [1, 2, 3], **arrays)
