"""Ranked-restaurant cyclic-strategy tests.

The exact law of the convergence day is the oracle for the simulated one.
In the frame that rotates with the fed agents, each day throws the u unfed
agents into the u free slots, and u' is u minus the slots hit; day 0
throws n agents into n slots.  ``convergence_law`` runs that chain on the
occupancy distribution, so it shares no code with ``kpr``.
"""

import functools
import itertools

import numpy as np
import pytest
from scipy.stats import chisquare

from mgstrat import _checks, kpr
from mgstrat.engine import derive_rng
from mgstrat.kpr import KPRState, kpr_init, kpr_run, kpr_step


@functools.lru_cache(maxsize=None)
def occupancy(u):
    """P(k of u bins occupied), k = 0..u, after throwing u balls into them."""
    k = np.arange(u + 1)
    p = np.zeros(u + 1)
    p[0] = 1.0
    for _ in range(u):
        p = p * k / u + np.concatenate(([0.0], p[:-1] * (u - k[:-1]) / u))
    return p


@functools.lru_cache(maxsize=None)
def convergence_law(n, floor=1e-17):
    """(pmf of the convergence day, total mass dropped) for n agents.

    Unfed counts whose mass falls below ``floor`` are dropped.
    """
    mass = occupancy(n)[::-1].copy()  # day 0: u = n - occupied
    pmf, dropped = [], 0.0
    while True:
        pmf.append(mass[0])
        mass[0] = 0.0
        small = mass < floor
        dropped += mass[small].sum()
        mass[small] = 0.0
        if not mass.any():
            return np.array(pmf), dropped
        after = np.zeros_like(mass)
        for u in np.flatnonzero(mass):
            after[: u + 1] += mass[u] * occupancy(u)[::-1]
        mass = after


class TestSingleAgent:
    def test_always_served_fixed_cycle(self):
        result = kpr_run(1, 10, derive_rng(70))
        assert result.convergence_day == 0
        assert (result.utilization == 1.0).all()
        state = result.final_state
        for _ in range(5):
            state = kpr_step(state, derive_rng(71))
            assert state.positions[0] == 1
            assert state.fed[0]


class TestServiceResolution:
    def test_lone_arrival_is_served(self):
        state = kpr_init(3, derive_rng(72), positions=np.array([1, 2, 3]))
        assert state.fed.all()
        assert np.array_equal(state.positions, np.array([1, 2, 3]))

    def test_priority_claimant_always_wins(self):
        # agent 0 is fed alone at rank 2, so at rank 1 tomorrow it holds
        # the claim, and it eats there
        for trial in range(50):
            rng = derive_rng(73, trial)
            after = kpr_step(kpr_init(3, rng, positions=np.array([2, 1, 1])), rng)
            assert after.fed[0] and after.positions[0] == 1

    def test_priority_wraps_at_top_rank(self):
        # agents 0 and 1 collide at rank 1; whoever eats wraps to rank 3
        # and is fed there, while agent 2 steps from rank 3 to rank 2
        for trial in range(50):
            rng = derive_rng(74, trial)
            state = kpr_init(3, rng, positions=np.array([1, 1, 3]))
            (winner,) = np.flatnonzero(state.fed & (state.positions == 1))
            after = kpr_step(state, rng)
            assert after.fed[winner] and after.positions[winner] == 3
            assert after.fed[2] and after.positions[2] == 2

    def test_fed_agents_always_step_down_and_eat(self):
        rng = derive_rng(79)
        state = kpr_init(9, rng)
        for _ in range(30):
            fed = np.flatnonzero(state.fed)
            after = kpr_step(state, rng)
            below = (state.positions[fed] - 2) % 9 + 1
            assert np.array_equal(after.positions[fed], below)
            assert after.fed[fed].all()
            state = after

    @pytest.mark.parametrize("claimant", [0, 1, 2])
    def test_claimant_wins_at_any_agent_index(self, claimant):
        # the claimant is fed alone at rank 2, then at rank 1
        positions = np.array([1, 1, 1, 3])
        positions[claimant] = 2
        for trial in range(100):
            rng = derive_rng(96, claimant, trial)
            after = kpr_step(kpr_init(4, rng, positions=positions), rng)
            assert after.fed[claimant] and after.positions[claimant] == 1

    def test_collision_without_priority_is_uniform(self):
        winners = []
        for trial in range(400):
            state = kpr_init(3, derive_rng(75, trial), positions=np.array([2, 2, 3]))
            (winner,) = np.flatnonzero(state.fed & (state.positions == 2))
            winners.append(int(winner))
        share = winners.count(0) / len(winners)
        assert 0.4 < share < 0.6
        assert set(winners) == {0, 1}

    def test_three_way_collision_without_claim_is_uniform(self):
        # three arrivals at rank 2 of four
        rng = derive_rng(95)
        trials = 3000
        wins = np.zeros(3, dtype=int)
        for _ in range(trials):
            state = kpr_init(4, rng, positions=np.array([2, 2, 2, 4]))
            (winner,) = np.flatnonzero(state.fed & (state.positions == 2))
            wins[winner] += 1
            assert state.fed[3] and state.positions[3] == 4
        sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
        assert (np.abs(wins - trials / 3) < 5 * sigma).all(), wins

    def test_empty_restaurant_serves_nobody(self):
        state = kpr_init(3, derive_rng(77), positions=np.array([1, 1, 1]))
        assert not np.isin(state.positions[state.fed], (2, 3)).any()
        after = kpr_step(state, derive_rng(78))
        empty = np.flatnonzero(np.bincount(after.positions, minlength=4)[1:] == 0) + 1
        assert not np.isin(after.positions[after.fed], empty).any()


class TestConvergenceLaw:
    def test_three_agents_exactly(self):
        pmf, dropped = convergence_law(3)
        assert np.allclose(pmf, [2 / 9, 13 / 18, 1 / 18], rtol=0, atol=1e-15)
        assert dropped == 0.0

    @pytest.mark.parametrize("n, mean", [(16, 2.381), (256, 5.124), (1024, 6.509)])
    def test_exact_mean(self, n, mean):
        pmf, dropped = convergence_law(n)
        assert dropped < 1e-12
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf @ np.arange(pmf.size) == pytest.approx(mean, abs=5e-4)

    @pytest.mark.parametrize("n, seeds", [(64, 10000), (1024, 2000)])
    def test_run_matches_the_exact_law(self, n, seeds):
        rng = derive_rng(400, n)
        days = np.array([kpr_run(n, 10**4, rng).convergence_day for _ in range(seeds)])
        pmf, _ = convergence_law(n)
        assert days.max() < pmf.size
        observed = np.bincount(days, minlength=pmf.size).astype(float)
        expected = seeds * pmf / pmf.sum()
        # merge the tails into their neighbours until every bin expects >= 5
        keep = np.flatnonzero(expected >= 5)
        edges = np.r_[0, keep[1:], pmf.size]
        observed = np.add.reduceat(observed, edges[:-1])
        expected = np.add.reduceat(expected, edges[:-1])
        assert chisquare(observed, expected).pvalue > 1e-3


class TestStepMechanics:
    def test_cyclic_state_rotates_exactly(self):
        state = kpr_init(3, derive_rng(78), positions=np.array([2, 3, 1]))
        assert state.fed.all()
        after = kpr_step(state, derive_rng(79))
        assert np.array_equal(after.positions, np.array([1, 2, 3]))
        assert after.fed.all()

    def test_rank_one_wraps_to_top(self):
        state = kpr_init(4, derive_rng(80), positions=np.array([1, 2, 3, 4]))
        after = kpr_step(state, derive_rng(81))
        assert after.positions[0] == 4

    def test_unserved_agent_moves_below_an_empty_restaurant(self):
        # three agents pile onto rank 2 of four restaurants; the two losers
        # must move one below an empty restaurant, and the empties are
        # ranks 1 and 3 (below 1 wraps to 4)
        state = kpr_init(4, derive_rng(82), positions=np.array([2, 2, 2, 4]))
        losers = [a for a in range(3) if not state.fed[a]]
        assert len(losers) == 2
        after = kpr_step(state, derive_rng(83))
        for agent in losers:
            assert after.positions[agent] in {4, 2}

    def test_unserved_agents_land_uniformly_below_empty_restaurants(self):
        # four agents pile onto rank 3 of five; the empties are ranks 1, 2
        # and 4, so each of the three losers lands on rank 5, 1 or 3
        state = kpr_init(5, derive_rng(97), positions=np.array([3, 3, 3, 3, 5]))
        losers = np.flatnonzero(~state.fed)
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
            if state.fed.all():
                break
        assert state.fed.all()
        for _ in range(1000):
            state = kpr_step(state, rng)
            assert state.fed.all()

    def test_corrupt_states_are_flagged(self):
        # two agents recorded as fed at rank 2
        with pytest.raises(ValueError, match="service at positions"):
            KPRState(3, [2, 2, 3], [True, True, True])
        # an unfed agent while every rank fed someone
        with pytest.raises(ValueError, match="service at positions"):
            KPRState(2, [1, 2], [False, True])

    @pytest.mark.parametrize(
        "positions, fed",
        [
            ([1, 2, 3], [1, 1, 0]),  # rank 3 is occupied but fed nobody
            ([1, 1, 3], [0, 0, 1]),  # rank 1 is occupied but fed nobody
        ],
    )
    def test_service_must_match_positions(self, positions, fed):
        KPRState(3, [1, 1, 3], [0, 1, 1])
        with pytest.raises(ValueError, match="service at positions"):
            KPRState(3, positions, fed)

    def test_serve_counts_bounded(self):
        rng = derive_rng(85)
        state = kpr_init(9, rng)
        for _ in range(50):
            fed_ranks = state.positions[state.fed]
            assert len(fed_ranks) == len(set(fed_ranks.tolist()))
            assert len(fed_ranks) == np.unique(state.positions).size
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
    """Every (day-0 fed, day-1 positions) pair the rules allow.

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
        fed = tuple(a in winners for a in range(n))
        losers = [a for a in range(n) if not fed[a]]
        for picks in itertools.product(empty, repeat=len(losers)):
            k = list(start)
            for agent, rank in zip(losers, picks):
                k[agent] = rank
            support.add((fed, tuple(r - 1 if r > 1 else n for r in k)))
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
                outcome = (tuple(day0.fed.tolist()), tuple(day1.positions.tolist()))
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
            assert state.fed.all()
            history.append(state.positions.copy())
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
            utilization = [np.count_nonzero(state.fed) / n]
            while not state.fed.all() and state.day < max_steps:
                state = kpr_step(state, stepped)
                utilization.append(np.count_nonzero(state.fed) / n)
            expected_day = state.day if state.fed.all() else None
            stopped_early |= expected_day is None
            assert result.convergence_day == expected_day
            assert np.array_equal(result.utilization, np.array(utilization))
            final = result.final_state
            assert final.day == state.day
            assert np.array_equal(final.positions, state.positions)
            assert np.array_equal(final.fed, state.fed)
            assert ours.random() == stepped.random()
        assert stopped_early or n < 16

    def test_inputs_are_checked_once_per_run(self, monkeypatch):
        calls = []
        rng = derive_rng(103)

        def counting(check):
            def counted(*args):
                calls.append(args[1])
                return check(*args)

            return counted

        monkeypatch.setattr(kpr, "integers", counting(kpr.integers))
        monkeypatch.setattr(_checks, "number", counting(_checks.number))
        result = kpr_run(64, 10**4, rng, positions=np.ones(64))
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
        assert np.array_equal(state.positions, expected.positions)
        assert np.array_equal(state.fed, expected.fed)
        result = kpr_run(5.0, 40.0, derive_rng(109), positions=[1.0, 1.0, 2.0, 3.0, 5.0])
        expected = kpr_run(5, 40, derive_rng(109), positions=[1, 1, 2, 3, 5])
        assert result.convergence_day == expected.convergence_day
        assert np.array_equal(result.final_state.positions, expected.final_state.positions)

    @pytest.mark.parametrize(
        "fed, message",
        [
            ([1, 1], "fed must have shape"),
            ([1, 1, 2], r"fed must contain only 0 \(unfed\) and 1 \(fed\), got 2"),
            ([1.0, 0.5, 1.0], "fed must contain only .* got 0.5"),
        ],
        ids=["shape", "integer", "float"],
    )
    def test_state_checks_fed(self, fed, message):
        with pytest.raises(ValueError, match=message):
            KPRState(3, [1, 2, 3], fed)
