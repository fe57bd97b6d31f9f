"""Crowd-dynamics engine tests.

Heavier distributional checks (efficiency ordering, post-reset scaling)
live in the acceptance suite; here the focus is the exact mechanics of a
step, the bookkeeping of runs, and statistical sanity of initialization,
contraction, and the random baseline.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from mgstrat.engine import (
    MODE_BASELINE,
    RESTAURANT_A,
    RESTAURANT_B,
    PopulationState,
    StrategyConfig,
    Trajectory,
    classify,
    derive_rng,
    init_population,
    run,
    step,
    will_reset,
)
from mgstrat.solver import solve_lambda


def state_with_attendance(n: int, attendance_a: int, **kwargs) -> PopulationState:
    choices = np.ones(n, dtype=np.int8)
    choices[:attendance_a] = RESTAURANT_A
    return PopulationState(choices, **kwargs)


class TestStrategyConfig:
    def test_even_population_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(n=2000)

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            StrategyConfig(n=5, epsilon=1.5)
        with pytest.raises(ValueError):
            StrategyConfig(n=5, epsilon=-0.1)

    def test_reset_probability_must_stay_in_unit_interval(self):
        with pytest.raises(ValueError):
            StrategyConfig(n=3, epsilon=1.0, reset_prefactor=2.0)

    def test_reset_probability_value(self):
        config = StrategyConfig(n=2001, epsilon=0.5)
        assert config.reset_probability == pytest.approx(0.5 * 1000 ** (-0.5))

    def test_single_agent_always_rerandomizes(self):
        assert StrategyConfig(n=1, epsilon=0.5).reset_probability == 1.0

    def test_switch_probability_uses_solved_rate(self):
        config = StrategyConfig(n=2001)
        expected = solve_lambda(3) / (1000 + 3 + 1)
        assert config.switch_probability(3) == pytest.approx(expected, rel=1e-12)

    def test_switch_probability_beyond_table_uses_asymptote(self):
        config = StrategyConfig(n=5, lambda_delta_max=2)
        # excess far past the table depth: the rate falls back to e + 1/6
        assert config.switch_probability(40) == pytest.approx(
            (40 + 1 / 6) / (2 + 40 + 1)
        )

    def test_exact_finite_crowd_mode(self):
        config = StrategyConfig(n=5, exact_finite_m=True)
        # n=5 has crowd parameter 2; imbalance 1 is the solvable cubic case
        assert config.switch_probability(1) == pytest.approx(0.3472963553, abs=1e-8)

    def test_bad_wait_and_mode(self):
        with pytest.raises(ValueError):
            StrategyConfig(n=5, wait_t=-1)
        with pytest.raises(ValueError):
            StrategyConfig(n=5, mode="chaotic")


class TestClassify:
    def test_all_in_majority_a(self):
        state = state_with_attendance(5, 5)
        assert classify(state) == (RESTAURANT_A, 2, -3)

    def test_marginal_b_majority(self):
        state = state_with_attendance(5, 2)
        assert classify(state) == (RESTAURANT_B, 0, 0)

    def test_marginal_a_majority(self):
        state = state_with_attendance(5, 3)
        assert classify(state) == (RESTAURANT_A, 0, -1)

    @given(
        m=st.integers(min_value=0, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_classification_consistency(self, m, data):
        n = 2 * m + 1
        attendance = data.draw(st.integers(min_value=0, max_value=n))
        state = state_with_attendance(n, attendance)
        majority, excess, delta = classify(state)
        assert delta == m - attendance
        assert -(m + 1) <= delta <= m
        assert excess >= 0
        majority_count = attendance if majority == RESTAURANT_A else n - attendance
        assert majority_count == m + excess + 1
        assert (excess == 0) == (abs(attendance - (n - attendance)) == 1)


class TestInitPopulation:
    def test_degenerate_single_agent(self):
        config = StrategyConfig(n=1)
        state = init_population(config, derive_rng(0))
        assert classify(state)[1] == 0

    def test_mean_attendance(self):
        config = StrategyConfig(n=2001)
        values = np.array(
            [
                init_population(config, derive_rng(3, i)).attendance_a
                for i in range(10**4)
            ],
            dtype=np.float64,
        )
        stderr = math.sqrt(2001 * 0.25 / 10**4)
        assert abs(values.mean() - 1000.5) < 4 * stderr

    def test_attendance_spread_scales_as_root_n(self):
        config = StrategyConfig(n=2001)
        values = np.array(
            [
                init_population(config, derive_rng(4, i)).attendance_a
                for i in range(4000)
            ],
            dtype=np.float64,
        )
        assert values.std() == pytest.approx(math.sqrt(2001) / 2, rel=0.10)


class TestStep:
    def test_minority_agents_never_flip(self):
        config = StrategyConfig(n=2001, seed=5)
        state = state_with_attendance(2001, 997)  # imbalance 3, majority B
        for trial in range(50):
            after = step(state, config, derive_rng(10, trial))
            minority = state.choices == RESTAURANT_A
            assert np.array_equal(state.choices[minority], after.choices[minority])

    def test_flips_only_majority_to_minority(self):
        config = StrategyConfig(n=101)
        state = state_with_attendance(101, 30)  # majority B
        after = step(state, config, derive_rng(11))
        changed = np.flatnonzero(state.choices != after.choices)
        assert (state.choices[changed] == RESTAURANT_B).all()
        assert (after.choices[changed] == RESTAURANT_A).all()

    def test_expected_switcher_count(self):
        # imbalance 3 in a 2001-agent crowd: 1004 movers at rate
        # solve_lambda(3)/1004, so about 3.159 expected switchers.
        config = StrategyConfig(n=2001)
        state = state_with_attendance(2001, 997)
        rng = derive_rng(12)
        trials = 10**4
        total = 0
        for _ in range(trials):
            after = step(state, config, rng)
            total += int((after.choices != state.choices).sum())
        mean = total / trials
        stderr = math.sqrt(solve_lambda(3) / trials)
        assert abs(mean - 3.159) < 4 * stderr + 1e-3

    def test_wait_two_days_then_reset(self):
        config = StrategyConfig(n=5, wait_t=2, seed=0)
        state = state_with_attendance(5, 2)  # marginal
        rng = derive_rng(13)
        assert not will_reset(state, config)
        day1 = step(state, config, rng)
        assert np.array_equal(day1.choices, state.choices)
        assert day1.wait_counter == 1
        assert not will_reset(day1, config)
        day2 = step(day1, config, rng)
        assert np.array_equal(day2.choices, state.choices)
        assert day2.wait_counter == 2
        assert will_reset(day2, config)
        day3 = step(day2, config, rng)
        assert day3.wait_counter == 0

    def test_imbalanced_day_clears_wait_counter(self):
        config = StrategyConfig(n=5, wait_t=3)
        state = state_with_attendance(5, 1, wait_counter=2)  # excess 1
        after = step(state, config, derive_rng(14))
        assert after.wait_counter == 0

    def test_reset_flips_with_configured_probability(self):
        config = StrategyConfig(n=2001, epsilon=0.5, wait_t=0)
        state = state_with_attendance(2001, 1000)  # marginal
        rng = derive_rng(15)
        flips = []
        for _ in range(2000):
            after = step(state, config, rng)
            flips.append(int((after.choices != state.choices).sum()))
        expected = 2001 * config.reset_probability
        stderr = math.sqrt(2001 * config.reset_probability / 2000)
        assert abs(np.mean(flips) - expected) < 4 * stderr

    def test_baseline_redraws_everything(self):
        config = StrategyConfig(n=1001, mode=MODE_BASELINE)
        state = state_with_attendance(1001, 0)
        after = step(state, config, derive_rng(16))
        assert after.day == state.day + 1
        assert after.wait_counter == 0
        # a uniform redraw from all-B start moves about half the agents
        assert 400 < int((after.choices != state.choices).sum()) < 600

    def test_determinism(self):
        config = StrategyConfig(n=201)
        state = state_with_attendance(201, 80)
        one = step(state, config, derive_rng(17))
        two = step(state, config, derive_rng(17))
        assert np.array_equal(one.choices, two.choices)

    def test_contraction_band_single_step(self):
        # From excess e0 the next-day excess concentrates near sqrt(e0).
        config = StrategyConfig(n=2001)
        for e0 in (25, 100):
            state = state_with_attendance(2001, 1000 - e0)  # delta = e0
            rng = derive_rng(18, e0)
            total = 0.0
            for _ in range(10**4):
                after = step(state, config, rng)
                total += classify(after)[1]
            mean_excess = total / 10**4
            assert 0.5 * math.sqrt(e0) <= mean_excess <= 2.0 * math.sqrt(e0)


class TestRun:
    def test_determinism_full_trajectory(self):
        config = StrategyConfig(n=201, epsilon=0.5, seed=77)
        a = run(config, 500, record_choices=True)
        b = run(config, 500, record_choices=True)
        assert np.array_equal(a.deltas, b.deltas)
        assert a.reset_days == b.reset_days
        assert np.array_equal(a.choice_matrix, b.choice_matrix)

    def test_lengths_and_side_consistency(self):
        config = StrategyConfig(n=201, seed=3)
        trajectory = run(config, 300)
        assert trajectory.days == 301
        assert trajectory.deltas.shape == (301,)
        expected_side = np.where(trajectory.deltas >= 0, 1, -1)
        assert np.array_equal(trajectory.minority_side, expected_side)
        assert trajectory.choice_matrix is None

    def test_reset_days_are_marginal_days(self):
        config = StrategyConfig(n=201, seed=9)
        trajectory = run(config, 400)
        excess = trajectory.excess()
        assert len(trajectory.reset_days) > 0
        for day in trajectory.reset_days:
            assert excess[day] == 0
        # with wait 0, every marginal day except possibly the last is a reset day
        marginal = set(np.flatnonzero(excess[:-1] == 0).tolist())
        assert marginal == set(trajectory.reset_days)

    def test_wait_t_delays_resets(self):
        config = StrategyConfig(n=201, seed=9, wait_t=5)
        trajectory = run(config, 400)
        excess = trajectory.excess()
        for day in trajectory.reset_days:
            # the five preceding days must also have been marginal
            assert (excess[day - 5 : day + 1] == 0).all()

    def test_relabeling_mirror_symmetry_is_exact(self):
        # Complementing every initial choice relabels the restaurants, so
        # with the same random stream the imbalance must satisfy
        # delta'(t) = -delta(t) - 1 for every t.
        config = StrategyConfig(n=201, epsilon=0.4, seed=21)
        rng_choices = derive_rng(100)
        start = rng_choices.integers(0, 2, size=201, dtype=np.int8)
        a = run(config, 400, rng=derive_rng(101), initial_choices=start)
        b = run(config, 400, rng=derive_rng(101), initial_choices=1 - start)
        assert np.array_equal(b.deltas, -a.deltas - 1)

    def test_choice_matrix_consistent_with_deltas(self):
        config = StrategyConfig(n=101, seed=5)
        trajectory = run(config, 200, record_choices=True)
        attendance = (trajectory.choice_matrix == RESTAURANT_A).sum(axis=1)
        assert np.array_equal(50 - attendance, trajectory.deltas)

    def test_win_stay_across_whole_run(self):
        config = StrategyConfig(n=101, seed=6)
        trajectory = run(config, 300, record_choices=True)
        excess = trajectory.excess()
        matrix = trajectory.choice_matrix
        for t in range(300):
            if excess[t] >= 1:
                minority_value = (
                    RESTAURANT_A if trajectory.deltas[t] >= 0 else RESTAURANT_B
                )
                mask = matrix[t] == minority_value
                assert np.array_equal(matrix[t][mask], matrix[t + 1][mask])

    def test_single_agent_population(self):
        trajectory = run(StrategyConfig(n=1, seed=2), 50)
        assert (trajectory.excess() == 0).all()
        assert set(np.unique(trajectory.deltas)) <= {-1, 0}

    def test_recovery_from_typical_post_reset_offset(self):
        # From imbalance 22 (the typical size after a reset at this scale)
        # the marginal state should be back within 8 days essentially always.
        config = StrategyConfig(n=2001, epsilon=0.5)
        start = np.ones(2001, dtype=np.int8)
        start[: 1000 - 22] = RESTAURANT_A  # attendance 978, delta 22
        hits = 0
        trials = 1000
        for i in range(trials):
            trajectory = run(
                config, 10, rng=derive_rng(200, i), initial_choices=start
            )
            back = np.flatnonzero(trajectory.excess()[1:] == 0)
            if back.size and back[0] + 1 <= 8:
                hits += 1
        assert hits / trials >= 0.99

    def test_baseline_attendance_matches_fair_binomial(self):
        config = StrategyConfig(n=2001, mode=MODE_BASELINE, seed=31)
        trajectory = run(config, 10**5)
        attendance = 1000 - trajectory.deltas
        # bin the tails so every expected count is at least ~5
        lo, hi = 930, 1071
        edges = [-0.5] + [k + 0.5 for k in range(lo, hi)] + [2001.5]
        observed, _ = np.histogram(attendance, bins=edges)
        pmf = sps.binom.pmf(np.arange(2002), 2001, 0.5)
        # first bin spans [-0.5, lo + 0.5) = counts 0..lo, middle bins are the
        # single counts lo+1..hi-1, last bin spans counts >= hi
        expected = np.empty(len(observed))
        expected[0] = pmf[: lo + 1].sum()
        expected[1:-1] = pmf[lo + 1 : hi]
        expected[-1] = pmf[hi:].sum()
        expected *= len(attendance) / expected.sum()
        chi2 = sps.chisquare(observed, expected)
        assert chi2.pvalue > 1e-3

    def test_initial_choices_length_checked(self):
        with pytest.raises(ValueError):
            run(StrategyConfig(n=5), 3, initial_choices=[0, 1, 0])

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            run(StrategyConfig(n=5), 0)


class TestPopulationState:
    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            PopulationState(np.zeros(4, dtype=np.int8))

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            PopulationState(np.array([0, 1, 2], dtype=np.int8))

    def test_attendance_computed(self):
        state = PopulationState(np.array([0, 0, 1], dtype=np.int8))
        assert state.attendance_a == 2


class TestDeriveRng:
    def test_same_key_same_stream(self):
        assert derive_rng(5, 1, 2).integers(0, 10**9) == derive_rng(5, 1, 2).integers(
            0, 10**9
        )

    def test_different_keys_differ(self):
        draws = {derive_rng(5, i).integers(0, 10**9) for i in range(32)}
        assert len(draws) == 32


class TestTrajectory:
    def test_excess_definition(self):
        trajectory = Trajectory(
            n=5,
            deltas=np.array([2, 0, -1, -3]),
            minority_side=np.array([1, 1, -1, -1], dtype=np.int8),
            reset_days=[],
        )
        assert np.array_equal(trajectory.excess(), np.array([2, 0, 0, 2]))
