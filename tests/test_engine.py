"""Crowd-dynamics engine tests.

Heavier distributional checks (efficiency ordering, post-reset scaling)
live in the acceptance suite; here the focus is the exact one-day law of
the head counts, the mechanics of a day as seen in the choice record, the
bookkeeping of runs, and statistical sanity of initialization,
contraction, and the random baseline.  Every test drives the public
``run``; a one-day run from pinned ``initial_choices`` is one transition.
"""

import dataclasses
import math
import tracemalloc
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from mgstrat.dist import poisson_cdf
from mgstrat.engine import (
    MAX_RECORD_BYTES,
    MODE_BASELINE,
    MODE_STRATEGY,
    RESTAURANT_A,
    RESTAURANT_B,
    StrategyConfig,
    Trajectory,
    check_record_size,
    derive_rng,
    run,
    switch_probabilities,
)
from mgstrat.kpr import kpr_run
from mgstrat.solver import ASYMPTOTIC_GAP, default_delta_max, solve_lambda, solve_p_finite
from mgstrat.stats import c_autocorrelation, inefficiency_eta


def start_with_attendance(n: int, attendance_a: int) -> np.ndarray:
    choices = np.ones(n, dtype=np.int8)
    choices[:attendance_a] = RESTAURANT_A
    return choices


def one_day(config: StrategyConfig, start, rng=None, record=False) -> Trajectory:
    return run(config, 1, record_choices=record, rng=rng, initial_choices=start)


def one_day_law(config: StrategyConfig, attendance: int) -> np.ndarray:
    """Analytic distribution of tomorrow's attendance at A, by head count.

    The crowd's movers are Binomial(crowd, switch probability); a reset
    night moves Binomial(side, q) agents off each side; a baseline day
    leaves every agent on a fair coin, whatever the start.
    """
    n, m = config.n, config.m
    law = np.zeros(n + 1)
    if config.mode == MODE_BASELINE:
        return sps.binom.pmf(np.arange(n + 1), n, 0.5)
    delta = m - attendance
    excess = delta if delta >= 0 else -delta - 1
    crowd = m + excess + 1
    toward = 1 if delta >= 0 else -1  # a crowd mover's step in attendance
    k = np.arange(crowd + 1)
    if excess >= 1:
        pmf = sps.binom.pmf(k, crowd, switch_probabilities(n)[excess])
        np.add.at(law, attendance + toward * k, pmf)
    elif config.wait_t > 0:
        law[attendance] = 1.0
    else:
        q = config.reset_probability
        thin = np.arange(n - crowd + 1)
        joint = np.outer(sps.binom.pmf(thin, n - crowd, q), sps.binom.pmf(k, crowd, q))
        np.add.at(law, attendance + toward * (k[None, :] - thin[:, None]), joint)
    return law


def replay_resets(excess: np.ndarray, wait_t: int) -> list[int]:
    """Reset days implied by the wait rule, replayed from the excess series."""
    resets, wait = [], 0
    for t, e in enumerate(excess[:-1]):
        if e >= 1:
            wait = 0
        elif wait >= wait_t:
            resets.append(t)
            wait = 0
        else:
            wait += 1
    return resets


# The three chains the exact-law tests cover, by test id.
KINDS = {
    "strategy-T0": {"wait_t": 0},
    "strategy-T3": {"wait_t": 3},
    "baseline": {"mode": MODE_BASELINE},
}


def exact_chain(config: StrategyConfig) -> tuple[list[tuple[int, int]], np.ndarray]:
    """States (signed imbalance, wait) of the head-count chain, and its transitions.

    The wait counts the marginal days since the last reset or imbalanced
    day, so it is 0 on every imbalanced day; the baseline has none.  Each
    row is ``one_day_law`` from that state's attendance, with a reset
    when the wait is up.
    """
    m = config.m
    wait_t = config.wait_t if config.mode == MODE_STRATEGY else 0
    states = [
        (delta, wait)
        for delta in range(-(m + 1), m + 1)
        for wait in range(wait_t + 1 if delta in (0, -1) else 1)
    ]
    index = {state: i for i, state in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for (delta, wait), i in index.items():
        waits = delta in (0, -1) and wait < wait_t
        law = one_day_law(config if waits else dataclasses.replace(config, wait_t=0), m - delta)
        for attendance in np.flatnonzero(law):
            matrix[i, index[m - attendance, wait + 1 if waits else 0]] += law[attendance]
    return states, matrix


def assert_law(freq: np.ndarray, law: np.ndarray, trials: int, context) -> None:
    """Nothing outside the law's support, and every cell within 5 sigma + 3 / trials."""
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert (freq[law == 0] == 0).all(), (context, freq, law)
    sigma = np.sqrt(law * (1 - law) / trials)
    assert (np.abs(freq - law) <= 5 * sigma + 3 / trials).all(), (context, freq, law)


SIX_DAY_TRIALS = 2000


@lru_cache(maxsize=None)
def six_day_runs(n: int, kind: str) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stacked (deltas, reset, thin_movers) of six-day runs from each pinned start."""
    config = StrategyConfig(n=n, epsilon=0.7, **KINDS[kind])
    stacks = []
    for attendance in range(n + 1):
        start = start_with_attendance(n, attendance)
        rng = derive_rng(20, n, attendance, list(KINDS).index(kind))
        runs = [run(config, 6, rng=rng, initial_choices=start) for _ in range(SIX_DAY_TRIALS)]
        stacks.append(tuple(
            np.array([getattr(r, name) for r in runs])
            for name in ("deltas", "reset", "thin_movers")
        ))
    return stacks


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
        expected = solve_lambda(3) / (1000 + 3 + 1)
        assert switch_probabilities(2001)[3] == pytest.approx(expected, rel=1e-12)

    def test_switch_probability_beyond_table_uses_asymptote(self):
        # n = 201 has m = 100 and default depth 53, so a run can reach
        # excess 80, where the rate falls back to e + 1/6
        assert switch_probabilities(201)[80] == pytest.approx(
            (80 + ASYMPTOTIC_GAP) / (100 + 80 + 1)
        )

    @pytest.mark.parametrize("n", [5, 201, 200_001])
    def test_switch_probabilities_match_the_scalar_rate(self, n):
        # Table depths are 17, 53 and 1352, so n = 201 and 200 001 cover
        # excesses both inside and past the depth; n = 5 has m = 2 < 17.
        m, depth = (n - 1) // 2, default_delta_max(n)
        table = switch_probabilities(n)
        assert table.dtype == np.float64 and table.shape == (m + 1,)
        assert not table.flags.writeable
        assert table[0] == 0.0
        expected = [
            (solve_lambda(e) if e <= depth else e + ASYMPTOTIC_GAP) / (m + e + 1)
            for e in range(1, m + 1)
        ]
        assert table[1:].tolist() == expected
        assert switch_probabilities(n) is table

    def test_bad_wait_and_mode(self):
        with pytest.raises(ValueError):
            StrategyConfig(n=5, wait_t=-1)
        with pytest.raises(ValueError):
            StrategyConfig(n=5, mode="chaotic")


class TestClassify:
    """Day 0 of a run classifies the pinned start: imbalance, excess, side."""

    @staticmethod
    def day_zero(n, attendance):
        trajectory = one_day(StrategyConfig(n=n), start_with_attendance(n, attendance))
        return trajectory.deltas[0], trajectory.excess()[0], trajectory.minority_side[0]

    def test_all_in_majority_a(self):
        assert self.day_zero(5, 5) == (-3, 2, -1)

    def test_marginal_b_majority(self):
        assert self.day_zero(5, 2) == (0, 0, 1)

    def test_marginal_a_majority(self):
        assert self.day_zero(5, 3) == (-1, 0, -1)

    @given(
        m=st.integers(min_value=0, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_classification_consistency(self, m, data):
        n = 2 * m + 1
        attendance = data.draw(st.integers(min_value=0, max_value=n))
        delta, excess, minority = self.day_zero(n, attendance)
        assert delta == m - attendance
        assert -(m + 1) <= delta <= m
        assert excess >= 0
        majority_count = n - attendance if minority == 1 else attendance
        assert majority_count == m + excess + 1
        assert (excess == 0) == (abs(attendance - (n - attendance)) == 1)


class TestInitPopulation:
    """Without pinned choices, day 0 is a uniform draw for every agent."""

    def test_degenerate_single_agent(self):
        trajectory = run(StrategyConfig(n=1), 1, rng=derive_rng(0))
        assert trajectory.excess()[0] == 0

    def test_mean_attendance(self):
        config = StrategyConfig(n=2001)
        values = np.array(
            [1000 - run(config, 1, rng=derive_rng(3, i)).deltas[0] for i in range(10**4)],
            dtype=np.float64,
        )
        stderr = math.sqrt(2001 * 0.25 / 10**4)
        assert abs(values.mean() - 1000.5) < 4 * stderr

    def test_attendance_spread_scales_as_root_n(self):
        config = StrategyConfig(n=2001)
        values = np.array(
            [1000 - run(config, 1, rng=derive_rng(4, i)).deltas[0] for i in range(4000)],
            dtype=np.float64,
        )
        assert values.std() == pytest.approx(math.sqrt(2001) / 2, rel=0.10)


class TestStep:
    """One day of a run from a pinned start, read off the choice record."""

    def test_minority_agents_never_flip(self):
        config = StrategyConfig(n=2001, seed=5)
        start = start_with_attendance(2001, 997)  # imbalance 3, majority B
        minority = start == RESTAURANT_A
        for trial in range(50):
            matrix = one_day(config, start, derive_rng(10, trial), record=True).choice_matrix
            assert np.array_equal(matrix[0], start)
            assert np.array_equal(matrix[1][minority], start[minority])

    def test_flips_only_majority_to_minority(self):
        config = StrategyConfig(n=101)
        start = start_with_attendance(101, 30)  # majority B
        after = one_day(config, start, derive_rng(11), record=True).choice_matrix[1]
        changed = np.flatnonzero(start != after)
        assert changed.size > 0
        assert (start[changed] == RESTAURANT_B).all()
        assert (after[changed] == RESTAURANT_A).all()

    def test_expected_switcher_count(self):
        # imbalance 3 in a 2001-agent crowd: 1004 movers at rate
        # solve_lambda(3)/1004, so about 3.159 expected switchers.
        config = StrategyConfig(n=2001)
        start = start_with_attendance(2001, 997)
        rng = derive_rng(12)
        trials = 10**4
        total = 0
        for _ in range(trials):
            deltas = one_day(config, start, rng).deltas
            total += int(deltas[0] - deltas[1])
        mean = total / trials
        stderr = math.sqrt(solve_lambda(3) / trials)
        assert abs(mean - 3.159) < 4 * stderr + 1e-3

    def test_wait_two_days_then_reset(self):
        config = StrategyConfig(n=5, wait_t=2, seed=0)
        start = start_with_attendance(5, 2)  # marginal
        trajectory = run(config, 3, record_choices=True, rng=derive_rng(13),
                         initial_choices=start)
        matrix = trajectory.choice_matrix
        assert np.array_equal(matrix[1], start)
        assert np.array_equal(matrix[2], start)
        assert trajectory.reset_days == [2]
        # the counter restarts after each reset: two marginal days in between
        long = run(config, 2000, rng=derive_rng(13), initial_choices=start)
        assert (np.diff(long.reset_days) >= 3).all()

    def test_imbalanced_day_clears_wait_counter(self):
        config = StrategyConfig(n=5, wait_t=3)
        start = start_with_attendance(5, 1)  # excess 1
        imbalanced_then_marginal = 0
        for trial in range(20):
            trajectory = run(config, 500, rng=derive_rng(14, trial), initial_choices=start)
            excess = trajectory.excess()
            assert trajectory.reset_days == replay_resets(excess, 3)
            imbalanced_then_marginal += int(((excess[:-1] >= 1) & (excess[1:] == 0)).sum())
        assert imbalanced_then_marginal > 100

    def test_reset_flips_with_configured_probability(self):
        config = StrategyConfig(n=2001, epsilon=0.5, wait_t=0)
        start = start_with_attendance(2001, 1000)  # marginal
        rng = derive_rng(15)
        flips = []
        for _ in range(2000):
            after = one_day(config, start, rng, record=True).choice_matrix[1]
            flips.append(int((after != start).sum()))
        expected = 2001 * config.reset_probability
        stderr = math.sqrt(2001 * config.reset_probability / 2000)
        assert abs(np.mean(flips) - expected) < 4 * stderr

    def test_baseline_redraws_everything(self):
        config = StrategyConfig(n=1001, mode=MODE_BASELINE)
        start = start_with_attendance(1001, 0)
        trajectory = one_day(config, start, derive_rng(16), record=True)
        assert trajectory.reset_days == []
        # a uniform redraw from all-B start moves about half the agents
        assert 400 < int((trajectory.choice_matrix[1] != start).sum()) < 600

    def test_determinism(self):
        config = StrategyConfig(n=201)
        start = start_with_attendance(201, 80)
        one = one_day(config, start, derive_rng(17), record=True)
        two = one_day(config, start, derive_rng(17), record=True)
        assert np.array_equal(one.deltas, two.deltas)
        assert np.array_equal(one.choice_matrix, two.choice_matrix)

    def test_contraction_band_single_step(self):
        # From excess e0 the next-day excess concentrates near sqrt(e0).
        config = StrategyConfig(n=2001)
        for e0 in (25, 100):
            start = start_with_attendance(2001, 1000 - e0)  # delta = e0
            rng = derive_rng(18, e0)
            total = 0.0
            for _ in range(10**4):
                total += one_day(config, start, rng).excess()[1]
            mean_excess = total / 10**4
            assert 0.5 * math.sqrt(e0) <= mean_excess <= 2.0 * math.sqrt(e0)


class TestChoiceRecordLaw:
    """Who moves: a uniform subset of its side."""

    TRIALS = 2000

    @pytest.mark.parametrize("attendance", [1, 2], ids=["imbalanced", "reset"])
    def test_moved_set_is_uniform_over_the_subsets_of_its_side(self, attendance):
        # From a pinned start the agents' positions are fixed, so any bias by
        # position shows.  At epsilon 1 a reset night moves each agent with
        # probability 1/2, so both sides move.
        config = StrategyConfig(n=5, epsilon=1.0)
        start = start_with_attendance(5, attendance)
        rng = derive_rng(300, attendance)
        seen = defaultdict(Counter)
        for _ in range(self.TRIALS):
            after = one_day(config, start, rng, record=True).choice_matrix[1]
            for side in (RESTAURANT_A, RESTAURANT_B):
                moved = np.flatnonzero((start == side) & (after != side)).tolist()
                seen[side, len(moved)][frozenset(moved)] += 1
        tested = 0
        for (side, k), counts in seen.items():
            members = np.flatnonzero(start == side).tolist()
            subsets = [frozenset(c) for c in combinations(members, k)]
            assert set(counts) <= set(subsets)
            total = sum(counts.values())
            p = 1 / len(subsets)
            sigma = math.sqrt(p * (1 - p) / total)
            for subset in subsets:
                assert abs(counts[subset] / total - p) <= 5 * sigma + 3 / total, (
                    side, k, counts,
                )
            tested += total if len(subsets) > 1 else 0
        assert tested > self.TRIALS // 2

    @pytest.mark.parametrize("mode", [MODE_STRATEGY, MODE_BASELINE])
    @pytest.mark.parametrize(
        "n, steps", [(5, (500, 4_000)), (2001, (2_000,))], ids=["n5", "n2001"]
    )
    def test_recorded_run_holds_the_guarded_bytes_plus_a_fixed_block(self, mode, n, steps):
        # The record is built one night at a time, so whatever else a run
        # allocates stays below a bound that does not grow with its length.
        config = StrategyConfig(n=n, seed=8, mode=mode)
        run(config, 1)  # the rate table is built outside the measurement
        excess = []
        for days in steps:
            tracemalloc.start()
            try:
                run(config, days, record_choices=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            excess.append(peak - (days + 1) * (13 + n))
        assert max(excess) <= 2**22, excess
        # at n = 5 the record is small, so growth would show
        assert excess[-1] <= excess[0] + 2**18, excess

    @pytest.mark.parametrize("mode", [MODE_STRATEGY, MODE_BASELINE])
    @pytest.mark.parametrize("n", [5, 2001])
    def test_unrecorded_run_holds_the_guarded_bytes_plus_a_fixed_block(self, mode, n):
        # Cycles are drawn a block at a time, so beyond the 13 bytes a day
        # the guard counts, a run's temporaries do not grow with its length.
        config = StrategyConfig(n=n, seed=9, mode=mode)
        run(config, 1)  # the rate table is built outside the measurement
        excess = []
        for days in (10**5, 10**6):
            tracemalloc.start()
            try:
                run(config, days)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            excess.append(peak - (days + 1) * 13)
        assert max(excess) <= 2**22, excess
        assert excess[-1] <= excess[0] + 2**18, excess


class TestOneDayLaw:
    """Tomorrow's attendance follows the analytic binomial law exactly."""

    TRIALS = 2000

    @pytest.mark.parametrize("n", [5, 7, 9])
    @pytest.mark.parametrize(
        "kind", [{"wait_t": 0}, {"wait_t": 3}, {"mode": MODE_BASELINE}],
        ids=["strategy-T0", "strategy-T3", "baseline"],
    )
    def test_frequencies_match_binomial_law(self, n, kind):
        config = StrategyConfig(n=n, epsilon=0.7, **kind)
        for attendance in range(n + 1):
            start = start_with_attendance(n, attendance)
            rng = derive_rng(19, n, attendance)
            after = [
                config.m - one_day(config, start, rng).deltas[1]
                for _ in range(self.TRIALS)
            ]
            freq = np.bincount(after, minlength=n + 1) / self.TRIALS
            law = one_day_law(config, attendance)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            # nothing outside the law's support, and every cell within 5 sigma
            assert (freq[law == 0] == 0).all(), (attendance, freq, law)
            sigma = np.sqrt(law * (1 - law) / self.TRIALS)
            assert (np.abs(freq - law) <= 5 * sigma + 3 / self.TRIALS).all(), (
                attendance, freq, law,
            )

    @pytest.mark.parametrize("n", [5, 7, 9])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_thin_movers_follow_their_law(self, n, kind):
        # Night 0's thin-side movers are Binomial(m, q) on a reset night,
        # Binomial(m - e, 1/2) on a baseline night and 0 on an imbalanced or
        # waiting day, independent of the crowd's movers, which the head
        # counts then give.  Read off the six-day runs.
        config = StrategyConfig(n=n, epsilon=0.7, **KINDS[kind])
        m = config.m
        for attendance, (deltas, _, thin) in enumerate(six_day_runs(n, kind)):
            delta = m - attendance
            excess = delta if delta >= 0 else -delta - 1
            sides = m - excess, m + excess + 1  # thin side, crowd
            if config.mode == MODE_BASELINE:
                rates = 0.5, 0.5
            elif excess == 0:
                rates = (config.reset_probability,) * 2 if config.wait_t == 0 else (0.0, 0.0)
            else:
                rates = 0.0, switch_probabilities(n)[excess]
            law = np.outer(*(
                sps.binom.pmf(np.arange(size + 1), size, rate) for size, rate in zip(sides, rates)
            ))
            # Tomorrow's head count at today's thin side, then the crowd's movers.
            heads = m - deltas[:, 1] if delta >= 0 else m + 1 + deltas[:, 1]
            crowd = heads - sides[0] + thin[:, 0]
            freq = np.bincount(
                thin[:, 0] * (sides[1] + 1) + crowd, minlength=law.size
            ) / SIX_DAY_TRIALS
            assert_law(freq, law.ravel(), SIX_DAY_TRIALS, attendance)


class TestMultiDayLaw:
    """Runs follow the exact chain over many days: cycles, sides, waits, truncation."""

    @pytest.mark.parametrize("n", [5, 7, 9])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_six_day_law_matches_the_exact_chain(self, n, kind):
        config = StrategyConfig(n=n, epsilon=0.7, **KINDS[kind])
        m, wait_t = config.m, config.wait_t
        states, matrix = exact_chain(config)
        lookup = np.full((n + 1, wait_t + 1), -1)
        for i, (delta, wait) in enumerate(states):
            lookup[delta + m + 1, wait] = i
        for attendance, (deltas, reset, _) in enumerate(six_day_runs(n, kind)):
            # Replay each run's wait from its excess path, as the chain keeps it.
            excess = np.where(deltas >= 0, deltas, -deltas - 1)
            waits = np.zeros_like(deltas)
            for t in range(6):
                waiting = (excess[:, t] == 0) & (waits[:, t] < wait_t)
                waits[:, t + 1] = np.where(waiting, waits[:, t] + 1, 0)
            if config.mode == MODE_STRATEGY:
                due = (excess == 0) & (waits == wait_t)
                due[:, 6] = False
                assert np.array_equal(reset, due), attendance
            else:
                assert not reset.any()
            observed = lookup[deltas + m + 1, waits]
            law = np.zeros(len(states))
            law[lookup[m - attendance + m + 1, 0]] = 1.0
            for t in range(1, 7):
                law = law @ matrix
                freq = np.bincount(observed[:, t], minlength=len(states)) / SIX_DAY_TRIALS
                assert_law(freq, law, SIX_DAY_TRIALS, (attendance, t))

    @pytest.mark.parametrize(
        "n, epsilon, expected", [(21, 0.5, 0.418786), (51, 0.3, 0.170027)]
    )
    def test_eta_matches_the_stationary_chain(self, n, epsilon, expected):
        config = StrategyConfig(n=n, epsilon=epsilon)
        states, matrix = exact_chain(config)
        size = len(states)
        # The stationary law: pi (P - I) = 0 with its entries adding to 1.
        pi = np.linalg.lstsq(
            np.vstack([matrix.T - np.eye(size), np.ones(size)]),
            np.r_[np.zeros(size), 1.0],
            rcond=None,
        )[0]
        exact = 4 / n * sum(p * (delta + 0.5) ** 2 for (delta, _), p in zip(states, pi))
        assert exact == pytest.approx(expected, abs=1e-6)
        etas = [
            inefficiency_eta(run(config, 200_000, rng=derive_rng(21, n, seed)))
            for seed in range(20)
        ]
        stderr = np.std(etas, ddof=1) / math.sqrt(len(etas))
        assert abs(np.mean(etas) - exact) <= 4 * stderr, (np.mean(etas), exact, stderr)


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

    def test_relabeling_mirrors_the_choice_record(self):
        config = StrategyConfig(n=101, epsilon=0.6, wait_t=1)
        start = derive_rng(102).integers(0, 2, size=101, dtype=np.int8)
        a = run(config, 300, record_choices=True, rng=derive_rng(103),
                initial_choices=start)
        b = run(config, 300, record_choices=True, rng=derive_rng(103),
                initial_choices=1 - start)
        assert np.array_equal(b.choice_matrix, 1 - a.choice_matrix)
        assert b.reset_days == a.reset_days

    @pytest.mark.parametrize(
        "kind", [{}, {"mode": MODE_BASELINE}, {"wait_t": 4}],
        ids=["strategy", "baseline", "wait"],
    )
    def test_recording_choices_never_changes_the_imbalance_path(self, kind):
        config = StrategyConfig(n=201, epsilon=0.5, **kind)
        start = derive_rng(104).integers(0, 2, size=201, dtype=np.int8)
        for pinned in (None, start):
            plain = run(config, 2000, rng=derive_rng(105), initial_choices=pinned)
            recorded = run(config, 2000, record_choices=True, rng=derive_rng(105),
                           initial_choices=pinned)
            assert np.array_equal(plain.deltas, recorded.deltas)
            assert plain.reset_days == recorded.reset_days
            assert recorded.choice_matrix.dtype == np.int8

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_night_moves_agents_its_sides_hold(self, kind):
        # A run of 10**6 days spans hundreds of blocks of cycles (or days),
        # so a cycle laid in the wrong frame would show here: each night the
        # thin side's movers number 0..m - e, and the crowd's, which the
        # head counts then give, 0..m + e + 1; only a reset night (every
        # baseline night) moves the thin side, and the last day has none.
        config = StrategyConfig(n=5, epsilon=0.7, **KINDS[kind])
        trajectory = run(config, 10**6, rng=derive_rng(22, list(KINDS).index(kind)))
        m, deltas, thin = config.m, trajectory.deltas, trajectory.thin_movers
        excess = trajectory.excess()[:-1]
        net = np.where(deltas[:-1] >= 0, deltas[:-1] - deltas[1:], deltas[1:] - deltas[:-1])
        assert ((thin[:-1] >= 0) & (thin[:-1] <= m - excess)).all()
        assert ((thin[:-1] + net >= 0) & (thin[:-1] + net <= m + excess + 1)).all()
        if config.mode == MODE_STRATEGY:
            assert not thin[~trajectory.reset].any()
        assert thin[-1] == 0

    def test_record_size_guard_boundary(self):
        per_day = 13 + 2001
        fits = MAX_RECORD_BYTES // per_day - 1
        check_record_size(2001, fits, True)
        with pytest.raises(ValueError, match="^steps"):
            check_record_size(2001, fits + 1, True)
        check_record_size(2001, MAX_RECORD_BYTES // 13 - 1, False)
        with pytest.raises(ValueError, match="^steps"):
            check_record_size(2001, MAX_RECORD_BYTES // 13, False)

    def test_oversized_run_refused_before_allocating(self):
        # far beyond any address space: only the guard can answer this
        with pytest.raises(ValueError, match="GiB record"):
            run(StrategyConfig(n=3), 10**14)
        with pytest.raises(ValueError, match="with recorded choices"):
            run(StrategyConfig(n=10**9 + 1), 10**6, record_choices=True)

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
    """``initial_choices`` is checked and counted before day 0."""

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            run(StrategyConfig(n=5), 1, initial_choices=np.zeros(4, dtype=np.int8))

    def test_rejects_non_binary_entries(self):
        for bad in ([0, 1, 2], [0, 1, -1], [0, 1, 0.5]):
            with pytest.raises(ValueError, match="only 0"):
                run(StrategyConfig(n=3), 1, initial_choices=bad)

    def test_attendance_computed(self):
        trajectory = run(StrategyConfig(n=3), 1, initial_choices=[0, 0, 1])
        assert trajectory.deltas[0] == 1 - 2


# (call, the argument its ValueError must name, or the call's result)
INTEGER_ARGUMENTS = {
    "config-n-inf": (lambda: StrategyConfig(n=math.inf), "n"),
    "config-wait-inf": (lambda: StrategyConfig(n=5, wait_t=math.inf), "wait_t"),
    "run-steps-inf": (lambda: run(StrategyConfig(n=5), math.inf), "steps"),
    "run-steps-nan": (lambda: run(StrategyConfig(n=5), math.nan), "steps"),
    "run-steps-integral-float": (lambda: run(StrategyConfig(n=5), 2.0).days, 3),
    "config-n-integral-float": (lambda: run(StrategyConfig(n=5.0), 3).days, 4),
    "c-tau-max-inf": (lambda: c_autocorrelation(np.zeros((4, 3)), math.inf), "tau_max"),
    "eta-burn-in-inf": (
        lambda: inefficiency_eta(run(StrategyConfig(n=5), 3), math.inf), "burn_in",
    ),
    # A bool is not an integer, and every scalar count is checked.
    "config-n-bool": (lambda: StrategyConfig(n=True), "n"),
    "config-seed-fraction": (lambda: StrategyConfig(n=5, seed=1.5), "seed"),
    "config-seed-bool": (lambda: StrategyConfig(n=5, seed=True), "seed"),
    "config-seed-negative": (lambda: StrategyConfig(n=5, seed=-1), "seed"),
    "run-steps-bool": (lambda: run(StrategyConfig(n=5), True), "steps"),
    "kpr-n-bool": (lambda: kpr_run(True, 5, derive_rng(0)), "n"),
    "rng-key-fraction": (lambda: derive_rng(3, 1.5), "key"),
    "solve-imbalance-bool": (lambda: solve_lambda(True), "imbalance"),
    "poisson-r-bool": (lambda: poisson_cdf(True, 1.0), "r"),
}


@pytest.mark.parametrize("call, outcome", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_are_checked_by_name(call, outcome):
    # A non-integral or infinite count is a ValueError naming the argument;
    # an integral float is that integer.
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{outcome} must be an integer"):
            call()
    else:
        assert call() == outcome


# (call, the start of its ValueError): a scalar that is not a finite number
# names its argument, and a Python int of any size reaches the size checks.
SCALAR_ARGUMENTS = {
    "config-epsilon-string": (
        lambda: StrategyConfig(n=5, epsilon="0.5"), "epsilon must be a finite",
    ),
    "config-prefactor-string": (
        lambda: StrategyConfig(n=5, reset_prefactor="0.5"), "reset_prefactor must be a finite",
    ),
    "finite-tolerance-string": (
        lambda: solve_p_finite(1, 5, "1e-12"), "tolerance must be a finite",
    ),
    "run-steps-past-int64": (
        lambda: run(StrategyConfig(n=3), 10**30), "steps 10{30} at n 3 needs",
    ),
    "run-n-past-int64": (lambda: run(StrategyConfig(n=10**30 + 1), 1), "n 10{29}1 needs"),
}


@pytest.mark.parametrize("call, message", SCALAR_ARGUMENTS.values(), ids=SCALAR_ARGUMENTS)
def test_scalar_arguments_follow_the_one_number_rule(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


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
            reset=np.zeros(4, dtype=bool),
            thin_movers=np.zeros(4, dtype=np.int32),
        )
        assert np.array_equal(trajectory.excess(), np.array([2, 0, 0, 2]))

    @pytest.mark.parametrize("record", [False, True], ids=["plain", "choices"])
    def test_record_holds_exactly_what_the_guard_counts(self, record):
        trajectory = run(StrategyConfig(n=101, seed=5), 500, record_choices=record)
        names = {f.name for f in dataclasses.fields(Trajectory)}
        assert names == {"n", "deltas", "reset", "thin_movers", "choice_matrix"}
        assert set(vars(trajectory)) == names
        # check_record_size counts 13 bytes per day, plus one per agent for
        # the choices
        held = trajectory.deltas.nbytes + trajectory.reset.nbytes + trajectory.thin_movers.nbytes
        assert held == 13 * 501
        if record:
            assert trajectory.choice_matrix.nbytes == 101 * 501
            # a stored field: reading it twice builds nothing
            assert trajectory.choice_matrix is trajectory.choice_matrix

