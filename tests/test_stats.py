"""Observable-estimator tests, mostly on synthetic trajectories."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mgstrat import stats
from mgstrat.engine import (
    MODE_BASELINE,
    MODE_STRATEGY,
    StrategyConfig,
    Trajectory,
    derive_rng,
    run,
)
from mgstrat.stats import (
    EpisodeStats,
    c_autocorrelation,
    delta_histogram,
    episode_lengths,
    inefficiency_eta,
    s_autocorrelation,
)


def make_trajectory(n: int, deltas, reset_days=()) -> Trajectory:
    deltas = np.asarray(deltas, dtype=np.int64)
    reset = np.zeros(deltas.size, dtype=bool)
    reset[list(reset_days)] = True
    thin_movers = np.zeros(deltas.size, dtype=np.int32)
    return Trajectory(n=n, deltas=deltas, reset=reset, thin_movers=thin_movers)


def per_reset_episode_lengths(trajectory: Trajectory) -> list[int]:
    """Oracle: the next marginal day after each reset, one reset at a time."""
    marginal_days = np.flatnonzero(trajectory.excess() == 0)
    lengths = []
    for day in trajectory.reset_days:
        later = marginal_days[np.searchsorted(marginal_days, day + 1):]
        if later.size:
            lengths.append(int(later[0] - day))
    return lengths


class TestInefficiency:
    def test_perfectly_marginal_trajectory(self):
        trajectory = make_trajectory(2001, np.zeros(100))
        assert inefficiency_eta(trajectory) == pytest.approx(1 / 2001, rel=1e-12)

    def test_equals_attendance_form_identically(self):
        rng = derive_rng(50)
        n, m = 201, 100
        deltas = rng.integers(-m - 1, m + 1, size=1000)
        trajectory = make_trajectory(n, deltas)
        attendance = m - deltas
        via_attendance = 4.0 / n * np.mean((attendance - n / 2) ** 2)
        assert inefficiency_eta(trajectory) == pytest.approx(
            via_attendance, rel=1e-12
        )

    def test_population_size_cross_check(self):
        trajectory = make_trajectory(201, np.zeros(10))
        assert inefficiency_eta(trajectory) == pytest.approx(1 / 201)

    def test_burn_in(self):
        trajectory = make_trajectory(5, [100, 0, 0, 0])
        full = inefficiency_eta(trajectory)
        tail = inefficiency_eta(trajectory, burn_in=1)
        assert tail == pytest.approx(4 / 5 * 0.25)
        assert full > tail
        with pytest.raises(ValueError):
            inefficiency_eta(trajectory, burn_in=4)


class TestDeltaHistogram:
    def test_point_mass(self):
        trajectory = make_trajectory(5, [2] * 40)
        assert delta_histogram(trajectory) == {2: 1.0}

    def test_sums_to_one(self):
        rng = derive_rng(51)
        trajectory = make_trajectory(41, rng.integers(-21, 21, size=5000))
        hist = delta_histogram(trajectory)
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_relabeling_symmetry_exact_under_shared_stream(self):
        # A label-flipped rerun with the same random stream maps every
        # imbalance d to -d-1, so the two histograms must coincide exactly
        # under that relabeling.
        config = StrategyConfig(n=201, epsilon=0.4)
        start = derive_rng(52).integers(0, 2, size=201, dtype=np.int8)
        a = run(config, 2000, rng=derive_rng(53), initial_choices=start)
        b = run(config, 2000, rng=derive_rng(53), initial_choices=1 - start)
        hist_a = delta_histogram(a)
        hist_b = delta_histogram(b)
        assert hist_b == {-d - 1: f for d, f in hist_a.items()}

    def test_steady_state_concentration_near_marginal(self):
        config = StrategyConfig(n=2001, epsilon=0.3, seed=54)
        trajectory = run(config, 10**6)
        hist = delta_histogram(trajectory)
        near = sum(f for d, f in hist.items() if abs(d) <= 1)
        far = sum(f for d, f in hist.items() if abs(d) > 5)
        assert near > far


class TestSAutocorrelation:
    def test_constant_series(self):
        trajectory = make_trajectory(5, np.ones(50))
        assert np.allclose(s_autocorrelation(trajectory, 5), 1.0)

    def test_alternating_series(self):
        deltas = np.tile([1, -1], 30)
        trajectory = make_trajectory(5, deltas)
        acf = s_autocorrelation(trajectory, 4)
        assert np.allclose(acf, [1.0, -1.0, 1.0, -1.0, 1.0])

    def test_values_in_unit_interval(self):
        trajectory = make_trajectory(201, derive_rng(55).integers(-5, 5, size=400))
        acf = s_autocorrelation(trajectory, 10)
        assert (np.abs(acf) <= 1.0 + 1e-12).all()

    def test_too_short_series(self):
        trajectory = make_trajectory(5, [1, 0, 1])
        with pytest.raises(ValueError):
            s_autocorrelation(trajectory, 3)

    @pytest.mark.parametrize("mode", [MODE_STRATEGY, MODE_BASELINE])
    def test_real_run_matches_float_mean_bit_for_bit(self, mode):
        trajectory = run(StrategyConfig(n=201, mode=mode, seed=62), 20_000)
        s = trajectory.minority_side.astype(np.float64)
        acf = s_autocorrelation(trajectory, 50)
        assert acf[0] == 1.0
        for tau in range(1, 51):
            assert acf[tau] == float(np.mean(s[:-tau] * s[tau:])), tau


class TestCAutocorrelation:
    def test_frozen_population_gives_all_ones(self):
        matrix = np.tile(np.array([0, 1, 1, 0, 1], dtype=np.int8), (50, 1))
        acf = c_autocorrelation(matrix, 6)
        assert np.allclose(acf, 1.0)

    def test_lag_zero_is_exactly_one(self):
        matrix = derive_rng(56).integers(0, 2, size=(40, 7), dtype=np.int8)
        assert c_autocorrelation(matrix, 5)[0] == 1.0

    def test_everyone_alternating(self):
        matrix = np.tile(
            np.array([[0], [1]], dtype=np.int8), (25, 9)
        )  # 50 days, 9 agents
        acf = c_autocorrelation(matrix, 3)
        assert np.allclose(acf, [1.0, -1.0, 1.0, -1.0])

    @pytest.mark.parametrize("low, high", [(-1, 1), (0, 2)], ids=["plus-minus-one", "zero-two"])
    def test_entries_other_than_zero_and_one_are_refused(self, low, high):
        # packed as bits, every nonzero entry would read as 1: the +/-1
        # record below would give C(1) = 1.0 where the true value is -2/3
        matrix = np.array([[low, high], [high, low], [low, high], [high, high]])
        first_bad = low if low else high
        with pytest.raises(ValueError, match=rf"only 0 \(A\) and 1 \(B\), got {first_bad}$"):
            c_autocorrelation(matrix, 1)

    def test_missing_record_is_usage_error(self):
        with pytest.raises(ValueError):
            c_autocorrelation(None, 5)
        with pytest.raises(ValueError, match="at least one agent"):
            c_autocorrelation(np.zeros((50, 0), dtype=np.int8), 5)

    def test_values_in_unit_interval(self):
        matrix = derive_rng(57).integers(0, 2, size=(300, 21), dtype=np.int8)
        acf = c_autocorrelation(matrix, 20)
        assert (np.abs(acf) <= 1.0 + 1e-12).all()

    @staticmethod
    def _sticky_matrix():
        # sticky choices: each agent flips with probability 0.05 per day
        flips = derive_rng(61).random((3000, 257)) < 0.05
        return np.bitwise_xor.accumulate(flips, axis=0).astype(np.int8)

    @staticmethod
    def _assert_matches_oracle(matrix, acf):
        for tau in range(41):
            pairs = (3000 - tau) * 257
            same = int(np.sum(matrix[: 3000 - tau] == matrix[tau:], dtype=np.int64))
            assert acf[tau] == float(Fraction(2 * same - pairs, pairs)), tau

    def test_matches_integer_count_oracle_bit_for_bit(self):
        matrix = self._sticky_matrix()
        self._assert_matches_oracle(matrix, c_autocorrelation(matrix, 40))

    def test_packed_record_matches_oracle_bit_for_bit(self):
        # a recorded run's choices, packed and counted
        trajectory = run(StrategyConfig(n=257, epsilon=0.7, seed=64), 2999, record_choices=True)
        matrix = trajectory.choice_matrix
        self._assert_matches_oracle(matrix, c_autocorrelation(matrix, 40))

    @pytest.mark.parametrize("block_bytes", [1, 3 * 40 + 39, 40 * 64 + 5])
    def test_row_blocks_match_oracle_bit_for_bit(self, monkeypatch, block_bytes):
        # c_autocorrelation packs 257 agents into 40-byte rows, so blocks of
        # 1, 3 and 64 rows: every lag spans many blocks, and the last block
        # of a lag is a partial one
        monkeypatch.setattr(stats, "COMPARE_BLOCK_BYTES", block_bytes)
        matrix = self._sticky_matrix()
        self._assert_matches_oracle(matrix, c_autocorrelation(matrix, 40))


RUN_KINDS = pytest.mark.parametrize(
    "kind", [{}, {"mode": MODE_BASELINE}, {"wait_t": 3}], ids=["strategy", "baseline", "wait"]
)


class TestCountPathAutocorrelation:
    """C(tau) of a trajectory, the expectation given its head counts."""

    def test_lag_zero_is_exactly_one(self):
        acf = c_autocorrelation(run(StrategyConfig(n=201, seed=70), 500), 20)
        assert acf[0] == 1.0
        assert (np.abs(acf) <= 1.0).all()

    @RUN_KINDS
    def test_lag_one_equals_the_record(self, kind):
        # one night's moves are fixed by its counts, so lag 1 has no
        # agent-level noise left to average
        trajectory = run(
            StrategyConfig(n=201, epsilon=0.7, seed=71, **kind), 1000, record_choices=True
        )
        count = c_autocorrelation(trajectory, 5)
        record = c_autocorrelation(trajectory.choice_matrix, 5)
        assert abs(count[1] - record[1]) <= 1e-12

    @RUN_KINDS
    def test_relabeling_gives_identical_values(self, kind):
        config = StrategyConfig(n=101, epsilon=0.6, **kind)
        start = derive_rng(72).integers(0, 2, size=101, dtype=np.int8)
        a = run(config, 3000, rng=derive_rng(73), initial_choices=start)
        b = run(config, 3000, rng=derive_rng(73), initial_choices=1 - start)
        assert np.array_equal(b.deltas, -a.deltas - 1)
        assert np.array_equal(c_autocorrelation(a, 100), c_autocorrelation(b, 100))

    def test_agrees_with_the_record_over_seeds(self):
        # Same mean: over 20 seeds the mean difference from the record's
        # value stays within 4 standard errors at every lag.
        config = StrategyConfig(n=201, epsilon=0.5)
        diffs = []
        for seed in range(20):
            trajectory = run(config, 1000, record_choices=True, rng=derive_rng(74, seed))
            diffs.append(
                c_autocorrelation(trajectory, 50) - c_autocorrelation(trajectory.choice_matrix, 50)
            )
        diffs = np.array(diffs)[:, 2:]
        stderr = diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs))
        assert (np.abs(diffs.mean(axis=0)) <= 4 * stderr).all()

    @pytest.mark.parametrize("block_days", [5, 40, 300])
    def test_day_blocks_give_the_same_values(self, monkeypatch, block_days):
        # blocks shorter than, near and longer than the lag window
        trajectory = run(StrategyConfig(n=201, seed=75), 1000)
        whole = c_autocorrelation(trajectory, 40)
        monkeypatch.setattr(stats, "COUNT_BLOCK_DAYS", block_days)
        assert np.allclose(c_autocorrelation(trajectory, 40), whole, rtol=0, atol=1e-13)

    def test_memory_does_not_grow_with_the_run(self):
        peaks = []
        for days in (10**5, 10**6):
            trajectory = make_trajectory(2001, np.resize([0, -1], days))
            tracemalloc.start()
            try:
                c_autocorrelation(trajectory, 10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**16, peaks
        assert peaks[1] <= 16 * 8 * (stats.COUNT_BLOCK_DAYS + 10), peaks


class TestConvergenceTime:
    def test_synthetic_episodes(self):
        # excess series: 0 3 2 0 0 1 0 -> resets at days 0, 3, 4 recover
        # after 3, 1, and 2 days respectively
        trajectory = make_trajectory(
            5, [0, 3, 2, 0, 0, -2, -1], reset_days=[0, 3, 4]
        )
        stats = EpisodeStats.from_lengths(episode_lengths(trajectory))
        assert stats.lengths.tolist() == [3, 1, 2]
        assert stats.mean == pytest.approx(2.0)
        assert stats.median == pytest.approx(2.0)
        assert stats.max == 3

    def test_unfinished_episode_dropped(self):
        trajectory = make_trajectory(5, [0, 4, 3, 2], reset_days=[0])
        assert episode_lengths(trajectory).tolist() == []

    def test_real_run_episode_sanity(self):
        config = StrategyConfig(n=201, epsilon=0.5, seed=58)
        trajectory = run(config, 3000)
        stats = EpisodeStats.from_lengths(episode_lengths(trajectory))
        assert stats.lengths.tolist()
        assert all(length >= 1 for length in stats.lengths)
        assert stats.median <= 8

    @pytest.mark.parametrize("wait_t", [0, 3])
    def test_matches_per_reset_loop_on_real_runs(self, wait_t):
        trajectory = run(StrategyConfig(n=201, wait_t=wait_t, seed=63), 20_000)
        lengths = episode_lengths(trajectory)
        assert lengths.dtype == np.int64
        assert lengths.size > 100
        assert lengths.tolist() == per_reset_episode_lengths(trajectory)

    def test_open_final_episode_matches_per_reset_loop(self):
        # resets at days 0, 3 and 5; day 5's episode is still open at the end
        trajectory = make_trajectory(
            5, [0, 2, -1, 0, 3, -1, 2, 3], reset_days=[0, 3, 5]
        )
        assert episode_lengths(trajectory).tolist() == [2, 2]
        assert per_reset_episode_lengths(trajectory) == [2, 2]

    def test_episode_stats_requires_data(self):
        with pytest.raises(ValueError):
            EpisodeStats.from_lengths([])
