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


def marginal_days(trajectory: Trajectory) -> np.ndarray:
    """The days whose majority is the marginal m + 1, from the whole run at once."""
    deltas = trajectory.deltas
    return np.flatnonzero(np.where(deltas >= 0, deltas, -deltas - 1) == 0)


def per_reset_episode_lengths(trajectory: Trajectory) -> list[int]:
    """Oracle: the next marginal day after each reset, one reset at a time."""
    marginal = marginal_days(trajectory)
    lengths = []
    for day in trajectory.reset_days:
        later = marginal[np.searchsorted(marginal, day + 1):]
        if later.size:
            lengths.append(int(later[0] - day))
    return lengths


def unique_histogram(trajectory: Trajectory, burn_in: int = 0) -> dict[int, float]:
    """Oracle: the former histogram, ``np.unique`` over a sorted copy of the run."""
    values, counts = np.unique(trajectory.deltas[burn_in:], return_counts=True)
    total = counts.sum()
    return {int(v): float(c) / total for v, c in zip(values, counts)}


def excess_episode_lengths(trajectory: Trajectory) -> np.ndarray:
    """Oracle: the former episodes, from the whole run's marginal days at once."""
    marginal = marginal_days(trajectory)
    reset_days = np.flatnonzero(trajectory.reset)
    following = np.searchsorted(marginal, reset_days, side="right")
    closed = following < marginal.size
    return marginal[following[closed]] - reset_days[closed]


def former_count_path(trajectory: Trajectory, tau_max: int) -> np.ndarray:
    """Oracle: the former count-path C(tau), its temporaries all live at once.

    Its sums, like the new ones, depend on ``stats.BLOCK_DAYS``.
    """
    n, days = trajectory.n, trajectory.days
    m = (n - 1) // 2
    sums = np.zeros(tau_max + 1)
    for start in range(0, days - 1, stats.BLOCK_DAYS):
        stop = min(start + stats.BLOCK_DAYS, days - 1)
        last = min(stop + tau_max - 1, days - 1)
        before = trajectory.deltas[start:last]
        rise = before - trajectory.deltas[start + 1 : last + 1]
        thin = trajectory.thin_movers[start:last]
        crowd_at_b = before >= 0
        crowd = thin + np.where(crowd_at_b, rise, -rise)
        at_a = m - before
        pa = np.where(crowd_at_b, thin, crowd) / np.maximum(at_a, 1)
        pb = np.where(crowd_at_b, crowd, thin) / np.maximum(n - at_a, 1)
        r = 1 - (pa + pb)
        d = pb - pa
        spread = 2 * at_a[: stop - start] - n
        product = np.ones(stop - start)
        h = np.zeros(stop - start)
        for tau in range(1, tau_max + 1):
            size = min(stop, days - tau) - start
            if size <= 0:
                break
            product, h = product[:size], h[:size]
            product *= r[tau - 1 : tau - 1 + size]
            h *= r[tau - 1 : tau - 1 + size]
            h += d[tau - 1 : tau - 1 + size]
            sums[tau] += np.sum(n * product + spread[:size] * h)
    out = sums / ((days - np.arange(tau_max + 1)) * n)
    out[0] = 1.0
    return out


def exact_eta(trajectory: Trajectory, burn_in: int = 0) -> float:
    """Oracle: (4/n) mean (d + 1/2)^2 as a Fraction, rounded once."""
    deltas = [int(d) for d in trajectory.deltas[burn_in:]]
    mean = sum(Fraction(2 * d + 1, 2) ** 2 for d in deltas) / len(deltas)
    return float(4 * mean / trajectory.n)


MODES = pytest.mark.parametrize("mode", [MODE_STRATEGY, MODE_BASELINE])


def block_sizes(default):
    """Block sizes 1, 3 and the module's default."""
    return pytest.mark.parametrize(
        "block", [1, 3, default], ids=["block-1", "block-3", "default"]
    )


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

    @MODES
    @pytest.mark.parametrize("n", [201, 2001])
    @pytest.mark.parametrize("burn_in", [0, 1000])
    def test_equals_the_exact_fraction_rounded_once(self, mode, n, burn_in):
        trajectory = run(StrategyConfig(n=n, epsilon=0.3, seed=80, mode=mode), 20_000)
        assert inefficiency_eta(trajectory, burn_in=burn_in) == exact_eta(trajectory, burn_in)

    @pytest.mark.parametrize(
        "block", [1, 3, stats.BLOCK_DAYS, 1 << 15],
        ids=["block-1", "block-3", "default", "block-32768"],
    )
    def test_partial_sums_do_not_wrap_at_the_population_cap(self, monkeypatch, block):
        # At the CLI's largest n every day's d^2 is about 5.0e14, so an int64
        # sum of squares wraps past about 18 400 days.  The default block
        # stays below that; a 32 768-day block would not, so there only the
        # |d|-derived cap keeps 40 000 days in three partial sums.
        monkeypatch.setattr(stats, "BLOCK_DAYS", block)
        n = 44_739_241
        m = (n - 1) // 2
        signs = derive_rng(81).integers(0, 2, size=40_000) * 2 - 1
        trajectory = make_trajectory(n, signs * (m + 1))
        days, total = signs.size, int(signs.sum()) * (m + 1)
        exact = Fraction(4 * days * (m + 1) ** 2 + 4 * total + days, n * days)
        assert inefficiency_eta(trajectory) == float(exact)
        assert inefficiency_eta(trajectory, burn_in=7) == exact_eta(trajectory, 7)


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

    @MODES
    @block_sizes(stats.BLOCK_DAYS)
    def test_blocks_match_the_unique_oracle_bit_for_bit(self, monkeypatch, mode, block):
        monkeypatch.setattr(stats, "BLOCK_DAYS", block)
        trajectory = run(StrategyConfig(n=201, epsilon=0.3, seed=82, mode=mode), 100_000)
        for burn_in in (0, 777):
            hist = delta_histogram(trajectory, burn_in=burn_in)
            expected = unique_histogram(trajectory, burn_in)
            assert list(hist) == list(expected)
            assert [f.hex() for f in hist.values()] == [f.hex() for f in expected.values()]


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

    @pytest.mark.parametrize("mode, block_bytes", [
        pytest.param(
            mode, block, id=mode if block == stats.COMPARE_BLOCK_BYTES else f"{mode}-{block}"
        )
        for mode in (MODE_STRATEGY, MODE_BASELINE)
        for block in (stats.COMPARE_BLOCK_BYTES, 1, 3)
    ])
    def test_real_run_matches_float_mean_bit_for_bit(self, monkeypatch, mode, block_bytes):
        # S(tau) compares one byte a day, so blocks of 1 and 3 days: every
        # lag spans many full blocks, and at 3 most lags end in a partial one
        monkeypatch.setattr(stats, "COMPARE_BLOCK_BYTES", block_bytes)
        trajectory = run(StrategyConfig(n=201, mode=mode, seed=62), 20_000)
        s = np.where(trajectory.deltas >= 0, 1.0, -1.0)
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
        # compared as stored, any two distinct entries count as a change,
        # so only the record's 0 (A) and 1 (B) have a +/-1 reading
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

    def test_recorded_run_matches_oracle_bit_for_bit(self):
        # a recorded run's choices, counted as stored
        trajectory = run(StrategyConfig(n=257, epsilon=0.7, seed=64), 2999, record_choices=True)
        matrix = trajectory.choice_matrix
        self._assert_matches_oracle(matrix, c_autocorrelation(matrix, 40))

    @pytest.mark.parametrize("block_bytes", [1, 3 * 257 + 256, 64 * 257 + 5])
    def test_row_blocks_match_oracle_bit_for_bit(self, monkeypatch, block_bytes):
        # one flag per agent-day makes 257-byte rows of flags, so blocks of
        # 1, 3 and 64 rows: every lag spans many blocks, and the last block
        # of a lag is a partial one
        monkeypatch.setattr(stats, "COMPARE_BLOCK_BYTES", block_bytes)
        matrix = self._sticky_matrix()
        self._assert_matches_oracle(matrix, c_autocorrelation(matrix, 40))

    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["default", "block-1"])
    @pytest.mark.parametrize("layout", ["bool", "int64", "float64", "column-view"])
    def test_record_dtypes_match_oracle_bit_for_bit(self, monkeypatch, layout, block_bytes):
        # the int8 record is the case of the two tests above; other int and
        # bool records are compared as stored, a float one as int8, and a
        # view that skips every other column without a copy
        if block_bytes is not None:
            monkeypatch.setattr(stats, "COMPARE_BLOCK_BYTES", block_bytes)
        matrix = self._sticky_matrix()
        if layout == "column-view":
            wide = np.ones((3000, 2 * 257), dtype=np.int8)
            wide[:, ::2] = matrix
            record = wide[:, ::2]
            assert not record.flags.c_contiguous
        else:
            record = matrix.astype(layout)
        self._assert_matches_oracle(matrix, c_autocorrelation(record, 40))

    def test_record_is_compared_without_a_copy(self):
        # beyond the record, only one block of flags and small change
        trajectory = run(StrategyConfig(n=2001, seed=65), 2000, record_choices=True)
        tracemalloc.start()
        try:
            c_autocorrelation(trajectory.choice_matrix, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stats.COMPARE_BLOCK_BYTES + 2**16, peak


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
        monkeypatch.setattr(stats, "BLOCK_DAYS", block_days)
        assert np.allclose(c_autocorrelation(trajectory, 40), whole, rtol=0, atol=1e-13)

    @MODES
    @block_sizes(stats.BLOCK_DAYS)
    def test_blocks_match_the_former_formula_bit_for_bit(self, monkeypatch, mode, block):
        # one-day blocks take a Python loop per day, so they get a short run
        steps = 40_000 if block == stats.BLOCK_DAYS else 1_500
        monkeypatch.setattr(stats, "BLOCK_DAYS", block)
        trajectory = run(StrategyConfig(n=201, epsilon=0.3, seed=83, mode=mode), steps)
        acf = c_autocorrelation(trajectory, 25)
        assert acf.tobytes() == former_count_path(trajectory, 25).tobytes()

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
        # seven live block arrays of float64 or int64, and small change
        assert peaks[1] <= 7 * 8 * (stats.BLOCK_DAYS + 10) + 2**14, peaks


def expanded(tally: np.ndarray) -> np.ndarray:
    """The values a tally counts, value k ``tally[k]`` times, in order."""
    return np.repeat(np.arange(tally.size), tally)


class TestConvergenceTime:
    def test_synthetic_episodes(self):
        # excess series: 0 3 2 0 0 1 0 -> resets at days 0, 3, 4 recover
        # after 3, 1, and 2 days respectively
        trajectory = make_trajectory(
            5, [0, 3, 2, 0, 0, -2, -1], reset_days=[0, 3, 4]
        )
        lengths = episode_lengths(trajectory)
        assert lengths.tolist() == np.bincount([3, 1, 2]).tolist() == [0, 1, 1, 1]
        assert expanded(lengths).mean() == pytest.approx(2.0)
        assert np.median(expanded(lengths)) == pytest.approx(2.0)
        assert expanded(lengths).max() == 3

    def test_unfinished_episode_dropped(self):
        trajectory = make_trajectory(5, [0, 4, 3, 2], reset_days=[0])
        assert episode_lengths(trajectory).tolist() == []

    def test_real_run_episode_sanity(self):
        config = StrategyConfig(n=201, epsilon=0.5, seed=58)
        trajectory = run(config, 3000)
        lengths = episode_lengths(trajectory)
        assert lengths.sum()
        assert lengths[0] == 0  # every episode lasts at least a day
        assert np.median(expanded(lengths)) <= 8

    @pytest.mark.parametrize("wait_t", [0, 3])
    def test_matches_per_reset_loop_on_real_runs(self, wait_t):
        trajectory = run(StrategyConfig(n=201, wait_t=wait_t, seed=63), 20_000)
        lengths = episode_lengths(trajectory)
        assert lengths.dtype == np.int64
        assert lengths.sum() > 100
        assert np.array_equal(lengths, np.bincount(per_reset_episode_lengths(trajectory)))

    @pytest.mark.parametrize("kind", [{}, {"mode": MODE_BASELINE}, {"wait_t": 3}],
                             ids=["strategy", "baseline", "wait"])
    @block_sizes(stats.BLOCK_DAYS)
    def test_blocks_match_the_excess_oracle(self, monkeypatch, kind, block):
        monkeypatch.setattr(stats, "BLOCK_DAYS", block)
        trajectory = run(StrategyConfig(n=201, epsilon=0.3, seed=84, **kind), 100_000)
        lengths = episode_lengths(trajectory)
        expected = np.bincount(excess_episode_lengths(trajectory))
        assert lengths.dtype == expected.dtype == np.int64
        assert np.array_equal(lengths, expected)
        assert (lengths.sum() > 1000) == (kind.get("mode") != MODE_BASELINE)

    @block_sizes(stats.BLOCK_DAYS)
    def test_blocks_close_resets_on_days_that_are_not_marginal(self, monkeypatch, block):
        # resets on imbalanced days, several waiting at once, close at the
        # next marginal day (2 or 6 here); those on days 7, 8 and 9 have no
        # later marginal day and stay open
        monkeypatch.setattr(stats, "BLOCK_DAYS", block)
        deltas = [3, 2, 0, 5, 4, 4, -1, 0, 7, -3, 2]
        trajectory = make_trajectory(5, deltas, reset_days=[0, 1, 2, 3, 5, 7, 8, 9])
        assert episode_lengths(trajectory).tolist() == np.bincount([2, 1, 4, 3, 1]).tolist()
        assert excess_episode_lengths(trajectory).tolist() == [2, 1, 4, 3, 1]

    def test_open_final_episode_matches_per_reset_loop(self):
        # resets at days 0, 3 and 5; day 5's episode is still open at the end
        trajectory = make_trajectory(
            5, [0, 2, -1, 0, 3, -1, 2, 3], reset_days=[0, 3, 5]
        )
        assert episode_lengths(trajectory).tolist() == np.bincount([2, 2]).tolist()
        assert per_reset_episode_lengths(trajectory) == [2, 2]

    def test_memory_does_not_grow_with_the_run(self):
        # a reset on every third day, each recovering three days later
        peaks = []
        for days in (10**5, 10**6):
            trajectory = make_trajectory(5, np.resize([0, 3, 2], days), range(0, days, 3))
            tracemalloc.start()
            try:
                lengths = episode_lengths(trajectory)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert lengths.tolist() == [0, 0, 0, (days - 1) // 3]
        assert peaks[1] <= peaks[0] + 2**12, peaks
