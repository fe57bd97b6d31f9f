"""Acceptance suite: one test per shipped guarantee, in order.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
and then asserts, so a plain ``pytest`` run still gates on all twelve.
Heavy simulations are shared through module-scoped fixtures; the stated
runtime budgets are asserted where a guarantee includes one.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from mgstrat.cli import main
from mgstrat.engine import MODE_BASELINE, StrategyConfig, derive_rng, run
from mgstrat.kpr import kpr_run, kpr_step
from mgstrat.payoff import expected_payoffs, verify_no_cheat
from mgstrat.solver import solve_lambda
from mgstrat.stats import (
    EpisodeStats,
    c_autocorrelation,
    episode_lengths,
    inefficiency_eta,
    s_autocorrelation,
)
from test_payoff import cross_probs

N_CROWD = 2001
STEPS_SHORT = 10_000
STEPS_LONG = 100_000
SEEDS_PER_BAND = 20

# Frozen switch-rate reference means, five decimal places each.
REFERENCE_RATES = {
    1: 1.14619,
    2: 2.15592,
    3: 3.15942,
    4: 4.16121,
    5: 5.16229,
    6: 6.16302,
    7: 7.16354,
    8: 8.16393,
    9: 9.16423,
    10: 10.16448,
    20: 20.16557,
    30: 30.16594,
    40: 40.16612,
    50: 50.16623,
}


def report(index: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {index:02d}] {status} - {detail}")
    assert ok, f"criterion {index:02d}: {detail}"


@pytest.fixture(scope="module")
def eta_bank():
    """Per-seed inefficiency samples, cached by (epsilon, wait_t)."""
    cache: dict[tuple[float, int], np.ndarray] = {}

    def collect(epsilon: float, wait_t: int = 0) -> np.ndarray:
        key = (round(epsilon, 6), wait_t)
        if key not in cache:
            config = StrategyConfig(n=N_CROWD, epsilon=epsilon, wait_t=wait_t)
            values = np.empty(SEEDS_PER_BAND)
            for seed_index in range(SEEDS_PER_BAND):
                stream = derive_rng(
                    4100, int(round(epsilon * 100)), wait_t, seed_index
                )
                trajectory = run(config, STEPS_SHORT, rng=stream)
                values[seed_index] = inefficiency_eta(trajectory)
            cache[key] = values
        return cache[key]

    return collect


@pytest.fixture(scope="module")
def scaling_runs():
    """One strategy run per population size, for the convergence scaling checks."""
    runs = {}
    for n in (201, 2001, 20001):
        config = StrategyConfig(n=n, epsilon=0.5)
        runs[n] = run(config, STEPS_SHORT, rng=derive_rng(81, n))
    return runs


@pytest.fixture(scope="module")
def outcome_run():
    """Long strategy run used for the outcome-sign correlation checks."""
    config = StrategyConfig(n=N_CROWD, epsilon=0.5, seed=1)
    return run(config, STEPS_LONG)


def band(values: np.ndarray) -> tuple[float, float]:
    """Mean +/- three sample standard deviations."""
    mean = float(values.mean())
    spread = 3.0 * float(values.std(ddof=1))
    return mean - spread, mean + spread


def test_criterion_01_reference_rate_table():
    start = time.perf_counter()
    solved = {delta: solve_lambda(delta) for delta in REFERENCE_RATES}
    elapsed = time.perf_counter() - start
    matched = all(
        round(solved[delta], 5) == rate for delta, rate in REFERENCE_RATES.items()
    )
    worst = max(abs(solved[d] - rate) for d, rate in REFERENCE_RATES.items())
    report(
        1,
        matched and elapsed < 1.0,
        f"all {len(REFERENCE_RATES)} reference rates reproduced to 5 decimal "
        f"places (worst error {worst:.2e}) in {elapsed:.3f} s",
    )


def test_criterion_02_gap_growth_and_limit():
    start = time.perf_counter()
    gaps = [solve_lambda(delta) - delta for delta in range(1, 101)]
    tail_error = abs(solve_lambda(500) - 500 - 1.0 / 6.0)
    elapsed = time.perf_counter() - start
    increasing = all(b > a for a, b in zip(gaps, gaps[1:]))
    report(
        2,
        increasing and tail_error < 2e-4 and elapsed < 5.0,
        f"gap strictly increasing on 1..100, |gap(500) - 1/6| = {tail_error:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_03_indifference_and_strict_preference():
    worst_margin = 0.0
    min_preference = math.inf
    for delta in range(1, 101):
        rate = solve_lambda(delta)
        check = verify_no_cheat(delta, rate, tol=1e-8)
        assert check.ok, f"delta={delta}"
        worst_margin = max(worst_margin, abs(check.crowd_margin))
        min_preference = min(min_preference, check.thin_margin)
    report(
        3,
        worst_margin < 1e-8 and min_preference > 0.0,
        f"crowd side indifferent to |margin| <= {worst_margin:.2e} and thin side "
        f"strictly prefers staying (min margin {min_preference:.3f}) for all "
        "imbalances 1..100",
    )


def test_criterion_04_payoff_curves_approach_half():
    deltas = np.arange(1, 51)
    q = expected_payoffs(deltas, solve_lambda(deltas))
    thin, crowd = q.thin_stay.tolist(), q.crowd_stay.tolist()
    thin_monotone = all(b < a for a, b in zip(thin, thin[1:]))
    crowd_monotone = all(b > a for a, b in zip(crowd, crowd[1:]))
    sides = all(t > 0.5 > c for t, c in zip(thin, crowd))
    thin_end = abs(thin[-1] - 0.5)
    crowd_end = abs(crowd[-1] - 0.5)
    report(
        4,
        thin_monotone and crowd_monotone and sides and thin_end < 0.05 and crowd_end < 0.05,
        "stay-and-win curves approach 1/2 from opposite sides; at imbalance 50 "
        f"the gaps to 1/2 are {thin_end:.4f} (thin) and {crowd_end:.4f} (crowd)",
    )


def test_criterion_05_no_balanced_rate_pair():
    # Every pair of defector means on a log-spaced 50 x 50 grid; the score
    # of a pair is the larger of its two residuals' magnitudes.
    axis = np.geomspace(0.05, 20.0, 50)
    lam_first, lam_second = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    lt_minus_2, ge, lt_minus_1, ge_plus_1 = cross_probs(lam_first, lam_second)
    scores = np.maximum(np.abs(lt_minus_2 - ge), np.abs(lt_minus_1 - ge_plus_1))
    orderings_hold = bool(np.all((lt_minus_2 < lt_minus_1) & (ge_plus_1 < ge)))
    best = int(np.argmin(scores))
    worst_point = (float(lam_first[best]), float(lam_second[best]))
    report(
        5,
        scores[best] > 1e-4 and orderings_hold and scores.size == 2500,
        f"no rate pair balances both sides on a 50x50 grid (min joint residual "
        f"{scores[best]:.4f} at {worst_point}); strict orderings hold "
        "at every point",
    )


def test_criterion_06_baseline_inefficiency_unity():
    config = StrategyConfig(n=N_CROWD, mode=MODE_BASELINE, seed=6)
    trajectory = run(config, STEPS_LONG)
    eta = inefficiency_eta(trajectory)
    report(
        6,
        abs(eta - 1.0) <= 0.05,
        f"uniform-redraw baseline inefficiency {eta:.4f} within 1 +/- 0.05",
    )


def test_criterion_07_low_inefficiency_and_ordering(eta_bank):
    start = time.perf_counter()
    samples = {eps: eta_bank(eps) for eps in (0.3, 0.5, 0.7)}
    elapsed = time.perf_counter() - start
    below_cap = all(float(values.max()) < 0.1 for values in samples.values())
    lo3, hi3 = band(samples[0.3])
    lo5, hi5 = band(samples[0.5])
    lo7, hi7 = band(samples[0.7])
    separated = hi3 < lo5 and hi5 < lo7
    means = {eps: float(v.mean()) for eps, v in samples.items()}
    report(
        7,
        below_cap and separated and elapsed < 60.0,
        f"every run's eta < 0.1 and eta ordering 0.3 < 0.5 < 0.7 holds with "
        f"non-overlapping 3-sigma bands (means {means[0.3]:.4f} / {means[0.5]:.4f} "
        f"/ {means[0.7]:.4f}; {SEEDS_PER_BAND} seeds each) in {elapsed:.1f} s",
    )


def test_criterion_08_fast_recovery_and_scaling(scaling_runs):
    jump_medians = {}
    return_stats = {}
    for n, trajectory in scaling_runs.items():
        deltas = trajectory.deltas
        jumps = [
            abs(int(deltas[day + 1]))
            for day in trajectory.reset_days
            if day + 1 < trajectory.days
        ]
        assert len(jumps) > 100, f"too few resets at n={n}"
        jump_medians[n] = float(np.median(jumps))
        return_stats[n] = EpisodeStats.from_lengths(episode_lengths(trajectory))

    # Post-reset displacement scales like m**(epsilon/2), order of magnitude.
    in_band = True
    for n, median in jump_medians.items():
        scale = ((n - 1) // 2) ** 0.25
        in_band = in_band and scale / 4.0 <= median <= scale * 4.0

    medians = [return_stats[n].median for n in (201, 2001, 20001)]
    means = [return_stats[n].mean for n in (201, 2001, 20001)]
    monotone = medians[0] <= medians[1] <= medians[2] and means[0] < means[1] < means[2]
    sub_log = means[2] / means[0] < math.log(20001) / math.log(201)
    quick = return_stats[2001].median <= 8.0
    report(
        8,
        in_band and quick and monotone and sub_log,
        f"post-reset displacement medians {jump_medians} within 4x of m^(eps/2); "
        f"median return time at n=2001 is {return_stats[2001].median:.0f} days (<= 8); "
        f"return time grows monotonically and sub-logarithmically across n "
        f"(means {means[0]:.2f} / {means[1]:.2f} / {means[2]:.2f})",
    )


def test_criterion_09_outcome_and_choice_correlations(outcome_run):
    acf = s_autocorrelation(outcome_run, 10)
    lag3 = abs(float(acf[3]))
    # exponential decay rate: least-squares slope of log |acf| over lags 1..3
    decay = -np.polyfit([1, 2, 3], np.log(np.maximum(np.abs(acf[1:4]), 1e-300)), 1)[0]
    persistence = {}
    for epsilon in (0.3, 0.5, 0.7):
        config = StrategyConfig(n=N_CROWD, epsilon=epsilon)
        trajectory = run(
            config,
            STEPS_SHORT,
            record_choices=True,
            rng=derive_rng(55, int(epsilon * 10)),
        )
        persistence[epsilon] = float(
            c_autocorrelation(trajectory.choice_matrix, 100)[100]
        )
    ordered = persistence[0.3] > persistence[0.5] > persistence[0.7]
    report(
        9,
        lag3 < 0.05 and 1.0 <= decay <= 4.0 and ordered,
        f"outcome-sign correlation at lag 3 is {lag3:.4f} (< 0.05) with decay rate "
        f"{decay:.2f} in [1, 4]; choice persistence at lag 100 falls with epsilon "
        f"({persistence[0.3]:.3f} > {persistence[0.5]:.3f} > {persistence[0.7]:.3f})",
    )


def test_criterion_10_waiting_reduces_inefficiency(eta_bank):
    plain = eta_bank(0.5, 0)
    waiting = eta_bank(0.5, 10)
    lo_plain, _ = band(plain)
    _, hi_wait = band(waiting)
    report(
        10,
        hi_wait < lo_plain,
        f"waiting 10 marginal days before resetting lowers eta "
        f"({waiting.mean():.4f} vs {plain.mean():.4f}) with non-overlapping "
        f"3-sigma bands over {SEEDS_PER_BAND} seeds",
    )


def test_criterion_11_kpr_fairness_and_log_convergence():
    # Exact rotation fairness over every post-convergence n-day window.
    n = 16
    rng = derive_rng(321)
    result = kpr_run(n, 500, rng)
    assert result.convergence_day is not None
    assert result.utilization[result.convergence_day] == 1.0
    state = result.final_state
    history = [state.positions.copy()]
    for _ in range(2 * n):
        state = kpr_step(state, rng)
        assert state.fed.all()
        history.append(state.positions.copy())
    table = np.array(history)
    fair = all(
        sorted(table[start : start + n, agent].tolist()) == list(range(1, n + 1))
        for start in range(n + 1)
        for agent in range(n)
    )

    # Mean convergence day grows about logarithmically with population size.
    means = {}
    for size in (8, 16, 32, 64, 128, 256):
        days = []
        for seed_index in range(200):
            outcome = kpr_run(size, 300, derive_rng(500, size, seed_index))
            assert outcome.convergence_day is not None
            days.append(outcome.convergence_day)
        means[size] = float(np.mean(days))
    ordered = list(means.values())
    growing = all(b > a for a, b in zip(ordered, ordered[1:]))
    gentle = all(b / a <= 1.6 for a, b in zip(ordered, ordered[1:]))
    log_like = ordered[-1] / ordered[0] <= 4.0

    # Two diners: permutation starts are already converged; collision starts
    # resolve in exactly one day, whoever wins the coin flip.
    exhaustive = True
    for positions, expected in {
        (1, 2): 0,
        (2, 1): 0,
        (1, 1): 1,
        (2, 2): 1,
    }.items():
        for seed_index in range(40):
            outcome = kpr_run(
                2,
                10,
                derive_rng(77, seed_index),
                positions=np.array(positions, dtype=np.int64),
            )
            exhaustive = exhaustive and outcome.convergence_day == expected

    report(
        11,
        fair and growing and gentle and log_like and exhaustive,
        "post-convergence service is exactly fair over every window; mean "
        f"convergence day grows about logarithmically ({ordered[0]:.2f} -> "
        f"{ordered[-1]:.2f} over n=8..256, 200 seeds); the two-diner case matches "
        "exhaustive enumeration",
    )


def test_criterion_12_byte_deterministic_cli(tmp_path):
    args = [
        "simulate",
        "--n",
        "201",
        "--steps",
        "600",
        "--seed",
        "11",
        "--stats",
        "--tau-max",
        "60",
    ]
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        assert main(args + ["--outdir", str(tmp_path / "one")]) == 0
        assert main(args + ["--outdir", str(tmp_path / "two")]) == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    identical = bool(names) and all(
        (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        for name in names
    )
    report(
        12,
        identical,
        f"two invocations of the same manifest wrote byte-identical files: "
        f"{', '.join(names)}",
    )
