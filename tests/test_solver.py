"""Switch-rate solver tests.

Fourteen frozen (imbalance, mean) reference pairs are pinned to five
decimal places; everything else is checked against structural properties
(monotone residual, bracketing, asymptote) or independent oracles (dense
scans, polynomial root extraction, the finite-crowd/large-crowd limit).
A scalar copy of the ITP root loop is kept here as an oracle: the array
solvers must return its roots bit for bit.  scipy's brentq checks every
root independently, to within tolerance / |residual'(root)|.
"""

import math
from functools import cache

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import betaincc, pdtr
from scipy.stats import binom, poisson

from mgstrat import solver
from mgstrat.cli import MAX_DELTA_MAX
from mgstrat.solver import (
    ASYMPTOTIC_GAP,
    MAX_TOLERANCE,
    LambdaTable,
    NumericError,
    default_delta_max,
    finite_m_balance,
    indifference_residual,
    solve_lambda,
    solve_p_finite,
)


def scalar_itp(residual, lo: float, tolerance: float) -> float:
    """A scalar copy of the array solvers' ITP loop on the unit bracket [lo, lo + 1]."""
    hi = lo + 1.0
    f_lo, f_hi = residual(lo), residual(hi)
    assert f_lo > 0.0 > f_hi
    for step in range(200):
        width = hi - lo
        offset = 0.5 * (lo + hi) - (lo + width * (f_lo / (f_lo - f_hi)))
        reach = 2.0 ** (-step) - 0.5 * width
        shift = max(min(abs(offset) - 0.1 * (width * width), reach), 0.0)
        x = 0.5 * (lo + hi) - math.copysign(shift, offset)
        f_x = residual(x)
        if abs(f_x) < tolerance:
            return x
        if f_x > 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    raise AssertionError("no convergence")


@cache
def scalar_lambda_root(delta: int, tolerance: float = 1e-10) -> float:
    """One root of the indifference residual by the scalar ITP loop, as the oracle."""

    def residual(lam: float) -> float:
        return float(pdtr(delta - 1, lam)) + float(pdtr(delta, lam)) - 1.0

    return scalar_itp(residual, float(delta), tolerance)


def scalar_p_finite_root(delta: int, m: int, tolerance: float = 1e-12) -> float:
    """One finite-crowd root by the scalar ITP loop in lam = p * (n + 1), as the oracle."""
    n = m + delta

    def residual(lam: float) -> float:
        # F(d-1) + F(d) - 1; binomial_cdf(r, n, p) = betaincc(r + 1, n - r, p) for r < n
        p = lam / (n + 1)
        return float(betaincc(delta, n - delta + 1, p)) + float(
            betaincc(delta + 1, n - delta, p)
        ) - 1.0

    return scalar_itp(residual, float(delta), tolerance) / (n + 1)


# Frozen reference roots, five decimal places.
REFERENCE_ROOTS = {
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


class TestIndifferenceResidual:
    def test_zero_at_reference_root_delta_1(self):
        assert abs(indifference_residual(1.14619, 1)) < 2e-5

    def test_zero_at_reference_root_delta_10(self):
        assert abs(indifference_residual(10.16448, 10)) < 2e-5

    def test_small_mean_limit_is_plus_one(self):
        assert indifference_residual(1e-12, 1) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing_with_single_sign_change(self):
        for delta in range(1, 101):
            grid = np.linspace(delta / 2, delta + 2, 61)
            values = [indifference_residual(x, delta) for x in grid]
            assert all(b < a for a, b in zip(values, values[1:]))
            signs = np.sign(values)
            flips = np.nonzero(np.diff(signs) != 0)[0]
            assert len(flips) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            indifference_residual(1.0, 0)
        with pytest.raises(ValueError):
            indifference_residual(-2.0, 3)


class TestSolveLambda:
    def test_reference_table_to_five_decimals(self):
        for delta, expected in REFERENCE_ROOTS.items():
            assert solve_lambda(delta, 1e-10) == pytest.approx(expected, abs=1e-5)

    def test_explicit_examples(self):
        assert solve_lambda(1, 1e-10) == pytest.approx(1.14619, abs=1e-5)
        assert solve_lambda(5, 1e-10) == pytest.approx(5.16229, abs=1e-5)
        assert solve_lambda(50, 1e-10) == pytest.approx(50.16623, abs=1e-5)

    def test_residual_below_tolerance(self):
        for delta in (1, 7, 33, 200):
            root = solve_lambda(delta, 1e-10)
            assert abs(indifference_residual(root, delta)) < 1e-10

    def test_root_inside_unit_bracket(self):
        for delta in (1, 2, 9, 64, 500):
            root = solve_lambda(delta)
            assert delta < root < delta + 1

    def test_unit_bracket_holds_over_the_cli_range(self):
        # The solver's only bracket is [delta, delta + 1]; the sign change
        # must lie inside it for every imbalance the CLI accepts.
        deltas = np.arange(1, MAX_DELTA_MAX + 1)
        at_lo, at_hi = indifference_residual(np.stack((deltas, deltas + 1.0)), deltas)
        assert (at_lo > 0.0).all() and (at_hi < 0.0).all()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_lambda(0)
        with pytest.raises(ValueError):
            solve_lambda(3, tolerance=-1e-9)
        with pytest.raises(ValueError):
            solve_lambda(3, tolerance=1e-5)


class TestArrayBisection:
    """The array loop against the scalar oracles.

    "bisection" in the test names is the loop that ITP replaced.
    """

    @pytest.mark.parametrize("tolerance", [1e-10, MAX_TOLERANCE])
    def test_matches_the_scalar_bisection_bit_for_bit(self, tolerance):
        deltas = np.arange(1, 3001)
        roots = solve_lambda(deltas, tolerance)
        assert roots.dtype == np.float64 and roots.shape == (3000,)
        assert roots.tolist() == [scalar_lambda_root(d, tolerance) for d in range(1, 3001)]

    def test_unsorted_repeated_and_zero_dimensional_input(self):
        deltas = np.array([[7, 3, 7], [2999, 1, 3]])
        for _ in range(2):  # a repeat solve gives the same roots
            roots = solve_lambda(deltas)
            assert roots.shape == (2, 3)
            expected = [[scalar_lambda_root(d) for d in row] for row in deltas.tolist()]
            assert roots.tolist() == expected
        for delta in (np.array(5), np.int64(5), 5, 5.0):
            root = solve_lambda(delta)
            assert type(root) is float and root == scalar_lambda_root(5)

    def test_residual_elementwise(self):
        lam = np.array([1.0, 2.5, 7.2])
        values = indifference_residual(lam, np.array([1, 2, 7]))
        assert values.tolist() == [
            indifference_residual(float(x), d) for x, d in zip(lam, (1, 2, 7))
        ]
        assert type(indifference_residual(1.0, 1)) is float

    def test_bad_entry_is_named(self):
        with pytest.raises(ValueError, match="got 0"):
            solve_lambda(np.array([3, 0, 5]))
        with pytest.raises(ValueError, match="got 2.5"):
            solve_lambda([1, 2.5])
        with pytest.raises(ValueError, match="got nan"):
            indifference_residual([1.0, np.nan], 3)

    def test_unconverged_root_names_its_imbalance(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_STEPS", 3)
        with pytest.raises(NumericError, match="after 3 steps for imbalance 4$"):
            solve_lambda(np.array([4, 5]))

    @pytest.mark.parametrize("tolerance", [1e-10, MAX_TOLERANCE])
    def test_lone_root_matches_the_scalar_bisection(self, tolerance):
        # A lone root runs the same array loop; the roots must not move.
        for delta in (1, 2, 10, 137, 1000, 3000):
            assert solve_lambda(delta, tolerance) == scalar_lambda_root(delta, tolerance)

    def test_unconverged_lone_root_names_its_imbalance(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_STEPS", 3)
        with pytest.raises(NumericError, match="after 3 steps for imbalance 6$"):
            solve_lambda(6)

    def test_empty_input_gives_no_roots(self):
        for roots in (solve_lambda(np.array([], int)), solve_p_finite(np.array([], int), 5)):
            assert roots.dtype == np.float64 and roots.shape == (0,)

    def test_missing_sign_change_names_its_imbalance(self, monkeypatch):
        def flat_cdf(r, lam):
            return np.zeros(np.broadcast(r, lam).shape)

        monkeypatch.setattr(solver, "_poisson_cdf", flat_cdf)
        with pytest.raises(NumericError, match=r"no sign change on \[2.0, 3.0\] for imbalance 2"):
            solve_lambda(np.array([2, 3]))

    def test_missing_finite_sign_change_names_its_imbalance(self, monkeypatch):
        def flat_cdf(r, n, p):
            return np.zeros(np.broadcast(r, n, p).shape)

        monkeypatch.setattr(solver, "binomial_cdf", flat_cdf)
        message = (r"^finite-crowd solver: no sign change on \[2.0, 3.0\] "
                   r"for imbalance 2, crowd parameter 5$")
        with pytest.raises(NumericError, match=message):
            solve_p_finite(np.array([2, 3]), 5)


# Steps each finite-crowd root took by bisection, the loop before ITP, at
# tolerance 1e-12: imbalances down, crowd parameters across.
FINITE_DELTAS = (1, 2, 3, 5, 10, 40)
FINITE_MS = (40, 100, 2001, 10**4, 10**6)
BISECTION_STEPS = (
    (42, 45, 49, 51, 55),
    (43, 44, 49, 50, 58),
    (41, 44, 47, 50, 57),
    (42, 44, 47, 50, 58),
    (42, 43, 48, 49, 56),
    (1, 43, 45, 48, 54),
)


@cache
def brentq_lambda_root(delta: int) -> float:
    return brentq(
        lambda lam: float(pdtr(delta - 1, lam)) + float(pdtr(delta, lam)) - 1.0,
        delta, delta + 1, xtol=1e-300, rtol=4 * np.finfo(float).eps,
    )


class TestRootLoopCost:
    def test_rate_roots_take_six_steps(self, monkeypatch):
        calls = []

        def counting_cdf(r, lam):
            calls.append(lam.size)
            return pdtr(r, lam)

        monkeypatch.setattr(solver, "_poisson_cdf", counting_cdf)
        solve_lambda(np.arange(1, 3001))
        # Two for the bracket check, then one a step; bisection made 34.
        assert len(calls) <= 8

    def test_finite_crowd_roots_take_at_most_one_step_past_bisection(self, monkeypatch):
        calls = []
        binomial_cdf = solver.binomial_cdf

        def counting_cdf(*args):
            calls.append(1)
            return binomial_cdf(*args)

        monkeypatch.setattr(solver, "binomial_cdf", counting_cdf)
        steps = []
        for delta in FINITE_DELTAS:
            for m in FINITE_MS:
                calls.clear()
                solve_p_finite(delta, m)
                # Two calls for the bracket check, then one a step.
                steps.append(len(calls) - 2)
        bisection = np.ravel(BISECTION_STEPS)
        assert (np.array(steps) <= bisection + 1).all()
        # ITP on [0, 1] in p took 509 steps over the grid, bisection 1 435;
        # on [d, d + 1] in lam it takes 188, at most 7 a root.
        assert max(steps) <= 7
        assert sum(steps) <= 200


class TestBrentOracle:
    """Every root against scipy's brentq, to within tolerance / |residual'(root)|."""

    @pytest.mark.parametrize("tolerance", [1e-10, MAX_TOLERANCE])
    def test_rate_roots(self, tolerance):
        deltas = np.arange(1, 3001)
        roots = solve_lambda(deltas, tolerance)
        slopes = poisson.pmf(deltas - 1, roots) + poisson.pmf(deltas, roots)
        for delta, root, slope in zip(deltas.tolist(), roots.tolist(), slopes.tolist()):
            reference = brentq_lambda_root(delta)
            assert abs(root - reference) <= 1.01 * tolerance / slope + 1e-15 * reference

    def test_finite_crowd_roots(self):
        tolerance = 1e-12
        deltas = np.array(FINITE_DELTAS)[:, None]
        ms = np.array(FINITE_MS)[None, :]
        roots = solve_p_finite(deltas, ms, tolerance)
        n = deltas + ms
        slopes = n * (binom.pmf(deltas, n - 1, roots) + binom.pmf(deltas - 1, n - 1, roots))
        for (i, j), root in np.ndenumerate(roots):
            delta, m = FINITE_DELTAS[i], FINITE_MS[j]
            reference = brentq(
                lambda p: finite_m_balance(p, delta, m), 0.0, 1.0,
                xtol=1e-300, rtol=4 * np.finfo(float).eps,
            )
            bound = 1.01 * tolerance / slopes[i, j] + 1e-15 * reference
            assert abs(root - reference) <= bound, (delta, m)


class TestLambdaGap:
    def test_reference_gaps(self):
        assert solve_lambda(1) - 1 == pytest.approx(0.14619, abs=1e-5)
        assert solve_lambda(50) - 50 == pytest.approx(0.16623, abs=1e-5)

    def test_gap_500_near_asymptote(self):
        assert abs(solve_lambda(500) - 500 - 1.0 / 6.0) < 2e-4

    def test_strictly_increasing_and_bounded_to_1000(self):
        gaps = [solve_lambda(delta) - delta for delta in range(1, 1001)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert max(gaps) < 1.0 / 6.0 + 1e-3


class TestSolvePFinite:
    def test_small_case_matches_cubic_root(self):
        # With imbalance 1 and crowd parameter 2 the balance reduces to a
        # cubic in p; take its (0,1) root from an independent polynomial
        # solver: 3p^2(1-p) + p^3 = (1-p)^3  <=>  p^3 - 3p + 1 = 0.
        roots = np.roots([1.0, 0.0, -3.0, 1.0])
        oracle = next(
            float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1
        )
        assert solve_p_finite(1, 2, 1e-12) == pytest.approx(oracle, abs=1e-9)

    def test_small_case_matches_dense_scan(self):
        # Second, scan-based oracle: locate the sign change of the exact
        # three-trial balance on a fine grid and refine once.
        p = np.linspace(1e-6, 1 - 1e-6, 2_000_001)
        balance = (3 * p**2 * (1 - p) + p**3) - (1 - p) ** 3
        k = int(np.nonzero(np.diff(np.sign(balance)) != 0)[0][0])
        assert solve_p_finite(1, 2, 1e-12) == pytest.approx(float(p[k]), abs=1e-6)

    def test_large_crowd_approaches_poisson_limit(self):
        m = 10**6
        p = solve_p_finite(1, m, 1e-12)
        assert p * (m + 2) == pytest.approx(solve_lambda(1), abs=1e-3)

    def test_residual_at_root(self):
        for delta, m in ((1, 2), (2, 50), (3, 10**4)):
            p = solve_p_finite(delta, m, 1e-12)
            assert abs(finite_m_balance(p, delta, m)) < 1e-12

    def test_monotone_convergence_to_limit(self):
        for delta in (1, 2, 3):
            limit = solve_lambda(delta)
            errors = []
            for m in (10**2, 10**3, 10**4, 10**5):
                p = solve_p_finite(delta, m, 1e-12)
                errors.append(abs(p * (m + delta + 1) - limit))
            assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_unit_bracket_holds_over_the_crowd_range(self):
        # solve_p_finite's only bracket is lam = p * (m + delta + 1) in
        # [delta, delta + 1]; the balance must change sign inside it for
        # every delta <= m up to 300, and for delta <= min(m, 3000) in larger crowds.
        deltas, ms = np.triu_indices(300)
        deltas, ms = deltas + 1, ms + 1
        for m in (10**3, 10**4, 10**5, 10**6, 10**7):
            top = min(m, 3000)
            deltas = np.append(deltas, np.arange(1, top + 1))
            ms = np.append(ms, np.full(top, m))
        scale = ms + deltas + 1
        at_lo = finite_m_balance(deltas / scale, deltas, ms)
        at_hi = finite_m_balance((deltas + 1.0) / scale, deltas, ms)
        assert (at_lo < 0.0).all() and (at_hi > 0.0).all()

    def test_tolerance_must_lie_within_the_rate_solvers_bound(self):
        # The loop stops on the residual alone: at 0.9 and 0.1 it would stop
        # at p * (m + 2) = 2.507 and 1.221 here, where the root is 1.146.
        for tolerance in (0.9, 0.1, 1e-5, 0.0, -1e-12):
            with pytest.raises(ValueError, match=r"tolerance must lie in \(0, 1e-06\]"):
                solve_p_finite(1, 10**4, tolerance)
        root = solve_p_finite(1, 10**4, MAX_TOLERANCE)
        assert root == scalar_p_finite_root(1, 10**4, MAX_TOLERANCE)
        assert root * (10**4 + 2) == pytest.approx(solve_lambda(1), abs=1e-3)

    def test_matches_the_scalar_bisection_bit_for_bit(self):
        deltas = np.array([1, 2, 3, 5, 10, 40])
        ms = np.array([40, 100, 2001, 10**4, 10**6])
        roots = solve_p_finite(deltas[:, None], ms[None, :])
        assert roots.shape == (6, 5)
        expected = [[scalar_p_finite_root(d, m) for m in ms.tolist()] for d in deltas.tolist()]
        assert roots.tolist() == expected
        assert solve_p_finite(3, 2001, 1e-9) == scalar_p_finite_root(3, 2001, 1e-9)
        assert type(solve_p_finite(3, 2001)) is float

    def test_bad_entry_is_named(self):
        with pytest.raises(ValueError, match="imbalance 5 exceeds crowd parameter 3"):
            solve_p_finite([1, 5], 3)
        with pytest.raises(ValueError, match="got 0"):
            finite_m_balance(0.5, 1, [4, 0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_p_finite(0, 5)
        with pytest.raises(ValueError):
            solve_p_finite(3, 2)
        with pytest.raises(ValueError):
            finite_m_balance(0.5, 1, 0)


class TestLambdaTable:
    def test_entries_satisfy_residual_bound(self):
        table = LambdaTable(delta_max=40)
        for delta, lam in enumerate(table.roots.tolist(), start=1):
            assert abs(indifference_residual(lam, delta)) < 1e-10

    def test_lookup_exact_below_and_asymptote_above(self):
        table = LambdaTable(delta_max=12)
        assert table.lookup(3) == solve_lambda(3)
        assert table.lookup(13) == 13 + ASYMPTOTIC_GAP
        assert table.lookup(500) == 500 + ASYMPTOTIC_GAP

    def test_lookup_elementwise(self):
        table = LambdaTable(delta_max=12)
        deltas = np.array([1, 12, 13, 500])
        values = table.lookup(deltas)
        assert values.dtype == np.float64 and values.shape == (4,)
        assert values.tolist() == [table.lookup(d) for d in deltas.tolist()] == [
            solve_lambda(1), solve_lambda(12), 13 + ASYMPTOTIC_GAP, 500 + ASYMPTOTIC_GAP
        ]
        assert type(table.lookup(np.int64(12))) is float
        with pytest.raises(ValueError, match="got 0"):
            table.lookup(np.array([3, 0, 13]))

    def test_gap_above_zero_and_increasing(self):
        table = LambdaTable(delta_max=30)
        gaps = [table.roots[d - 1] - d for d in range(1, 31)]
        assert all(g > 0 for g in gaps)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_asymptote_error_small_at_table_edge(self):
        # The fallback jump at delta_max+1 is far below simulation noise.
        table = LambdaTable(delta_max=60)
        exact = solve_lambda(61)
        assert abs(table.lookup(61) - exact) < 1e-3

    def test_default_depth_covers_typical_population(self):
        assert default_delta_max(2001) >= 3 * 44
        with pytest.raises(ValueError):
            default_delta_max(0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            LambdaTable(delta_max=0)
        with pytest.raises(ValueError):
            LambdaTable(delta_max=5).lookup(0)


class TestNumericErrorPath:
    def test_error_type_is_arithmetic(self):
        assert issubclass(NumericError, ArithmeticError)
