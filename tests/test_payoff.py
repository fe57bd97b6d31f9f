"""Payoff and balanced-split infeasibility tests.

Dual-route checks are deliberate: the balanced-split impossibility is
witnessed both by the grid scan and by tracing the crowd-side root curve,
and the cross probabilities are checked against a Monte Carlo oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from mgstrat.payoff import (
    delta0_cross_probs,
    delta0_residual_gap_bound,
    delta0_residuals,
    expected_payoffs,
    infeasibility_scan,
    log_spaced_grid,
    payoff_curve,
    verify_no_cheat,
)
from mgstrat.solver import indifference_residual, solve_lambda


class TestExpectedPayoffs:
    def test_values_at_solved_rate_imbalance_1(self):
        q = expected_payoffs(1, 1.14619)
        assert q.thin_stay == pytest.approx(0.6821, abs=5e-4)
        assert q.thin_switch == pytest.approx(0.1091, abs=5e-4)
        assert q.crowd_stay == pytest.approx(0.3179, abs=5e-4)
        assert q.crowd_switch == pytest.approx(0.3178, abs=5e-4)

    def test_vanishing_switch_mass_limits(self):
        for delta in (1, 4):
            q = expected_payoffs(delta, 1e-12)
            assert q.thin_stay == pytest.approx(1.0, abs=1e-9)
            assert q.crowd_switch == pytest.approx(1.0, abs=1e-9)
            assert q.thin_switch == pytest.approx(0.0, abs=1e-9)
            assert q.crowd_stay == pytest.approx(0.0, abs=1e-9)

    def test_large_imbalance_tends_to_half(self):
        # The stay payoffs straddle 1/2 and close in on it; each switch
        # payoff trails its stay payoff by about two point masses, so it
        # converges more slowly and from below.
        q = expected_payoffs(50, 50.16623)
        assert q.thin_stay == pytest.approx(0.5, abs=0.05)
        assert q.crowd_stay == pytest.approx(0.5, abs=0.05)
        assert q.thin_switch == pytest.approx(0.5, abs=0.15)
        assert q.crowd_switch == pytest.approx(0.5, abs=0.15)
        assert q.thin_switch < q.thin_stay
        # the crowd side sits at its indifference point here, so its two
        # payoffs agree instead of being ordered
        assert q.crowd_switch == pytest.approx(q.crowd_stay, abs=1e-4)

    @given(
        delta=st.integers(min_value=1, max_value=60),
        lam=st.floats(min_value=1e-6, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_probabilities_in_unit_interval(self, delta, lam):
        q = expected_payoffs(delta, lam)
        for value in (q.thin_stay, q.thin_switch, q.crowd_stay, q.crowd_switch):
            assert 0.0 <= value <= 1.0

    def test_stay_payoffs_sum_to_one_exactly(self):
        for delta in range(1, 101):
            q = expected_payoffs(delta, solve_lambda(delta))
            assert q.thin_stay + q.crowd_stay == 1.0
        for delta, lam in ((1, 0.4), (3, 7.7), (10, 2.0)):
            q = expected_payoffs(delta, lam)
            assert q.thin_stay + q.crowd_stay == 1.0

    def test_crowd_margin_is_negated_solver_residual(self):
        # 1 - cdf(d) - cdf(d-1) == -(2 cdf(d-1) - 1 + pmf(d)): the payoff
        # balance and the solver residual are the same object.
        for delta, lam in ((1, 0.9), (2, 2.5), (7, 7.2), (40, 40.1)):
            q = expected_payoffs(delta, lam)
            margin = q.crowd_stay - q.crowd_switch
            assert margin == pytest.approx(
                -indifference_residual(lam, delta), abs=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            expected_payoffs(0, 1.0)
        with pytest.raises(ValueError):
            expected_payoffs(2, -1.0)


class TestVerifyNoCheat:
    def test_true_at_solved_rate(self):
        assert verify_no_cheat(1, 1.14619, 1e-4).ok
        assert verify_no_cheat(3, 3.15942, 1e-4).ok

    def test_false_off_the_root(self):
        report = verify_no_cheat(1, 2.0, 1e-4)
        assert not report.ok
        assert report.crowd_margin > 0

    def test_indifference_plus_strict_thin_preference_on_range(self):
        for delta in range(1, 101):
            report = verify_no_cheat(delta, solve_lambda(delta), tol=1e-8)
            assert report.ok
            assert abs(report.crowd_margin) < 1e-8
            assert report.thin_margin > 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            verify_no_cheat(1, 1.0, tol=0.0)


class TestPayoffCurve:
    def test_first_row(self):
        rows = payoff_curve(3)
        delta, thin, crowd = rows[0]
        assert delta == 1
        assert thin == pytest.approx(0.6821, abs=5e-4)
        assert crowd == pytest.approx(0.3179, abs=5e-4)

    def test_monotone_trend_toward_half(self):
        rows = payoff_curve(50)
        thin = [r[1] for r in rows]
        crowd = [r[2] for r in rows]
        assert all(b < a for a, b in zip(thin, thin[1:]))
        assert all(b > a for a, b in zip(crowd, crowd[1:]))
        assert all(t > 0.5 > c for t, c in zip(thin, crowd))
        assert thin[-1] == pytest.approx(0.5, abs=0.05)
        assert crowd[-1] == pytest.approx(0.5, abs=0.05)


def _coincidence_mass(lam_first: float, lam_second: float, shift: int) -> float:
    """P(first = second - shift) by direct truncated summation."""
    # past these counts less than 1e-12 of each Poisson mass remains
    top_f = int(np.ceil(lam_first + 12.0 * np.sqrt(lam_first) + 20.0))
    top_s = int(np.ceil(lam_second + 12.0 * np.sqrt(lam_second) + 20.0))
    pmf_f = poisson.pmf(np.arange(top_f + 1), lam_first)
    pmf_s = poisson.pmf(np.arange(top_s + 1), lam_second)
    total = 0.0
    for j in range(top_s + 1):
        i = j - shift
        if 0 <= i <= top_f:
            total += pmf_s[j] * pmf_f[i]
    return total


class TestCrossProbs:
    def test_exchange_symmetry_at_equal_means(self):
        c = delta0_cross_probs(1.0, 1.0)
        equal_mass = _coincidence_mass(1.0, 1.0, 0)
        assert c.ge == pytest.approx((1.0 + equal_mass) / 2.0, abs=1e-10)

    @given(
        lam_first=st.floats(min_value=0.05, max_value=20.0),
        lam_second=st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_strict_orderings_and_range(self, lam_first, lam_second):
        c = delta0_cross_probs(lam_first, lam_second)
        for value in (c.lt_minus_2, c.ge, c.lt_minus_1, c.ge_plus_1):
            assert 0.0 <= value <= 1.0
        assert c.lt_minus_2 < c.lt_minus_1
        assert c.ge_plus_1 < c.ge

    def test_matches_truncated_double_sums(self):
        for lam_first, lam_second in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.7), (20.0, 0.05)):
            c = delta0_cross_probs(lam_first, lam_second)
            first, second = np.ogrid[:80, :80]
            joint = poisson.pmf(first, lam_first) * poisson.pmf(second, lam_second)
            assert c.lt_minus_2 == pytest.approx(joint[first < second - 2].sum(), abs=1e-14)
            assert c.ge == pytest.approx(joint[first >= second].sum(), abs=1e-14)
            assert c.lt_minus_1 == pytest.approx(joint[first < second - 1].sum(), abs=1e-14)
            assert c.ge_plus_1 == pytest.approx(joint[first >= second + 1].sum(), abs=1e-14)

    def test_monte_carlo_oracle(self):
        c = delta0_cross_probs(1.0, 1.0)
        rng = np.random.default_rng(42)
        samples = 10**7
        first = rng.poisson(1.0, samples)
        second = rng.poisson(1.0, samples)
        estimate = float(np.mean(first < second - 1))
        stderr = np.sqrt(estimate * (1 - estimate) / samples)
        assert abs(c.lt_minus_1 - estimate) < 4 * stderr

    def test_complement_identities(self):
        # ge is the exact complement of lt_minus_... events one index over:
        # P(first >= second) = 1 - P(first < second), linked through the
        # coincidence masses.
        c = delta0_cross_probs(0.7, 1.3)
        lt = c.lt_minus_1 + _coincidence_mass(0.7, 1.3, 1)  # P(first < second)
        assert c.ge == pytest.approx(1.0 - lt, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta0_cross_probs(0.0, 1.0)
        with pytest.raises(ValueError):
            delta0_cross_probs(1.0, -2.0)


class TestBalancedSplitInfeasibility:
    def test_residual_gap_is_minus_coincidence_masses(self):
        for lam_first, lam_second in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.7)):
            gap = delta0_residual_gap_bound(lam_first, lam_second)
            direct = -(
                _coincidence_mass(lam_first, lam_second, 2)
                + _coincidence_mass(lam_first, lam_second, 0)
            )
            assert gap == pytest.approx(direct, abs=1e-10)
            assert gap < 0

    def test_single_point_has_no_joint_root(self):
        res_thin, res_crowd = delta0_residuals(1.0, 1.0)
        assert abs(res_thin) > 1e-4 or abs(res_crowd) > 1e-4

    def test_scan_on_coarse_grid(self):
        report = infeasibility_scan(log_spaced_grid(0.05, 20.0, 12), tol=1e-4)
        assert report.no_joint_root
        assert report.orderings_hold
        assert report.points_checked == 144
        assert report.min_max_residual > 1e-4

    def test_scan_agrees_with_pointwise_cross_probs(self):
        grid = log_spaced_grid(0.05, 20.0, 7)
        report = infeasibility_scan(grid, tol=1e-4)
        scores = [
            max(abs(c.lt_minus_2 - c.ge), abs(c.lt_minus_1 - c.ge_plus_1))
            for c in (delta0_cross_probs(a, b) for a, b in grid)
        ]
        best = int(np.argmin(scores))
        assert report.min_max_residual == scores[best]
        assert report.worst_point == grid[best]

    def test_crowd_root_curve_leaves_thin_residual_negative(self):
        # Trace the curve where the crowd-side residual vanishes (it is
        # increasing in the second mean) and confirm the thin-side residual
        # stays strictly negative along it.
        for lam_first in (0.5, 1.0, 2.0, 5.0):
            lo, hi = 1e-3, 40.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if delta0_residuals(lam_first, mid)[1] < 0.0:
                    lo = mid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
            res_thin, res_crowd = delta0_residuals(lam_first, root)
            assert abs(res_crowd) < 1e-8
            assert res_thin < -1e-6

    def test_scan_input_validation(self):
        with pytest.raises(ValueError):
            infeasibility_scan([], tol=1e-4)
        with pytest.raises(ValueError):
            infeasibility_scan([(0.0, 1.0)], tol=1e-4)
        with pytest.raises(ValueError):
            infeasibility_scan([(1.0, 25.0)], tol=1e-4)

    def test_grid_helper_shape_and_bounds(self):
        grid = log_spaced_grid(0.05, 20.0, 50)
        assert len(grid) == 2500
        firsts = sorted({a for a, _ in grid})
        assert firsts[0] == pytest.approx(0.05)
        assert firsts[-1] == pytest.approx(20.0)
