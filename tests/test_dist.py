"""Probability-kernel tests.

Closed-form oracle values are frozen as decimal literals; scipy.stats is
used as an independent second implementation where a cross-library check
adds value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from mgstrat.dist import binomial_cdf, poisson_cdf, skellam_cdf

# Frozen closed-form oracle at lam = 1.14619: cdf(1) = (1 + lam) e^-lam.
LAM_1 = 1.14619
CDF1_ORACLE = 0.6821567404088056


class TestPoissonCdf:
    def test_zero_mean(self):
        assert poisson_cdf(10, 0.0) == 1.0

    def test_two_term_sum(self):
        assert poisson_cdf(1, LAM_1) == pytest.approx(CDF1_ORACLE, abs=1e-12)

    def test_telescoping_identity(self):
        r, lam = 3, 5.16229
        gap = poisson_cdf(r + 1, lam) - poisson_cdf(r, lam)
        assert gap == pytest.approx(float(sps.poisson.pmf(r + 1, lam)), abs=1e-14)

    def test_monotone_in_count_and_limit_one(self):
        lam = 7.3
        values = [poisson_cdf(r, lam) for r in range(0, 80)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        for lam in (0.5, 2.15592, 50.16623):
            for r in (0, 1, 3, 10, 60):
                assert poisson_cdf(r, lam) == pytest.approx(
                    float(sps.poisson.cdf(r, lam)), rel=1e-12
                )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            poisson_cdf(2, -1.0)


class TestBinomial:
    def test_no_successes_when_impossible(self):
        for n in (0, 1, 7, 100):
            assert binomial_cdf(0, n, 0.0) == 1.0

    def test_all_successes_when_certain(self):
        assert binomial_cdf(4, 5, 1.0) == 0.0
        assert binomial_cdf(5, 5, 1.0) == 1.0

    def test_exact_rational_case(self):
        # (1/2)^3 + 3 * (1/2)^3
        assert binomial_cdf(1, 3, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_normalization_large_n(self):
        n = 10**4
        for p in (0.003, 0.25, 0.5, 0.97):
            values = [binomial_cdf(r, n, p) for r in range(0, n + 1, 97)]
            assert all(0.0 <= a <= b <= 1.0 for a, b in zip(values, values[1:]))
            assert binomial_cdf(n, n, p) == 1.0

    def test_matches_scipy(self):
        # successive differences of the cdf against scipy's pmf
        for n, p in ((12, 0.3), (1004, 0.0031468), (10**6, 2.15592e-6)):
            cdf = [binomial_cdf(r, n, p) for r in range(6)]
            for r in (0, 1, 2, 5):
                mass = cdf[r] - (cdf[r - 1] if r else 0.0)
                assert mass == pytest.approx(float(sps.binom.pmf(r, n, p)), rel=1e-9)

    def test_poisson_limit_law(self):
        lam, n = 2.15592, 10**6
        worst = max(
            abs(binomial_cdf(r, n, lam / n) - poisson_cdf(r, lam))
            # counts 0..40 hold all but 1e-12 of the Poisson(lam) mass
            for r in range(41)
        )
        assert worst < 1e-3

    def test_cdf_edges_and_scipy(self):
        assert binomial_cdf(3, 10, 0.0) == 1.0
        assert binomial_cdf(9, 10, 1.0) == 0.0
        assert binomial_cdf(10, 10, 1.0) == 1.0
        for n, p, r in ((30, 0.4, 11), (1001, 0.002, 3), (10**5, 1e-5, 0)):
            assert binomial_cdf(r, n, p) == pytest.approx(
                float(sps.binom.cdf(r, n, p)), rel=1e-10
            )

    @given(
        r=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=0, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_under_complement(self, r, n, p):
        # P(X <= r) = 1 - P(n - X <= n - r - 1), and n - X ~ Binomial(n, 1 - p)
        if r >= n:
            assert binomial_cdf(r, n, p) == 1.0
            return
        assert binomial_cdf(r, n, p) == pytest.approx(
            1.0 - binomial_cdf(n - r - 1, n, 1.0 - p), abs=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_cdf(1, 3, 1.5)
        with pytest.raises(ValueError):
            binomial_cdf(-1, 3, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(1, -2, 0.5)


def skellam_by_summation(k, lam_first, lam_second):
    """P(X - Y <= k) as a sum of P(Y = y) P(X <= y + k) over y."""
    y = np.arange(200)
    return float(np.sum(sps.poisson.pmf(y, lam_second) * sps.poisson.cdf(y + k, lam_first)))


class TestSkellam:
    def test_matches_direct_summation(self):
        for lam_first, lam_second in ((1.0, 1.0), (0.3, 2.0), (20.0, 0.05), (0.05, 20.0)):
            for k in range(-5, 5):
                assert float(skellam_cdf(k, lam_first, lam_second)) == pytest.approx(
                    skellam_by_summation(k, lam_first, lam_second), abs=1e-14
                ), (k, lam_first, lam_second)

    def test_elementwise_over_arrays(self):
        first = np.array([0.5, 1.0, 7.0])
        second = np.array([[2.0], [0.1]])
        values = skellam_cdf(-1, first, second)
        assert values.shape == (2, 3)
        for i, j in np.ndindex(values.shape):
            assert values[i, j] == float(skellam_cdf(-1, first[j], second[i, 0]))

    def test_zero_means(self):
        assert float(skellam_cdf(-1, 3.0, 0.0)) == 0.0
        assert float(skellam_cdf(0, 0.0, 3.0)) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            skellam_cdf(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            skellam_cdf(0, [1.0, -0.5], 1.0)
        with pytest.raises(ValueError):
            skellam_cdf(0, 1.0, np.inf)

