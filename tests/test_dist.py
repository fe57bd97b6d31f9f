"""Probability-kernel tests.

Closed-form oracle values are frozen as decimal literals; scipy.stats is
used as an independent second implementation where a cross-library check
adds value.
"""

import json
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import pdtr
from test_cli import _python

from mgstrat import _checks, dist, solver
from mgstrat._checks import derive_rng
from mgstrat.cli import MAX_DELTA_MAX
from mgstrat.dist import _special, binomial_cdf, poisson_cdf

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

    def test_elementwise_over_arrays(self):
        r = np.array([[0, 3, 10], [2, 2, 40]])
        lam = np.array([0.5, 2.15592, 50.16623])
        values = poisson_cdf(r, lam)
        assert values.shape == (2, 3)
        for i, j in np.ndindex(values.shape):
            assert values[i, j] == poisson_cdf(int(r[i, j]), float(lam[j]))
        assert type(poisson_cdf(3, 2.0)) is float
        assert type(poisson_cdf(np.array(3), np.float64(2.0))) is float

    def test_bad_entry_is_named(self):
        with pytest.raises(ValueError, match="got 2.5"):
            poisson_cdf([1, 2.5], 1.0)
        with pytest.raises(ValueError, match="got -1"):
            poisson_cdf(np.array([1, -1]), 1.0)
        with pytest.raises(ValueError, match="got nan"):
            poisson_cdf(2, [1.0, np.nan])
        with pytest.raises(ValueError, match="got inf"):
            poisson_cdf([np.inf, 1.0], 1.0)

    def test_bad_entry_is_named_in_long_arrays(self):
        # A bad entry deep inside an array is named, whichever argument holds it.
        r = np.arange(20)
        r[15] = -3
        with pytest.raises(ValueError, match="got -3"):
            poisson_cdf(r, 1.0)
        lam = np.linspace(0.0, 5.0, 20)
        lam[11] = np.inf
        with pytest.raises(ValueError, match="got inf"):
            poisson_cdf(2, lam)
        with pytest.raises(ValueError, match="got 4.5"):
            poisson_cdf(np.r_[np.arange(12.0), 4.5], 1.0)
        lam[11] = 2.0
        assert poisson_cdf(np.arange(20.0), lam).tolist() == poisson_cdf(np.arange(20), lam).tolist()


def assert_same_bits(values, expected):
    """The very same doubles: float64 bit patterns compared, so -0.0 != 0.0."""
    values, expected = (np.asarray(v, dtype=np.float64) for v in (values, expected))
    assert values.shape == expected.shape
    np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))


# Counts past 2**53 round to a double on the way into the kernel, and
# 2**63 - 1 is where an integer r + 1 wraps to -2**63.
HUGE_COUNTS = (2**53, 2**53 + 1, 2**62, 2**63 - 1)


class TestPdtrBitIdentity:
    """gammaincc(r + 1.0, lam) is scipy's pdtr(r, lam), bit for bit."""

    def test_the_cli_domain(self):
        # Every count a table up to MAX_DELTA_MAX asks for, at the bracket
        # ends, the large-d root d + 1/6, the midpoint and the zero mean.
        r = np.arange(MAX_DELTA_MAX + 1)
        for lam in (0.0, r, r + 1 / 6, r + 0.5, r + 1.0):
            assert_same_bits(poisson_cdf(r, lam), pdtr(r, lam))

    def test_the_solver_kernel_over_the_cli_domain(self):
        d = np.arange(1, MAX_DELTA_MAX + 1)
        counts = np.stack((d - 1, d))
        for lam in (d, d + 1 / 6, d + 0.5, d + 1.0):
            lam = lam.astype(np.float64)
            assert_same_bits(dist._upper_gamma(solver._shapes(d), lam), pdtr(counts, lam))

    def test_random_means(self):
        rng = np.random.default_rng(20110222)
        lam = rng.uniform(0.0, 50.0, 200_000)
        r = rng.integers(0, 120, lam.size)
        assert_same_bits(poisson_cdf(r, lam), pdtr(r, lam))

    def test_integral_float_and_scalar_counts(self):
        r = np.arange(0.0, 3000.0)
        lam = np.linspace(0.0, 3100.0, r.size)
        assert_same_bits(poisson_cdf(r, lam), pdtr(r, lam))
        for count, mean in ((0, 0.0), (1, 1.14619), (7, 7.5), (1000, 1000.0), (5.0, 2.5)):
            value = poisson_cdf(count, mean)
            assert type(value) is float
            assert_same_bits(value, pdtr(count, mean))

    def test_counts_past_double_precision_and_the_int64_edge(self):
        r = np.array(HUGE_COUNTS)
        for lam in (0.0, 1.0, 1e7, 2.0**53, 2.0**62, 2.0**63):
            assert_same_bits(poisson_cdf(r, lam), pdtr(r, lam))
        for count in HUGE_COUNTS:
            assert_same_bits(poisson_cdf(count, float(count)), pdtr(count, float(count)))

    @given(
        r=st.integers(min_value=0, max_value=2**63 - 1),
        lam=st.floats(min_value=0.0, max_value=1e7),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_int64_count(self, r, lam):
        assert_same_bits(poisson_cdf(np.int64(r), lam), pdtr(np.int64(r), lam))

    def test_indifference_residual_is_the_pdtr_formula(self):
        d = np.r_[np.arange(1, 3001), 2**53 + 2, 2**62, 2**63 - 1]
        for offset in (0.0, 1 / 6, 0.5, 1.0):
            lam = d + offset
            assert_same_bits(
                solver.indifference_residual(lam, d), pdtr(d - 1, lam) + pdtr(d, lam) - 1.0
            )
        assert_same_bits(
            solver.indifference_residual(2.0**63, 2**63 - 1),
            pdtr(2**63 - 2, 2.0**63) + pdtr(2**63 - 1, 2.0**63) - 1.0,
        )


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

    def test_elementwise_over_arrays(self):
        r = np.array([0, 3, 5, 7, 12])
        n = np.array([[5], [12]])
        values = binomial_cdf(r, n, 0.3)
        assert values.shape == (2, 5)
        for i, j in np.ndindex(values.shape):
            assert values[i, j] == binomial_cdf(int(r[j]), int(n[i, 0]), 0.3)
        assert values[0, 2:].tolist() == [1.0, 1.0, 1.0]  # r >= n
        assert type(binomial_cdf(1, 3, 0.5)) is float

    def test_bad_entry_is_named(self):
        with pytest.raises(ValueError, match="got 1.5"):
            binomial_cdf(1, 3, [0.5, 1.5])
        with pytest.raises(ValueError, match="got -2"):
            binomial_cdf(1, [3, -2], 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_cdf(1, 3, 1.5)
        with pytest.raises(ValueError):
            binomial_cdf(-1, 3, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(1, -2, 0.5)


def _fresh_lines(code: str) -> list[str]:
    """The stdout lines of ``code`` run on the mgstrat under test in a fresh process."""
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


class TestSpecialLoader:
    def test_a_rate_subcommand_runs_no_scipy_package_init(self, tmp_path):
        # scipy's own start-up would load scipy.__config__ and scipy._lib's
        # test utilities, and through them subprocess; its distributor hook
        # still runs.  A later real import shares the loaded ufuncs.
        code = (
            "import json, sys\n"
            "from mgstrat import dist\n"
            "from mgstrat.cli import main\n"
            f"assert main(['solve-lambda', '--delta-max', '5', '--outdir', {str(tmp_path)!r}]) == 0\n"
            "names = ['scipy', 'scipy._lib', 'scipy.special', 'scipy.__config__',\n"
            "         'scipy._lib._testutils', 'subprocess', 'scipy._distributor_init']\n"
            "loaded = [name for name in names if name in sys.modules]\n"
            "import scipy.special, scipy.stats\n"
            "same = scipy.special.gammaincc is dist._special('_special_ufuncs').gammaincc\n"
            "print(json.dumps([loaded, same, scipy.stats.poisson.cdf(1, 1.0)]))\n"
        )
        loaded, same, cdf = json.loads(_fresh_lines(code)[-1])
        assert loaded == ["scipy._distributor_init"]
        assert same is True
        assert cdf == pytest.approx(2 / math.e, rel=1e-15)

    def test_only_the_missing_parents_get_placeholders(self, tmp_path):
        # With scipy itself loaded, only scipy.special stands in: a
        # placeholder over a loaded package would be dropped with it.
        code = (
            "import json, sys\n"
            "import scipy\n"
            "from mgstrat.cli import main\n"
            "packages = {name: sys.modules[name] for name in ('scipy', 'scipy._lib')}\n"
            f"assert main(['solve-lambda', '--delta-max', '5', '--outdir', {str(tmp_path)!r}]) == 0\n"
            "kept = [sys.modules.get(name) is module for name, module in packages.items()]\n"
            "print(json.dumps([kept, 'scipy.special' in sys.modules,\n"
            "                  'scipy.special._special_ufuncs' in sys.modules,\n"
            "                  'scipy.special._ufuncs' in sys.modules]))\n"
        )
        assert json.loads(_fresh_lines(code)[-1]) == [[True, True], False, True, False]

    def test_keeps_an_already_loaded_scipy_special(self):
        import scipy.special

        _special.cache_clear()
        extension = _special("_special_ufuncs")
        assert sys.modules["scipy.special"] is scipy.special
        assert extension.gammaincc is scipy.special.gammaincc

    def test_binomial_cdf_loads_the_ufuncs_on_its_first_call(self):
        # Only betaincc needs scipy.special._ufuncs; the Poisson CDF leaves it
        # out, and a later real import shares the one the first call loaded.
        code = (
            "import json, sys\n"
            "from mgstrat import dist\n"
            "dist.poisson_cdf(3, 2.0)\n"
            "before = 'scipy.special._ufuncs' in sys.modules\n"
            "value = dist.binomial_cdf(1, 3, 0.5)\n"
            "after = 'scipy.special._ufuncs' in sys.modules\n"
            "import scipy.special\n"
            "same = scipy.special.betaincc is dist._special('_ufuncs').betaincc\n"
            "print(json.dumps([before, after, same, value]))\n"
        )
        assert json.loads(_fresh_lines(code)[-1]) == [False, True, True, 0.5]

    @pytest.mark.parametrize("refusal", ["missing", "without gammaincc"])
    def test_the_fallback_gives_identical_values(self, monkeypatch, refusal):
        # A scipy whose _special_ufuncs is missing, or has no gammaincc, takes
        # gammaincc from _ufuncs.  (Here _ufuncs itself imports
        # _special_ufuncs, so the refusal goes through the loader, not the
        # import system.)
        r = np.arange(0, 3000, 7)
        lam = np.linspace(0.0, 3100.0, r.size)
        expected = poisson_cdf(r, lam)
        load = dist._special

        def refusing(extension):
            if extension != "_special_ufuncs":
                return load(extension)
            if refusal == "missing":
                raise ModuleNotFoundError("no _special_ufuncs", name=extension)
            return types.ModuleType(extension)

        monkeypatch.setattr(dist, "_special", refusing)
        dist._gammaincc.cache_clear()
        try:
            assert dist._gammaincc() is load("_ufuncs").gammaincc
            assert_same_bits(poisson_cdf(r, lam), expected)
            assert_same_bits(poisson_cdf(r, lam), pdtr(r, lam))
        finally:
            dist._gammaincc.cache_clear()

    def test_failed_load_propagates_and_leaves_no_placeholder(self):
        # An extension that is there but fails to load is not missing: its
        # error propagates, and no fallback hides it.
        code = (
            "import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy.special._special_ufuncs':\n"
            "            raise ImportError('refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from mgstrat.dist import poisson_cdf\n"
            "try:\n"
            "    poisson_cdf(1, 1.0)\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
        )
        assert _fresh_lines(code) == ["refused", "[]"]


class TestGeneratorLoader:
    # derive_rng loads numpy's Generator, PCG64 and SeedSequence through the
    # loader dist._special uses, without numpy.random's package start-up.
    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1])
    @pytest.mark.parametrize("key", [(0,), (3, 2**40), (1, 0, 7)])
    def test_draws_equal_default_rng(self, seed, key):
        ours, theirs = derive_rng(seed, *key), np.random.default_rng([seed, *key])
        assert np.array_equal(ours.integers(2**62, size=64), theirs.integers(2**62, size=64))
        for child, twin in zip(ours.spawn(2), theirs.spawn(2)):
            assert np.array_equal(child.random(16), twin.random(16))

    def test_a_later_numpy_random_reuses_the_loaded_classes(self):
        code = (
            "import json, sys\n"
            "from mgstrat._checks import derive_rng\n"
            "rng = derive_rng(1)\n"
            "before = 'numpy.random' in sys.modules\n"
            "import numpy as np\n"
            "import numpy.random\n"
            "print(json.dumps([before, np.random.Generator is type(rng),\n"
            "                  np.random.PCG64 is type(rng.bit_generator),\n"
            "                  np.random.SeedSequence is type(rng.bit_generator.seed_seq),\n"
            "                  rng.random() == np.random.default_rng(1).random()]))\n"
        )
        assert json.loads(_fresh_lines(code)[-1]) == [False, True, True, True, True]

    def test_a_refused_module_takes_the_package_path(self, monkeypatch):
        expected = np.random.default_rng([5, 1]).random(32)
        load = _checks.import_bare

        def refusing(parents, *names):
            if "numpy.random._generator" in names:
                raise ModuleNotFoundError("no _generator", name="numpy.random._generator")
            return load(parents, *names)

        monkeypatch.setattr(_checks, "import_bare", refusing)
        _checks._pcg64.cache_clear()
        try:
            assert _checks._pcg64() == (
                np.random.Generator, np.random.PCG64, np.random.SeedSequence
            )
            assert np.array_equal(derive_rng(5, 1).random(32), expected)
        finally:
            _checks._pcg64.cache_clear()

    def test_failed_load_propagates_and_leaves_no_placeholder(self):
        code = (
            "import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy.random._pcg64':\n"
            "            raise ImportError('refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from mgstrat._checks import derive_rng\n"
            "try:\n"
            "    derive_rng(1)\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert _fresh_lines(code) == ["refused", "False"]
