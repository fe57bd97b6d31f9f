"""Poisson and binomial probability kernels.

The cumulative distributions are validated wrappers over scipy's
regularized incomplete gamma and beta functions, so each value costs O(1)
whatever the count.  P(X <= r) for X ~ Poisson(lam) is ``gammaincc(r + 1,
lam)``, which is how cephes evaluates ``pdtr``, so the two agree bit for
bit.  Both kernels are elementwise over arrays, name the first bad entry in
their ``ValueError`` and give a float for scalar input.  The ufuncs are
loaded on first use (``_special``) straight from scipy's compiled
extensions, through the placeholder loader ``_checks.import_bare`` that
``derive_rng`` shares, so ``kpr`` and ``--version`` load no scipy at all,
and the rest run none of scipy's package start-ups: ``scipy.special``'s
array-API layer alone imports ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma`` (~0.2 s).
``gammaincc`` comes from ``_special_ufuncs``, which links only the C++
runtime and libm; ``betaincc`` and ``pdtr`` live in ``_ufuncs``, which links
scipy's own OpenBLAS and libgfortran and loads six more extensions, so only
``binomial_cdf`` (which no CLI subcommand calls) loads it.
"""

from __future__ import annotations

from functools import cache
from types import ModuleType

import numpy as np

from ._checks import float_or_array, import_bare, integers, means, probabilities

__all__ = [
    "poisson_cdf",
    "binomial_cdf",
]


@cache
def _special(extension: str) -> ModuleType:
    """``scipy.special.<extension>``, loaded once without running a scipy package ``__init__``.

    The package start-ups buy the kernels nothing: ``scipy``'s own (~8 ms)
    loads ``scipy.__config__`` and ``scipy._lib``'s test utilities, and
    through them ``subprocess``; ``scipy.special``'s is covered above.
    ``scipy.special.gammaincc`` and ``betaincc`` are these very ufunc
    objects.  ``_checks.import_bare`` loads the extension under placeholder
    ``scipy``, ``scipy._lib`` and ``scipy.special`` parents, as
    ``derive_rng`` loads numpy's generator.  ``scipy._distributor_init``,
    the one hook scipy's start-up gives a distribution for setting up its
    libraries, still runs first.  A later ``import scipy.special`` reuses
    the loaded extension.  A cached call costs ~0.1 us, and one after
    ``cache_clear`` two dict lookups.
    """
    return import_bare(
        ("scipy", "scipy._lib", "scipy.special"),
        "scipy._distributor_init", f"scipy.special.{extension}",
    )[-1]


@cache
def _gammaincc() -> np.ufunc:
    """scipy's ``gammaincc``, from ``_special_ufuncs``, or else from ``_ufuncs``.

    An older scipy whose ``_special_ufuncs`` is missing or has no
    ``gammaincc`` still has the same kernel in ``_ufuncs``.
    """
    try:
        return _special("_special_ufuncs").gammaincc
    except (ModuleNotFoundError, AttributeError):
        return _special("_ufuncs").gammaincc


def _upper_gamma(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Q(a, lam), the regularized upper incomplete gamma function, unchecked.

    At a = r + 1 for a whole r this is P(X <= r) for X ~ Poisson(lam).
    Callers form the shapes as ``r + 1.0``, in double as ``pdtr`` does:
    ``r + 1`` would wrap at int64 r = 2**63 - 1, where ``pdtr`` gives 1.
    """
    return _gammaincc()(a, lam)


def poisson_cdf(r: np.typing.ArrayLike, lam: np.typing.ArrayLike) -> float | np.ndarray:
    """P(X <= r) for X ~ Poisson(lam), elementwise; a float for scalar input."""
    r = integers(r, "r", 0)
    return float_or_array(_upper_gamma(r + 1.0, means(lam)))


def binomial_cdf(
    r: np.typing.ArrayLike, n: np.typing.ArrayLike, p: np.typing.ArrayLike
) -> float | np.ndarray:
    """P(X <= r) for X ~ Binomial(n, p), elementwise; a float for scalar input."""
    r = integers(r, "r", 0)
    n = integers(n, "n", 0)
    p = probabilities(p)
    below = r < n
    # 1 - I_p(r + 1, n - r), and 1 wherever r >= n (b = 1 only keeps those
    # masked-out evaluations valid).  scipy's bdtr evaluates
    # I_{1-p}(n - r, r + 1) instead, and rounding 1 - p costs it ~n*eps of
    # relative accuracy when p is small (4.5e-10 at n = 1e6, p = 2e-6).
    tail = _special("_ufuncs").betaincc(r + 1, np.where(below, n - r, 1), p)
    return float_or_array(np.where(below, tail, 1.0))
