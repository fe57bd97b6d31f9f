"""Poisson and binomial probability kernels.

The cumulative distributions are validated wrappers over scipy's
regularized incomplete gamma and beta functions (``pdtr`` and ``betaincc``),
so each value costs O(1) whatever the count.  Both kernels are elementwise
over arrays, name the first bad entry in their ``ValueError`` and give a
float for scalar input.  The two ufuncs are loaded on the first call
(``_special``), straight from ``scipy.special._ufuncs``: subcommands that
never evaluate a CDF (``kpr``, ``--version``) load no scipy at all, and the
rest run none of scipy's package start-ups: ``scipy.special``'s array-API
layer alone imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``
(~0.2 s).
"""

from __future__ import annotations

import importlib.util
import sys
from functools import cache
from importlib.machinery import PathFinder
from types import ModuleType

import numpy as np

from ._checks import float_or_array, integers, means, probabilities

__all__ = [
    "poisson_cdf",
    "binomial_cdf",
]


@cache
def _special() -> ModuleType:
    """``scipy.special._ufuncs``, loaded once without running a scipy package ``__init__``.

    The package start-ups buy the kernels nothing: ``scipy``'s own (~8 ms)
    loads ``scipy.__config__`` and ``scipy._lib``'s test utilities, and
    through them ``subprocess``; ``scipy.special``'s is covered above.
    ``scipy.special.pdtr`` and ``betaincc`` are these very ufunc objects.
    Each parent package not loaded yet stands in as a placeholder made from
    its spec, which runs no package code, and is removed again once the
    extension is loaded.  ``scipy._distributor_init``, the one hook scipy's
    start-up gives a distribution for setting up its libraries, still runs
    first.  A later ``import scipy.special`` reuses the loaded extension.
    A cached call costs ~0.1 us, and one after ``cache_clear`` a dict lookup.
    """
    name = "scipy.special._ufuncs"
    if name in sys.modules:
        return sys.modules[name]
    placeholders = []
    try:
        for parent in ("scipy", "scipy._lib", "scipy.special"):
            if parent not in sys.modules:
                package = parent.rpartition(".")[0]
                path = sys.modules[package].__path__ if package else None
                sys.modules[parent] = importlib.util.module_from_spec(
                    PathFinder.find_spec(parent, path)
                )
                placeholders.append(parent)
        importlib.import_module("scipy._distributor_init")
        return importlib.import_module(name)
    finally:
        for parent in placeholders:
            del sys.modules[parent]


def _poisson_cdf(r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``poisson_cdf`` without its checks, for callers that checked r and lam once."""
    return _special().pdtr(r, lam)


def poisson_cdf(r: np.typing.ArrayLike, lam: np.typing.ArrayLike) -> float | np.ndarray:
    """P(X <= r) for X ~ Poisson(lam), elementwise; a float for scalar input."""
    integers(r, "r", 0)
    return float_or_array(_poisson_cdf(r, means(lam)))


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
    tail = _special().betaincc(r + 1, np.where(below, n - r, 1), p)
    return float_or_array(np.where(below, tail, 1.0))
