"""Poisson and binomial probability kernels.

The cumulative distributions are validated wrappers over scipy's
regularized incomplete gamma and beta functions (``pdtr`` and ``betaincc``),
so each value costs O(1) whatever the count.  Both kernels are elementwise
over arrays, name the first bad entry in their ``ValueError`` and give a
float for scalar input.  The two ufuncs are loaded on the first call
(``_special``), straight from ``scipy.special._ufuncs``: subcommands that
never evaluate a CDF (``kpr``, ``--version``) load no scipy at all, and the
rest skip the ``scipy.special`` package start-up, whose array-API layer
imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` (~0.2 s).
"""

from __future__ import annotations

import importlib.util
import sys
from functools import cache
from types import ModuleType

import numpy as np

from ._checks import float_or_array, integers, means, probabilities

__all__ = [
    "poisson_cdf",
    "binomial_cdf",
]


@cache
def _special() -> ModuleType:
    """``scipy.special._ufuncs``, loaded once without running ``scipy.special``'s ``__init__``.

    The package start-up (~0.2 s, most of it an array-API layer) buys the
    kernels nothing: ``scipy.special.pdtr`` and ``betaincc`` are these very
    ufunc objects.  Unless the real package is loaded already, the extension
    is imported under a placeholder parent made from the package's spec,
    which runs no package code, and the placeholder is removed again; a
    later ``import scipy.special`` reuses the loaded extension.  A cached
    call costs ~0.1 us, and one after ``cache_clear`` a dict lookup.
    """
    name = "scipy.special._ufuncs"
    if name not in sys.modules and "scipy.special" not in sys.modules:
        spec = importlib.util.find_spec("scipy.special")
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        try:
            return importlib.import_module(name)
        finally:
            del sys.modules[spec.name]
    return sys.modules.get(name) or importlib.import_module(name)


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
