"""Argument checks shared by every module that takes numbers from a caller.

Each elementwise check takes a scalar or an array, raises ``ValueError``
naming the first bad entry, and returns the entries as an array.
``float_or_array`` gives the result back as a float when the input was
scalar, and ``count`` checks one integer argument.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Up to this many entries, testing the listed values in Python beats numpy's
# fixed cost of ~1 us a call.  The bisection checks one- and two-entry
# arrays at every step once a single root is left open.
_FEW = 8


def _first_bad(
    array: np.ndarray, ok: Callable[[np.ndarray], np.ndarray]
) -> float | int | None:
    """The first entry that fails ``ok``, or None when every entry passes.

    ``ok`` must accept both an array and a Python number.
    """
    if array.size <= _FEW:
        if all(map(ok, array.ravel().tolist())):
            return None
    elif np.count_nonzero(ok(array)) == array.size:
        return None
    return array[~ok(array)].flat[0]


def integers(values: np.typing.ArrayLike, name: str, minimum: int) -> np.ndarray:
    """Entries that are whole numbers of at least ``minimum``; integral floats pass."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be an integer, got {values!r}")
    if array.dtype.kind == "f":
        bad = _first_bad(
            array, lambda x: (x >= minimum) & (x < np.inf) & (x == np.floor(x))
        )
    else:
        bad = _first_bad(array, lambda x: x >= minimum)
    if bad is not None:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {bad}")
    return array


def count(value: int, name: str, minimum: int) -> int:
    """``value`` as one int of at least ``minimum``; integral floats pass."""
    array = integers(value, name, minimum)
    if array.ndim:
        raise ValueError(f"{name} must be a single integer, got {value!r}")
    return int(array)


def means(
    values: np.typing.ArrayLike, name: str = "mean", positive: bool = False
) -> np.ndarray:
    """Finite float64 entries, nonnegative or (with ``positive``) above zero."""
    array = np.asarray(values, dtype=np.float64)
    if positive:
        bad = _first_bad(array, lambda x: (x > 0.0) & (x < np.inf))
    else:
        bad = _first_bad(array, lambda x: (x >= 0.0) & (x < np.inf))
    if bad is not None:
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}, got {bad}")
    return array


def probabilities(values: np.typing.ArrayLike) -> np.ndarray:
    """Float64 entries in [0, 1]."""
    array = np.asarray(values, dtype=np.float64)
    bad = _first_bad(array, lambda x: (x >= 0.0) & (x <= 1.0))
    if bad is not None:
        raise ValueError(f"probability must lie in [0, 1], got {bad}")
    return array


def float_or_array(values: np.ndarray) -> float | np.ndarray:
    """A float for a 0-d array or numpy scalar, the array otherwise."""
    return float(values) if values.ndim == 0 else values
