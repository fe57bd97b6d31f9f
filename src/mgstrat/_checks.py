"""Argument checks shared by every module that takes numbers from a caller.

``number`` is the one rule for a scalar, and ``count`` and ``positive`` build
on it.  Each elementwise check takes a scalar or an array, raises
``ValueError`` naming the first bad entry, and returns the entries as an array.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np


def number(value: Any, name: str, kind: type = float) -> int | float:
    """``value`` as one finite ``kind``, int or float; ValueError naming ``name``.

    A bool is not a number and an int must be integral (an integral float
    passes); a Python int of any size is an int.
    """
    if np.ndim(value):
        raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")
    try:
        ok = np.asarray(value).dtype != bool and (
            kind is int and isinstance(value, (int, np.integer))
            or math.isfinite(value) and (kind is float or value == int(value))
        )
    except (TypeError, OverflowError):  # not a number, or an int past float range
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def count(value: Any, name: str, minimum: int) -> int:
    """``value`` as one int of at least ``minimum``, by the rule of ``number``."""
    value = number(value, name, int)
    if value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value}")
    return value


def positive(value: Any, name: str, maximum: float = math.inf) -> float:
    """``value`` as a float in (0, ``maximum``], by the rule of ``number``."""
    value = number(value, name)
    if not 0.0 < value <= maximum:
        bound = "be positive" if maximum == math.inf else f"lie in (0, {maximum:g}]"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


def _first_bad(
    array: np.ndarray, ok: Callable[[np.ndarray], np.ndarray]
) -> float | int | None:
    """The first entry that fails the ufunc predicate ``ok``, or None."""
    good = ok(array)
    if np.count_nonzero(good) == array.size:
        return None
    return array[~good].flat[0]


def integers(values: np.typing.ArrayLike, name: str, minimum: int) -> np.ndarray:
    """Entries that are whole numbers of at least ``minimum``; integral floats pass."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
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


def means(values: np.typing.ArrayLike, positive: bool = False) -> np.ndarray:
    """Finite float64 entries, nonnegative or (with ``positive``) above zero."""
    array = np.asarray(values, dtype=np.float64)
    bad = _first_bad(array, lambda x: ((x > 0.0) if positive else (x >= 0.0)) & (x < np.inf))
    if bad is not None:
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"mean must be finite and {sign}, got {bad}")
    return array


def probabilities(values: np.typing.ArrayLike) -> np.ndarray:
    """Float64 entries in [0, 1]."""
    array = np.asarray(values, dtype=np.float64)
    bad = _first_bad(array, lambda x: (x >= 0.0) & (x <= 1.0))
    if bad is not None:
        raise ValueError(f"probability must lie in [0, 1], got {bad}")
    return array


def binary(
    values: np.typing.ArrayLike, name: str = "choices", zero: str = "A", one: str = "B"
) -> np.ndarray:
    """Entries that are all 0 (``zero``) or 1 (``one``), as integers or bools.

    Integer and bool arrays pass as they are, checked by their minimum and
    maximum, which allocate nothing; a float array of 0/1 entries becomes int8.
    """
    array = np.asarray(values)
    if array.dtype.kind in "biu" and (not array.size or 0 <= array.min() and array.max() <= 1):
        return array
    bad = _first_bad(array, lambda x: (x == 0) | (x == 1))
    if bad is not None:
        raise ValueError(f"{name} must contain only 0 ({zero}) and 1 ({one}), got {bad}")
    return array.astype(np.int8)


def float_or_array(values: np.ndarray) -> float | np.ndarray:
    """A float for a 0-d array or numpy scalar, the array otherwise."""
    return float(values) if values.ndim == 0 else values
