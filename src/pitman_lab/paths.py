"""The discrete path space: integer sequences from 0 with steps in {-1, 0, +1}.

Paths are stored as increment tuples (compact dictionary keys); the value
sequence is materialized on construction.  Every law of the package depends
on a path only through its class (K0, x_t, H): global minimum, end and number
of flat steps.  ``path_classes`` yields each class key with the class size,
O(t^3) classes against the 3^t paths of ``enumerate_paths``; ``class_sizes``
holds them once per horizon, ``class_path`` and ``class_rows`` give the
representatives; ``path_rows`` holds every path as the rows of one array.  A
route whose class value is a prefactor in (H, x_t) times a level part in
(-K0, x_t) builds each factor once per pair of ``factor_pairs``, and
``combine_factors`` multiplies them per class.  The enumerations are capped
at the same horizon (default 14, override with ``PITMAN_LAB_CAP``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import os
import types
from typing import Iterator, Mapping, NamedTuple

import numpy as np

DEFAULT_HORIZON_CAP = 14

_STEPS = (-1, 0, 1)
_STEP_SET = frozenset(_STEPS)


class HorizonCapError(ValueError):
    """Enumeration request beyond the configured horizon cap."""


def horizon_cap() -> int:
    env = os.environ.get("PITMAN_LAB_CAP")
    if env and not env.strip().isdecimal():
        raise ValueError(f"PITMAN_LAB_CAP must be an integer >= 0, got {env!r}")
    return int(env) if env else DEFAULT_HORIZON_CAP


def _integer(entry) -> int:
    """``entry`` as an int; refuses what int() would truncate, such as 1.5."""
    try:
        return operator.index(entry)
    except TypeError:
        raise ValueError(f"path entries must be integers, got {entry!r}") from None


class Path:
    """An element of the path space over horizon t (values x_0=0,...,x_t)."""

    __slots__ = ("steps", "values")

    def __init__(self, steps=()):
        steps = tuple(map(_integer, steps))
        if not _STEP_SET.issuperset(steps):
            raise ValueError(f"steps must lie in {{-1,0,+1}}: {steps}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "values", tuple(itertools.accumulate(steps, initial=0)))

    @classmethod
    def _trusted(cls, steps: tuple) -> "Path":
        """A path from a tuple of int steps already known to lie in {-1,0,+1}."""
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        object.__setattr__(path, "values", tuple(itertools.accumulate(steps, initial=0)))
        return path

    @classmethod
    def from_values(cls, values) -> "Path":
        values = tuple(map(_integer, values))
        if not values or values[0] != 0:
            raise ValueError("a path must start at 0")
        return cls(map(operator.sub, values[1:], values))

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse the serialized value form, e.g. ``"0,1,0,-1"``."""
        return cls.from_values(int(v) for v in text.split(","))

    @property
    def horizon(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> int:
        return self.values[-1]

    def negate(self) -> "Path":
        return Path._trusted(tuple(map(operator.neg, self.steps)))

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return isinstance(other, Path) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __str__(self):
        return ",".join(map(str, self.values))

    def __repr__(self):
        return f"Path({self})"


class PathStats(NamedTuple):
    """Running extrema and step counts of a path.

    K[j] is the minimum of the values over indices >= j (so K[0] is the global
    minimum), M[j] the maximum over indices <= j; U/D/H count up, down and flat
    steps.  Always U + D + H = t and U - D = x_t.
    """

    K: tuple
    M: tuple
    U: int
    D: int
    H: int

    @property
    def K0(self) -> int:
        return self.K[0]


def stats(path: Path) -> PathStats:
    vals = path.values
    k = tuple(itertools.accumulate(reversed(vals), min))[::-1]
    u, d = path.steps.count(1), path.steps.count(-1)
    return PathStats(K=k, M=tuple(itertools.accumulate(vals, max)), U=u, D=d,
                     H=len(path.steps) - u - d)


def path_count(t: int, allow_flat: bool = True) -> int:
    return 3**t if allow_flat else 2**t


def _refuse_beyond_cap(t: int, allow_flat: bool):
    if t < 0:
        raise ValueError("horizon must be >= 0")
    limit = horizon_cap()
    if t > limit:
        raise HorizonCapError(
            f"horizon {t} exceeds cap {limit} "
            f"({path_count(t, allow_flat)} paths); raise PITMAN_LAB_CAP to override"
        )


def enumerate_paths(t: int, allow_flat: bool = True) -> Iterator[Path]:
    """Yield every path of horizon t exactly once.

    The order is lexicographic in increments with -1 < 0 < +1, which makes the
    enumeration deterministic and splittable by increment prefix.  Flat steps
    are skipped for allow_flat=False (they carry probability 0 when the flat
    weight vanishes), cutting the space from 3^t to 2^t.
    """
    _refuse_beyond_cap(t, allow_flat)
    steps = _STEPS if allow_flat else (-1, 1)
    for incs in itertools.product(steps, repeat=t):
        yield Path._trusted(incs)


def path_rows(t: int) -> np.ndarray:
    """The steps of every path of horizon t, in the order of
    ``enumerate_paths``: row i holds the base-3 digits of i, first step
    highest, each less one, as an int8 array of shape (3^t, t).  Capped as
    ``enumerate_paths`` is."""
    _refuse_beyond_cap(t, True)
    rows = np.empty((3**t, t), dtype=np.int8)
    for j in range(t):  # i = (prefix, digit j, suffix) in base 3
        rows.reshape(3**j, 3, 3 ** (t - 1 - j), t)[..., j] = np.array(_STEPS, np.int8)[:, None]
    return rows


def path_classes(t: int, allow_flat: bool = True) -> Iterator[tuple]:
    """Yield ((K0, x_t, H), size) for every class of horizon t.

    Of the n = t - H up/down steps, the number of walks that end at x with
    minimum exactly K is N(2K - x) - N(2K - 2 - x), N(y) the number ending at
    y, by the reflection principle (Feller, An Introduction to Probability
    Theory, vol. 1, ch. III); the flat steps sit at any C(t, H) places.
    Order: H, then x_t ascending, then K0 descending.
    """
    _refuse_beyond_cap(t, allow_flat)
    for h in range(t + 1 if allow_flat else 1):
        n, flats = t - h, math.comb(t, h)
        ending_at = [math.comb(n, j) for j in range(n + 1)] + [0]  # N(2j - n), 0 at j = -1
        for end in range(-n, n + 1, 2):
            for k0 in range(min(0, end), (end - n) // 2 - 1, -1):
                j = k0 + (n - end) // 2  # y = 2 K0 - x_t = 2j - n
                yield (k0, end, h), (ending_at[j] - ending_at[j - 1]) * flats


def class_sizes(t: int, allow_flat: bool = True) -> Mapping:
    """The read-only {(K0, x_t, H): size} of ``path_classes``, kept for the
    latest (t, allow_flat) and shared by its tables; the cap is checked per call."""
    _refuse_beyond_cap(t, allow_flat)
    return _class_set(t, allow_flat)


@functools.lru_cache(maxsize=1)
def _class_set(t: int, allow_flat: bool) -> Mapping:
    return types.MappingProxyType(dict(path_classes(t, allow_flat)))


def class_path(t: int, key: tuple) -> Path:
    """The representative of class (K0, x_t, H): flats, down to K0, up to x_t, up-down pairs."""
    k0, end, h = key
    return Path._trusted((0,) * h + (-1,) * -k0 + (1,) * (end - k0)
                         + (1, -1) * ((t - h + 2 * k0 - end) // 2))


def class_rows(t: int, keys) -> np.ndarray:
    """The steps of ``class_path(t, key)`` for each key: the rows of a
    read-only int8 array of shape (len(keys), t), -1 as the byte 0xff."""
    rows = b"".join(b"\x00" * h + b"\xff" * -k0 + b"\x01" * (end - k0)
                    + b"\x01\xff" * ((t - h + 2 * k0 - end) // 2) for k0, end, h in keys)
    return np.frombuffer(rows, dtype=np.int8).reshape(len(keys), t)


FactorPairs = collections.namedtuple("FactorPairs", "prefs levels pref_index level_index")

_pairs_kept = [None, None]  # the latest mapping and its FactorPairs


def factor_pairs(sizes) -> FactorPairs:
    """The distinct (H, x_t) and (-K0, x_t) of the class keys of ``sizes``,
    ``prefs`` and ``levels``, as the columns of int arrays of shape (2, pairs)
    in the order they first occur, and the columns of each class's two
    pairs, in key order, ``pref_index`` and ``level_index``.  Kept for the
    latest mapping, which for a route is the horizon's ``class_sizes``."""
    if _pairs_kept[0] is not sizes:
        prefs, levels = {}, {}  # pair -> column
        pref_index = [prefs.setdefault((h, e), len(prefs)) for _, e, h in sizes]
        level_index = [levels.setdefault((-k0, e), len(levels)) for k0, e, _ in sizes]
        _pairs_kept[:] = sizes, FactorPairs(
            *(np.array(list(pairs), np.intp).T for pairs in (prefs, levels)),
            *(np.array(index, np.intp) for index in (pref_index, level_index)))
    return _pairs_kept[1]


def combine_factors(sizes, pref: np.ndarray, level: np.ndarray):
    """pref[i] * level[j] for each class of ``sizes`` in key order, i and j
    the columns of its (H, x_t) and (-K0, x_t) in ``factor_pairs(sizes)``:
    one product per class.  Factors of dtype object (Python ints) give a
    list of ints, float64 factors a float64 array."""
    pairs = factor_pairs(sizes)
    values = pref[pairs.pref_index] * level[pairs.level_index]
    return values.tolist() if values.dtype == object else values
