"""Finite-resolution shift models, their metrics, and potential functions.

A model is a one- or two-sided shift over ``k`` symbols.  Symbols either
carry the discrete 0/1 distance ("full-shift") or sit on the grid
``{0, 1/k, ..., (k-1)/k}`` with the absolute difference ("grid-shift").
Points are one read-only symbol matrix with a genuine depth per row
(``Points``); a single point is a one-row ``Points``, and
``ShiftSystem.as_points`` checks that a pool belongs to the system.
Coordinates beyond the window are handled by an explicit truncation budget
so that ball-membership decisions at the configured radii are never
corrupted by the missing tail.

Every Birkhoff sum comes from one kernel, ``birkhoff_sums``: one running
sum per row, in coordinate order, gives every order at once, and
coordinates past the stored word read 0.  ``check_genuine`` is the one
place that decides when a sampled window has too few genuine coordinates
for a sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    EnumerationCapError,
    WindowExhaustedError,
)

DEFAULT_ENUMERATION_CAP = 2_000_000

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"
FULL_SHIFT = "full-shift"
GRID_SHIFT = "grid-shift"
DISCRETE = "discrete"
ABSOLUTE = "absolute-difference"


@dataclass(frozen=True)
class ShiftSystem:
    """Immutable description of a shift model.

    ``window`` is the number of retained coordinates to the right of the
    origin (one-sided) or on each side of it (two-sided).  At construction
    the truncated metric tail must stay below ``eps_min / 10`` so that
    separation and spanning decisions at radius ``eps_min`` are unaffected
    except in boundary cases, which the membership predicates resolve
    conservatively.
    """

    kind: str = FULL_SHIFT
    alphabet_size: int = 2
    sidedness: str = ONE_SIDED
    window: int = 16
    symbol_metric: str = ""
    weight_base: float = 0.5
    eps_min: float = 0.1
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.kind not in (FULL_SHIFT, GRID_SHIFT):
            raise ConfigurationError(f"unknown system kind {self.kind!r}")
        if self.sidedness not in (ONE_SIDED, TWO_SIDED):
            raise ConfigurationError(f"unknown sidedness {self.sidedness!r}")
        if not self.symbol_metric:
            default = DISCRETE if self.kind == FULL_SHIFT else ABSOLUTE
            object.__setattr__(self, "symbol_metric", default)
        if self.symbol_metric not in (DISCRETE, ABSOLUTE):
            raise ConfigurationError(f"unknown symbol metric {self.symbol_metric!r}")
        if self.alphabet_size < 1:
            raise ConfigurationError("alphabet_size must be positive")
        if self.alphabet_size > 2 ** 63:  # symbols and their differences
            raise ConfigurationError(
                f"alphabet_size {self.alphabet_size} exceeds 2^63: its "
                "symbols do not fit the int64 symbol matrix")
        if not 0.0 < self.weight_base < 1.0:
            raise ConfigurationError("weight_base must lie in (0, 1)")
        if not (1 <= self.window and self.weight_base ** self.window > 0.0):
            raise ConfigurationError(
                "window must be positive, and small enough that weight_base "
                "** window does not underflow to 0")
        if not 0.0 < self.eps_min:
            raise ConfigurationError("eps_min must be positive")
        if self.tail_weight(self.window) >= self.eps_min / 10.0:
            raise ConfigurationError(
                f"window {self.window} too small: metric tail "
                f"{self.tail_weight(self.window):.3g} >= eps_min/10 = "
                f"{self.eps_min / 10.0:.3g}"
            )

    # -- geometry ---------------------------------------------------------

    @property
    def word_length(self) -> int:
        return self.window if self.sidedness == ONE_SIDED else 2 * self.window + 1

    @property
    def origin_index(self) -> int:
        return 0 if self.sidedness == ONE_SIDED else self.window

    @property
    def symbol_dtype(self) -> np.dtype:
        """The narrowest integer dtype that holds every symbol and every
        difference of two: the distance engine's and the samples' dtype."""
        return np.min_scalar_type(-self.alphabet_size)

    def tail_weight(self, beyond: int) -> float:
        """Total weight of the coordinates at offsets > ``beyond``.

        Bounds the truncation error of the metric: one tail for one-sided
        systems, two symmetric tails for two-sided ones.
        """
        w = self.weight_base
        one_tail = w ** (beyond + 1) / (1.0 - w)
        return one_tail if self.sidedness == ONE_SIDED else 2.0 * one_tail

    def truncation_slack(self, order: int) -> float:
        """Worst-case missing metric mass over the shifts ``0..order-1``.

        Shifting erodes the right edge of the window, so the slack grows
        with the Bowen order.
        """
        if order < 1:
            raise ConfigurationError("order must be >= 1")
        try:
            return self.tail_weight(self.window - (order - 1))
        except OverflowError:  # weight_base ** -(order - window) overflows
            raise WindowExhaustedError(
                f"order {order} lies too far past the window {self.window}"
            ) from None

    def max_reliable_order(self, eps: float) -> int:
        """Largest Bowen order whose truncation slack stays below eps/10."""
        n = 0
        while n < self.window and self.truncation_slack(n + 1) < eps / 10.0:
            n += 1
        return n

    def check_order(self, order: int, eps: float) -> None:
        self.truncation_slack(order)  # raises below 1 and far past the window
        if order > self.max_reliable_order(eps):
            raise WindowExhaustedError(
                f"order {order} at radius {eps} exceeds reliable depth "
                f"{self.max_reliable_order(eps)} for window {self.window}"
            )

    # -- symbols ----------------------------------------------------------

    def symbol_distance(self, a: int, b: int) -> float:
        if self.symbol_metric == DISCRETE:
            return 0.0 if a == b else 1.0
        return abs(a - b) / self.alphabet_size

    # -- points -----------------------------------------------------------

    def points(self, words: Iterable[Sequence[int]],
               exact_tail: bool = True) -> "Points":
        """The words padded with zeros to the window, one row each; a point
        is ``points([word])``.  With ``exact_tail`` the coordinates past the
        window are genuine zeros (depth inf), else they are unknown."""
        rows = [[int(a) for a in word] for word in words]
        Z = np.zeros((len(rows), self.word_length), dtype=np.int64)
        for i, row in enumerate(rows):
            if len(row) > self.word_length:
                raise ConfigurationError(
                    f"word of length {len(row)} exceeds window length "
                    f"{self.word_length}")
            Z[i, :len(row)] = row
        right = self.word_length - self.origin_index
        depth = np.full(len(rows), math.inf if exact_tail else right)
        return Points(Z, depth, self.origin_index)

    def enumerate_points(self, depth: int) -> "Points":
        """All words of length ``depth`` padded with zeros to the window, in
        ``itertools.product`` order.

        The padded points are genuine elements of the model (the words end
        in an all-zero tail), so Birkhoff sums over them are exact at any
        order.
        """
        if depth < 1:
            raise ConfigurationError("depth must be positive")
        if depth > self.word_length:
            raise ConfigurationError(
                f"depth {depth} exceeds window length {self.word_length}"
            )
        count = self.alphabet_size ** depth
        if count > self.enumeration_cap:
            raise EnumerationCapError(
                f"{self.alphabet_size}^{depth} = {count} exceeds the "
                f"enumeration cap {self.enumeration_cap}; sample points "
                f"instead of enumerating"
            )
        Z = np.zeros((count, self.word_length), dtype=np.int64)
        Z[:, :depth] = np.indices((self.alphabet_size,) * depth).reshape(
            depth, count).T
        return Points(Z, np.full(count, math.inf), self.origin_index)

    def as_points(self, points: "Points") -> "Points":
        """``points`` itself once checked to be a ``Points`` of this system's
        word length and origin; anything else raises ConfigurationError."""
        if not isinstance(points, Points):
            raise ConfigurationError(
                f"expected Points, got {type(points).__name__}")
        length, origin = points.symbols.shape[1], points.origin
        if (length, origin) != (self.word_length, self.origin_index):
            raise ConfigurationError(
                f"a point of word length {length} and origin {origin} does "
                f"not belong to this system (word length {self.word_length}, "
                f"origin {self.origin_index})"
            )
        return points


class Points:
    """A pool of points of one model: a read-only int64 symbol matrix, one
    row per point, with each row's genuine depth (the coordinates from the
    origin onward that are known: inf for exact tails) and the common
    origin.  A single point is a one-row pool.

    Equal content gives equal pools and equal hashes, so pools key memos.
    A slice, an index array or a boolean mask gives those rows, and an
    integer index the one-row pool of its slice, as iteration does.
    """

    __slots__ = ("symbols", "depth", "origin", "_hash")

    def __init__(self, symbols: np.ndarray, depth: np.ndarray | list[float],
                 origin: int):
        self.symbols = np.asarray(symbols, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=float)
        self.origin = origin
        self.symbols.setflags(write=False)
        self.depth.setflags(write=False)
        self._hash = None

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Points):
            return NotImplemented
        return (self is other or self.origin == other.origin
                and np.array_equal(self.symbols, other.symbols)
                and np.array_equal(self.depth, other.depth))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.origin, self.symbols.shape,
                               self.symbols.tobytes(), self.depth.tobytes()))
        return self._hash

    def __getitem__(self, key) -> "Points":
        if isinstance(key, (int, np.integer)):
            key = (key, None)  # the row as a one-row view, negative or not
        return Points(self.symbols[key], self.depth[key], self.origin)

    def __iter__(self) -> Iterator["Points"]:
        return (self[i] for i in range(len(self)))


# -- potentials -------------------------------------------------------------

CONSTANT = "constant"
TABLE = "table"
FINITE_RANGE = "finite-range"


@dataclass(frozen=True)
class Potential:
    """A continuous potential that reads finitely many coordinates.

    Kinds: a constant ``c``, a per-symbol table read at coordinate 0, or a
    finite-range table over the first ``range_len`` coordinates.  Every
    potential is stored as ``scale * base + offset``; affine
    reparametrizations keep the same base table, so one-parameter families
    like ``c * phi`` share the point attaining the supremum of a Birkhoff
    sum over any fixed ball.  The Caratheodory structures rely on that
    convention for their exact substitution identities.
    """

    kind: str = CONSTANT
    value: float = 0.0
    table: tuple[float, ...] = ()
    range_len: int = 1
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, TABLE, FINITE_RANGE):
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        if self.kind == CONSTANT:
            object.__setattr__(self, "table", ())
        elif not self.table:
            raise ConfigurationError("table potential needs values")
        if not all(map(math.isfinite, (self.value,) + self.table)):
            raise ConfigurationError("potential values must be finite")

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(c: float) -> "Potential":
        return Potential(kind=CONSTANT, value=float(c))

    @staticmethod
    def from_table(values: Iterable[float]) -> "Potential":
        return Potential(kind=TABLE, table=tuple(float(v) for v in values))

    @staticmethod
    def from_range_table(values: Iterable[float], range_len: int) -> "Potential":
        vals = tuple(float(v) for v in values)
        return Potential(kind=FINITE_RANGE, table=vals, range_len=range_len)

    def scaled(self, c: float) -> "Potential":
        return Potential(kind=self.kind, value=self.value, table=self.table,
                         range_len=self.range_len, scale=self.scale * c,
                         offset=self.offset * c)

    # -- bounds ----------------------------------------------------------

    def base_min(self) -> float:
        return self.value if self.kind == CONSTANT else min(self.table)

    def base_max(self) -> float:
        return self.value if self.kind == CONSTANT else max(self.table)

    @property
    def min(self) -> float:
        lo, hi = self.base_min(), self.base_max()
        body = self.scale * lo if self.scale >= 0 else self.scale * hi
        return body + self.offset

    @property
    def max(self) -> float:
        lo, hi = self.base_min(), self.base_max()
        body = self.scale * hi if self.scale >= 0 else self.scale * lo
        return body + self.offset

    @property
    def norm(self) -> float:
        return max(abs(self.min), abs(self.max))

    def effective_range(self) -> int:
        return 1 if self.kind != FINITE_RANGE else self.range_len

    def symbol_values(self, k: int) -> np.ndarray:
        """Per-symbol values ``scale * table + offset`` of a coordinate-0
        potential; a constant gives ``k`` copies of its value."""
        if self.kind == CONSTANT:
            return np.full(k, self.scale * self.value + self.offset)
        return self.scale * np.asarray(self.table) + self.offset


def check_genuine(phi: Potential, points: Points,
                  orders: Iterable[int]) -> None:
    """Raise WindowExhaustedError where a Birkhoff sum reads past the genuine
    coordinates of a point (sampled windows).

    The orders are taken in turn, each over every point, and the first
    failing (order, point) pair is named.  Constants never exhaust a window.
    """
    if phi.kind == CONSTANT:
        return
    r = phi.effective_range()
    for n in orders:
        short = np.flatnonzero(n - 1 + r > points.depth)
        if len(short):
            raise WindowExhaustedError(
                f"Birkhoff sum of order {n} reads {n - 1 + r} coordinates "
                f"but only {points.depth[short[0]]:.0f} are genuine"
            )


def birkhoff_sums(system: ShiftSystem, phi: Potential, Z: np.ndarray,
                  n_max: int) -> np.ndarray:
    """Birkhoff sums S_0 phi .. S_{n_max} phi of every row of a symbol matrix.

    Column n is S_n phi: one running sum of the base values in j order,
    then ``scale * sum + n * offset``; a constant gives ``n * c``.
    Coordinates past the stored word read 0; whether they are genuine is
    ``check_genuine``'s question.
    """
    if n_max < 0:
        raise ConfigurationError("n must be nonnegative")
    n = np.arange(n_max + 1)
    if phi.kind == CONSTANT:
        return np.tile(n * (phi.scale * phi.value + phi.offset), (len(Z), 1))
    o, r = system.origin_index, phi.effective_range()
    Z = Z[:, o:o + n_max + r - 1]  # the coordinates read, padded with 0
    Z = np.pad(Z, ((0, 0), (0, n_max + r - 1 - Z.shape[1])))
    k = round(len(phi.table) ** (1.0 / r))
    idx = Z[:, :n_max]
    for t in range(1, r):
        idx = idx * k + Z[:, t:t + n_max]
    # column 0 stays 0.0, so column j + 1 is the loop sum (0.0 + a_0) + ...
    sums = np.zeros((len(Z), n_max + 1))
    sums[:, 1:] = np.asarray(phi.table)[idx]
    np.cumsum(sums, axis=1, out=sums)
    sums *= phi.scale
    sums += n * phi.offset
    return sums


def combine(phi: Potential, psi: Potential, coeff: float,
            system: ShiftSystem | None = None) -> Potential:
    """The potential ``phi + coeff * psi`` collapsed to a single table.

    Exact for constants and coordinate-0 tables; the result is a plain
    potential (scale 1), so downstream ball suprema treat it as its own
    base family.
    """
    if phi.kind == CONSTANT and psi.kind == CONSTANT:
        return Potential.constant(
            (phi.scale * phi.value + phi.offset)
            + coeff * (psi.scale * psi.value + psi.offset)
        )
    if phi.kind == FINITE_RANGE or psi.kind == FINITE_RANGE:
        raise ConfigurationError(
            "combining finite-range potentials is not supported"
        )
    if system is None:
        raise ConfigurationError("combining tables needs the system alphabet")
    k = system.alphabet_size
    return Potential.from_table(phi.symbol_values(k)
                                + coeff * psi.symbol_values(k))
