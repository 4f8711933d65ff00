"""Finite-resolution shift models, their metrics, and potential functions.

A model is a one- or two-sided shift over ``k`` symbols.  Symbols either
carry the discrete 0/1 distance ("full-shift") or sit on the grid
``{0, 1/k, ..., (k-1)/k}`` with the absolute difference ("grid-shift").
Points are finite windows of symbols; coordinates beyond the window are
handled by an explicit truncation budget so that ball-membership decisions
at the configured radii are never corrupted by the missing tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        if not 0.0 < self.weight_base < 1.0:
            raise ConfigurationError("weight_base must lie in (0, 1)")
        if self.window < 1:
            raise ConfigurationError("window must be positive")
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
        return self.tail_weight(self.window - (order - 1))

    def max_reliable_order(self, eps: float) -> int:
        """Largest Bowen order whose truncation slack stays below eps/10."""
        n = 0
        while n < self.window and self.truncation_slack(n + 1) < eps / 10.0:
            n += 1
        return n

    def check_order(self, order: int, eps: float) -> None:
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

    def symbol_distance_matrix(self) -> np.ndarray:
        k = self.alphabet_size
        if self.symbol_metric == DISCRETE:
            return 1.0 - np.eye(k)
        vals = np.arange(k, dtype=float) / k
        return np.abs(vals[:, None] - vals[None, :])

    # -- points -----------------------------------------------------------

    def point(self, word: Sequence[int], exact_tail: bool = True) -> "PointWindow":
        symbols = tuple(int(a) for a in word)
        if len(symbols) > self.word_length:
            raise ConfigurationError(
                f"word of length {len(symbols)} exceeds window length "
                f"{self.word_length}"
            )
        symbols = symbols + (0,) * (self.word_length - len(symbols))
        return PointWindow(symbols=symbols, origin=self.origin_index,
                           exact_tail=exact_tail)

    def enumerate_points(self, depth: int) -> list["PointWindow"]:
        """All words of length ``depth`` padded with zeros to the window.

        The padded points are genuine elements of the model (the words end
        in an all-zero tail), so Birkhoff sums over them are exact at any
        order.
        """
        if depth < 1:
            raise ConfigurationError("depth must be positive")
        count = self.alphabet_size ** depth
        if count > self.enumeration_cap:
            raise EnumerationCapError(
                f"{self.alphabet_size}^{depth} = {count} exceeds the "
                f"enumeration cap {self.enumeration_cap}; sample points "
                f"instead of enumerating"
            )
        if depth > self.word_length:
            raise ConfigurationError(
                f"depth {depth} exceeds window length {self.word_length}"
            )
        pad = (0,) * (self.word_length - depth)
        origin = self.origin_index
        return [
            PointWindow(symbols=word + pad, origin=origin, exact_tail=True)
            for word in itertools.product(range(self.alphabet_size), repeat=depth)
        ]

    def as_matrix(self, points: Sequence["PointWindow"]) -> np.ndarray:
        return np.array([p.symbols for p in points], dtype=np.int64)


@dataclass(frozen=True)
class PointWindow:
    """A point of the model at finite resolution.

    ``symbols[origin + j]`` is coordinate ``j``.  ``exact_tail`` marks
    points whose coordinates beyond the stored word are genuinely zero
    (enumerated words); sampled windows leave the tail unknown, and shifted
    copies of them read deterministic pad zeros instead.
    """

    symbols: tuple[int, ...]
    origin: int = 0
    exact_tail: bool = True
    pads: int = 0

    def coordinate(self, j: int) -> int:
        idx = self.origin + j
        if 0 <= idx < len(self.symbols):
            return self.symbols[idx]
        return 0

    def genuine_depth(self) -> float:
        """Coordinates from the origin onward that are not shift pads."""
        right = len(self.symbols) - self.origin - self.pads
        return math.inf if self.exact_tail else float(right)

    def key(self) -> tuple:
        return self.symbols


def apply_map(system: ShiftSystem, x: PointWindow) -> PointWindow:
    """One step of the shift: drop coordinate 0, pad symbol 0 on the right.

    Two-sided windows keep their origin index; the contents slide left.
    """
    shifted = x.symbols[1:] + (0,)
    pads = 0 if x.exact_tail else min(x.pads + 1, len(shifted))
    return PointWindow(symbols=shifted, origin=x.origin,
                       exact_tail=x.exact_tail, pads=pads)


def metric(system: ShiftSystem, x: PointWindow, y: PointWindow) -> float:
    """Truncated weighted sum of symbol distances over the retained window.

    This is the Bowen distance of order 1.
    """
    if len(x.symbols) != system.word_length or len(y.symbols) != system.word_length:
        raise ConfigurationError("points do not belong to this system")
    if x.origin != y.origin:
        raise ConfigurationError("mismatched window origins")
    from .bowen import bowen_distance
    return bowen_distance(system, x, y, 1)


# -- potentials -------------------------------------------------------------

CONSTANT = "constant"
TABLE = "table"
FINITE_RANGE = "finite-range"


@dataclass(frozen=True)
class Potential:
    """A continuous potential with a known modulus of continuity.

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

    def shifted(self, a: float) -> "Potential":
        return Potential(kind=self.kind, value=self.value, table=self.table,
                         range_len=self.range_len, scale=self.scale,
                         offset=self.offset + a)

    # -- pointwise evaluation -------------------------------------------

    def base_at(self, x: PointWindow, coord: int = 0) -> float:
        if self.kind == CONSTANT:
            return self.value
        if self.kind == TABLE:
            return self.table[x.coordinate(coord)]
        idx = 0
        k = round(len(self.table) ** (1.0 / self.range_len))
        for j in range(self.range_len):
            idx = idx * k + x.coordinate(coord + j)
        return self.table[idx]

    def at(self, x: PointWindow) -> float:
        return self.scale * self.base_at(x) + self.offset

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

    @property
    def is_constant(self) -> bool:
        return self.kind == CONSTANT or self.base_min() == self.base_max()

    def effective_range(self) -> int:
        return 1 if self.kind != FINITE_RANGE else self.range_len

    # -- modulus of continuity -------------------------------------------

    def modulus(self, system: ShiftSystem, rho: float) -> float:
        """Upper bound on sup{|phi(x)-phi(y)| : d(x,y) <= rho}.

        d(x, y) <= rho forces the symbol distance at coordinate ``j`` to be
        at most ``rho / weight(j)``; the bound maximizes over all symbol
        words compatible with those per-coordinate constraints.
        """
        if self.is_constant:
            return 0.0
        k = system.alphabet_size
        sd = system.symbol_distance_matrix()
        if self.kind == TABLE:
            allowed = sd <= rho + 1e-15
            diffs = np.abs(np.subtract.outer(self.table, self.table))
            return float(abs(self.scale) * diffs[allowed].max())
        # Finite range: per-coordinate allowance rho / w^j, enumerated.
        best = 0.0
        words = list(itertools.product(range(k), repeat=self.range_len))
        w = system.weight_base
        for u in words:
            for v in words:
                ok = all(
                    sd[u[j], v[j]] <= rho / (w ** j) + 1e-15
                    for j in range(self.range_len)
                )
                if ok:
                    du = self._range_value(u, k)
                    dv = self._range_value(v, k)
                    best = max(best, abs(du - dv))
        return abs(self.scale) * best

    def _range_value(self, word: Sequence[int], k: int) -> float:
        idx = 0
        for a in word:
            idx = idx * k + a
        return self.table[idx]


def birkhoff_sum(system: ShiftSystem, phi: Potential, x: PointWindow,
                 n: int) -> float:
    """Sum of the potential along the first ``n`` steps of the orbit."""
    if n < 0:
        raise ConfigurationError("n must be nonnegative")
    if phi.kind == CONSTANT:
        return n * (phi.scale * phi.value + phi.offset)
    needed = n - 1 + phi.effective_range()
    if needed > x.genuine_depth():
        raise WindowExhaustedError(
            f"Birkhoff sum of order {n} reads {needed} coordinates but only "
            f"{x.genuine_depth():.0f} are genuine"
        )
    total = 0.0
    for j in range(n):
        total += phi.base_at(x, coord=j)
    return phi.scale * total + n * phi.offset


def birkhoff_sums_matrix(system: ShiftSystem, phi: Potential,
                         Z: np.ndarray, n: int, origin: int = 0) -> np.ndarray:
    """Vectorized Birkhoff sums for the rows of a symbol matrix."""
    m = Z.shape[0]
    if phi.kind == CONSTANT:
        return np.full(m, n * (phi.scale * phi.value + phi.offset))
    if origin + n - 1 + phi.effective_range() > Z.shape[1]:
        raise WindowExhaustedError(
            f"order {n} reads past the stored window of length {Z.shape[1]}"
        )
    if phi.kind == TABLE:
        tab = np.asarray(phi.table)
        cols = Z[:, origin:origin + n]
        base = tab[cols].sum(axis=1)
        return phi.scale * base + n * phi.offset
    tab = np.asarray(phi.table)
    k = round(len(phi.table) ** (1.0 / phi.range_len))
    base = np.zeros(m)
    for j in range(n):
        idx = np.zeros(m, dtype=np.int64)
        for r in range(phi.range_len):
            idx = idx * k + Z[:, origin + j + r]
        base += tab[idx]
    return phi.scale * base + n * phi.offset


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

    def table_of(p: Potential) -> np.ndarray:
        if p.kind == CONSTANT:
            return np.full(k, p.scale * p.value + p.offset)
        return p.scale * np.asarray(p.table) + p.offset

    return Potential.from_table(table_of(phi) + coeff * table_of(psi))
