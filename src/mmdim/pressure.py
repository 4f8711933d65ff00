"""Pressure sums, mean-dimension regression, induced pressure, root solving.

The pressure of a potential at scale ``eps`` is the growth rate in ``n`` of
``sum_{x in F} (1/eps)^{S_n phi(x)}`` over (n, eps)-separated witness sets.
At desk scale the limsup is replaced by a least-squares slope over an
``n``-schedule (with the max of ``log_sum / n`` kept as a diagnostic), and
the limit in ``eps`` by a second regression against ``log(1/eps)``.  For
product-type systems with coordinate-0 potentials an analytic oracle brackets
the per-step pressure exactly, which is what the finite-alphabet and grid
baselines use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bowen import DEFAULT_EXACT_CAP, max_separated, min_spanning
from .errors import BracketError, ConfigurationError, DegenerateFitError
from .systems import (
    CONSTANT,
    DISCRETE,
    TABLE,
    Points,
    Potential,
    ShiftSystem,
    birkhoff_sums,
    check_genuine,
)

SEPARATED_EXACT = "separated-exact"
SEPARATED_GREEDY = "separated-greedy"
ANALYTIC_ORACLE = "analytic-oracle"
ROOT_MAX_ITER = 60  # bisection steps of solve_bowen_root


@dataclass(frozen=True)
class PressureRecord:
    """One (n, eps) cell: log of the weighted witness sum and its provenance."""

    n: int
    eps: float
    log_sum: float
    witness_kind: str
    witness_size: int = 0
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PressureEstimate:
    """Per-eps pressure: regression slope plus the max-ratio diagnostic."""

    eps: float
    slope: float
    max_ratio: float
    records: tuple[PressureRecord, ...]
    witness_kind: str


@dataclass(frozen=True)
class DimensionEstimate:
    """Final fit of per-eps pressure against log(1/eps)."""

    per_eps_pressure: dict[float, float]
    slope: float
    intercept: float
    residual: float
    eps_schedule: tuple[float, ...]
    n_schedule: tuple[int, ...]
    details: dict = field(default_factory=dict)


def _logsumexp(values) -> float:
    """log(sum(exp(values))) of a 1-D sequence, the same double as
    ``scipy.special.logsumexp`` (1.17) returns.

    The maximum ``a_max`` and its ``m`` ties are taken out of the sum:
    ``log1p(sum_{others} exp(a - a_max) / m) + log(m) + a_max``.  When that
    is not finite (all -inf, an inf or a nan), ``log(sum(exp(a)))`` is
    returned instead.  An empty input gives -inf.  The other terms stay in
    place, masked to -inf, so that the pairwise sum groups them as scipy's
    does.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        at_max = a == a_max
        m = float(np.count_nonzero(at_max))
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def pressure_sum(system: ShiftSystem, points: Points,
                 phi: Potential, n: int, eps: float) -> float:
    """log of sum over the witness set of (1/eps)^{S_n phi}, in log space."""
    points = system.as_points(points)
    check_genuine(phi, points, [n])
    S_n = birkhoff_sums(system, phi, points.symbols, n)[:, n]
    return _logsumexp(math.log(1.0 / eps) * S_n)


# -- analytic oracle -----------------------------------------------------------


@dataclass(frozen=True)
class OracleBracket:
    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _symbol_table(system: ShiftSystem, phi: Potential) -> np.ndarray:
    k = system.alphabet_size
    if phi.kind not in (CONSTANT, TABLE):
        raise ConfigurationError(
            "the pressure oracle needs a constant or coordinate-0 potential"
        )
    if phi.kind == TABLE and len(phi.table) != k:
        raise ConfigurationError("potential table does not match alphabet")
    return phi.symbol_values(k)


def _best_separated_symbols(system: ShiftSystem, values: np.ndarray,
                            eps: float, L: float) -> float:
    """Max over eps-separated symbol subsets of log sum (1/eps)^{phi(a)}.

    For the absolute-difference alphabet this is a max-weight independent
    set on a path of symbols, solved by dynamic programming; the discrete
    alphabet is all-or-one.
    """
    k = system.alphabet_size
    weights = L * values  # log-scale weights
    if system.symbol_metric == DISCRETE:
        if eps <= 1.0:
            return _logsumexp(weights)
        return float(weights.max())
    # Symbols sit at a/k, so a and b conflict when |a - b| < eps * k.
    # best[i] = best log-sum over separated subsets of symbols < i.
    gap = eps * k
    best = np.full(k + 1, -np.inf)
    for a in range(k):
        skip = best[a]
        j = a - 1
        while j >= 0 and (a - j) < gap - 1e-12:
            j -= 1
        prev = best[j + 1]
        take = np.logaddexp(prev, weights[a]) if prev != -np.inf else weights[a]
        best[a + 1] = max(skip, take)
    return float(best[k])


def _net_symbols(system: ShiftSystem, eps: float) -> np.ndarray:
    """Indices of a symbol net with half-spacing below eps/4."""
    k = system.alphabet_size
    if system.symbol_metric == DISCRETE:
        if eps / 4.0 > 1.0:
            return np.array([0])
        return np.arange(k)
    # arithmetic net with step s keeps every symbol within s/(2k)
    s = max(1, int(math.floor(eps * k / 2.0 - 1e-12)))
    while s > 1 and (s // 2) / k >= eps / 4.0:
        s -= 1
    return np.arange(0, k, s)


def _modulus(system: ShiftSystem, phi: Potential, rho: float) -> float:
    """Upper bound on sup{|phi(x) - phi(y)| : d(x, y) <= rho} for a constant
    or coordinate-0 potential.

    d(x, y) <= rho bounds the symbol distance at coordinate 0 by rho, so
    the bound is the largest table difference over symbol pairs that close.
    """
    if phi.kind == CONSTANT or phi.base_min() == phi.base_max():
        return 0.0
    k = system.alphabet_size
    if system.symbol_metric == DISCRETE:
        sd = 1.0 - np.eye(k)
    else:
        vals = np.arange(k, dtype=float) / k
        sd = np.abs(vals[:, None] - vals[None, :])
    diffs = np.abs(np.subtract.outer(phi.table, phi.table))
    return float(abs(phi.scale) * diffs[sd <= rho + 1e-15].max())


def analytic_oracle_pressure(system: ShiftSystem, phi: Potential,
                             eps: float) -> OracleBracket:
    """Exact bracket on the per-step pressure P(eps) of a product system.

    Lower bound: words over an eps-separated symbol subset with a common
    tail are pairwise (n, eps)-separated and the weighted sum factorizes,
    so P(eps) >= log sum_{a in A'} (1/eps)^{phi(a)} with A' chosen to
    maximize the sum.  Upper bound: words over an eps/4-net span the space
    at radius eps/2 after a finite extension, and the separated-to-spanning
    comparison costs at most gamma(eps/2) * log(1/eps) per step, giving
    P(eps) <= log sum_{a in net} (1/eps)^{phi(a)} + gamma(eps/2) log(1/eps).
    Validate against brute-force counts before relying on it (see
    ``validate_pressure_oracle``).
    """
    if eps >= 1.0:
        raise ConfigurationError("oracle needs eps < 1")
    values = _symbol_table(system, phi)
    L = math.log(1.0 / eps)
    lo = _best_separated_symbols(system, values, eps, L)
    net = _net_symbols(system, eps)
    gamma = _modulus(system, phi, eps / 2.0)
    hi = _logsumexp(L * values[net]) + gamma * L
    if hi < lo - 1e-9:
        raise ConfigurationError("oracle bracket inverted; invalid inputs")
    return OracleBracket(lo=lo, hi=max(hi, lo))


def validate_pressure_oracle(system: ShiftSystem, phi: Potential, eps: float,
                             n_max: int = 3) -> dict:
    """Check the oracle bracket against exact brute-force counts.

    For each n <= n_max the best separated witness over the depth-n words
    gives an exact finite sum; the bracket must satisfy
    ``n * lo <= log_sum`` and ``log_sum <= n * hi + net_correction``.
    Raises on violation, returns the measured slacks.
    """
    bracket = analytic_oracle_pressure(system, phi, eps)
    net = _net_symbols(system, eps)
    r_ext = 1
    while system.tail_weight(r_ext) >= eps / 4.0:
        r_ext += 1
    slacks = {}
    for n in range(1, n_max + 1):
        pts = system.enumerate_points(n)
        witness, _ = max_separated(system, pts, n, eps)
        value = pressure_sum(system, witness, phi, n, eps)
        upper = n * bracket.hi + r_ext * math.log(max(len(net), 1))
        if value < n * bracket.lo - 1e-9:
            raise ConfigurationError(
                f"oracle lower bound fails at n={n}: {value} < {n * bracket.lo}"
            )
        if value > upper + 1e-9:
            raise ConfigurationError(
                f"oracle upper bound fails at n={n}: {value} > {upper}"
            )
        slacks[n] = (value - n * bracket.lo, upper - value)
    return slacks


# -- pressure and mean dimension ------------------------------------------------


def _slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.allclose(xs, xs[0]):
        raise DegenerateFitError("need at least two distinct grid values")
    coeffs = np.polyfit(xs, ys, 1)
    miss = ys - np.polyval(coeffs, xs)
    with np.errstate(over="ignore"):
        residual = float(np.sqrt(np.mean(miss ** 2)))
    if residual == math.inf and np.isfinite(miss).all():
        top = np.abs(miss).max()  # the squares overflow; scale them first
        residual = float(top * np.sqrt(np.mean((miss / top) ** 2)))
    return float(coeffs[0]), float(coeffs[1]), residual


def log_eps_fit(eps_schedule: Sequence[float], values: Sequence[float],
                n_schedule: Sequence[int] = (), details: dict | None = None,
                ) -> DimensionEstimate:
    """Least-squares fit of per-eps values against log(1/eps).

    The schedule is fitted as given, in order and with any repeats; the
    caller decides how many eps values it needs.
    """
    slope, intercept, residual = _slope(
        [math.log(1.0 / e) for e in eps_schedule], values)
    return DimensionEstimate(
        per_eps_pressure=dict(zip(eps_schedule, values)), slope=slope,
        intercept=intercept, residual=residual,
        eps_schedule=tuple(eps_schedule), n_schedule=tuple(n_schedule),
        details=details or {},
    )


def pressure_estimate(system: ShiftSystem, phi: Potential, eps: float,
                      n_schedule: Sequence[int],
                      exact_cap: int = DEFAULT_EXACT_CAP) -> PressureEstimate:
    """Estimate P(eps): oracle midpoint when exact, else witness slope.

    Constant and table potentials take the analytic oracle.  Any other
    potential takes the witness path: it enumerates depth-n words per n,
    takes the maximal separated set (exact up to the cap), and fits
    log_sum against n.
    """
    n_schedule = tuple(sorted(n_schedule))
    if len(set(n_schedule)) != len(n_schedule):
        raise ConfigurationError("n_schedule must be strictly increasing")
    if phi.kind in (CONSTANT, TABLE):
        bracket = analytic_oracle_pressure(system, phi, eps)
        records = tuple(
            PressureRecord(
                n=n, eps=eps, log_sum=n * bracket.mid,
                witness_kind=ANALYTIC_ORACLE,
                extra={"lo": n * bracket.lo, "hi": n * bracket.hi},
            )
            for n in n_schedule
        )
        return PressureEstimate(
            eps=eps, slope=bracket.mid, max_ratio=bracket.mid,
            records=records, witness_kind=ANALYTIC_ORACLE,
        )
    records = []
    for n in n_schedule:
        pts = system.enumerate_points(n)
        witness, exact = max_separated(system, pts, n, eps, exact_cap)
        kind = SEPARATED_EXACT if exact else SEPARATED_GREEDY
        log_sum = pressure_sum(system, witness, phi, n, eps)
        records.append(PressureRecord(n=n, eps=eps, log_sum=log_sum,
                                      witness_kind=kind,
                                      witness_size=len(witness)))
    if len(records) < 2:
        raise DegenerateFitError("need at least two usable n values")
    slope, _, _ = _slope([r.n for r in records], [r.log_sum for r in records])
    max_ratio = max(r.log_sum / r.n for r in records)
    kinds = {r.witness_kind for r in records}
    kind = SEPARATED_EXACT if kinds == {SEPARATED_EXACT} else SEPARATED_GREEDY
    return PressureEstimate(eps=eps, slope=slope, max_ratio=max_ratio,
                            records=tuple(records), witness_kind=kind)


def mdim_estimate(system: ShiftSystem, phi: Potential,
                  eps_schedule: Sequence[float], n_schedule: Sequence[int],
                  system_factory: Callable[[float], ShiftSystem] | None = None,
                  exact_cap: int = DEFAULT_EXACT_CAP) -> DimensionEstimate:
    """Fit per-eps pressure against log(1/eps); the slope estimates the
    upper metric mean dimension with potential.

    ``system_factory`` lets the model change with the scale (the grid
    baseline uses alphabet size ceil(1/eps) per eps).
    """
    eps_schedule = tuple(sorted(set(eps_schedule), reverse=True))
    if len(eps_schedule) < 3:
        raise ConfigurationError("need at least 3 eps values")
    estimates = []
    for eps in eps_schedule:
        sys_eps = system_factory(eps) if system_factory is not None else system
        estimates.append(pressure_estimate(sys_eps, phi, eps, n_schedule,
                                           exact_cap=exact_cap))
    return log_eps_fit(eps_schedule, [est.slope for est in estimates],
                       n_schedule=sorted(n_schedule),
                       details={"estimates": tuple(estimates)})


# -- induced pressure ------------------------------------------------------------


@dataclass(frozen=True)
class TimeLevelPartition:
    """Assignment of points to Birkhoff time levels at threshold T: x sits
    at the unique n with S_n psi <= T < S_{n+1} psi."""

    T: float
    levels: dict[int, Points]


def time_level_partition(system: ShiftSystem, points: Points,
                         psi: Potential, T: float) -> TimeLevelPartition:
    if psi.min <= 0:
        raise ConfigurationError("psi must be strictly positive")
    points = system.as_points(points)
    n_cap = int(math.floor(T / psi.min)) + 1
    S = birkhoff_sums(system, psi, points.symbols, n_cap + 1)
    # column i: S_{i+1} psi <= T < S_{i+2} psi, so the level is i + 1
    cross = (S[:, 1:-1] <= T) & (T < S[:, 2:])
    found, level = cross.any(axis=1), cross.argmax(axis=1) + 1
    above = S[:, 1] > T  # below the first level; no n >= 1 qualifies
    # the orders 1, 2, ... are read in turn up to the first crossing
    reads = np.where(above, 1, np.where(found, level + 1, n_cap + 1))
    # check_genuine's rule at the last order each point reads
    r = psi.effective_range()
    exhausted = (reads - 1 + r > points.depth) & (psi.kind != CONSTANT)
    bad = np.flatnonzero(exhausted | ~(above | found))
    if len(bad):  # the first point that fails either check is named
        i = bad[0]
        check_genuine(psi, points[i:i + 1], range(1, reads[i] + 1))
        raise ConfigurationError(
            f"no level found for point {tuple(points.symbols[i, :6].tolist())}"
            f" at T={T}"
        )
    keep = ~above
    return TimeLevelPartition(T=T, levels={
        n: points[keep & (level == n)]
        for n in dict.fromkeys(level[keep].tolist())})


@dataclass(frozen=True)
class InducedPressureValue:
    T: float
    eps: float
    log_sum: float
    witness: str
    per_level: dict[int, float]


def induced_pressure(system: ShiftSystem, points: Points,
                     phi: Potential, psi: Potential, T: float, eps: float,
                     witness: str = "separated",
                     exact_cap: int = DEFAULT_EXACT_CAP,
                     ) -> InducedPressureValue:
    """log of the double sum over levels of per-level witness sums.

    Separated witnesses give the P-side (a sup, evaluated on the maximal
    set); spanning witnesses give the Q-side, taking the smaller of the
    min-cover sum and the maximal-separated sum (a maximal separated set
    spans, so Q <= P holds cell by cell).
    """
    part = time_level_partition(system, points, psi, T)
    if not part.levels:
        return InducedPressureValue(T=T, eps=eps, log_sum=-math.inf,
                                    witness=witness, per_level={})
    per_level: dict[int, float] = {}
    for n, members in sorted(part.levels.items()):
        sep, exact = max_separated(system, members, n, eps, exact_cap)
        sep_sum = pressure_sum(system, sep, phi, n, eps)
        if witness == "separated":
            per_level[n] = sep_sum
        elif witness == "spanning":
            span, _ = min_spanning(system, members, n, eps, exact_cap)
            span_sum = pressure_sum(system, span, phi, n, eps)
            # greedy separation is maximal; when ``sep`` is it, reuse its sum
            maximal_sep_sum = sep_sum if not exact else pressure_sum(
                system, max_separated(system, members, n, eps, exact_cap=0)[0],
                phi, n, eps)
            per_level[n] = min(span_sum, maximal_sep_sum)
        else:
            raise ConfigurationError(f"unknown witness {witness!r}")
    total = _logsumexp(list(per_level.values()))
    return InducedPressureValue(T=T, eps=eps, log_sum=total, witness=witness,
                                per_level=per_level)


def induced_mdim_estimate(system: ShiftSystem, phi: Potential, psi: Potential,
                          eps_schedule: Sequence[float],
                          T_schedule: Sequence[float],
                          exact_cap: int = DEFAULT_EXACT_CAP,
                          ) -> DimensionEstimate:
    """Two-stage regression of log P_{psi,T} / (T log(1/eps)).

    Per eps the growth rate in T comes from a least-squares fit of
    log P_{psi,T} against T; the final slope is the fit of those rates
    against log(1/eps).
    """
    eps_schedule = tuple(sorted(set(eps_schedule), reverse=True))
    T_schedule = tuple(sorted(set(T_schedule)))
    if len(eps_schedule) < 3:
        raise ConfigurationError("need at least 3 eps values")
    m = psi.min
    if m <= 0:
        raise ConfigurationError("psi must be strictly positive")
    rates = []
    values: dict[tuple[float, float], InducedPressureValue] = {}
    for eps in eps_schedule:
        ys = []
        for T in T_schedule:
            pts = system.enumerate_points(max(1, int(math.floor(T / m))))
            val = induced_pressure(system, pts, phi, psi, T, eps,
                                   witness="separated", exact_cap=exact_cap)
            values[(eps, T)] = val
            ys.append(val.log_sum)
        rates.append(_slope(list(T_schedule), ys)[0])
    return log_eps_fit(eps_schedule, rates,
                       n_schedule=[int(t) for t in T_schedule],
                       details={"values": values})


# -- Bowen-equation root ----------------------------------------------------------


@dataclass(frozen=True)
class RootResult:
    beta: float
    value: float
    iterations: int
    bracket: tuple[float, float]
    evaluations: tuple[tuple[float, float], ...]


def solve_bowen_root(mdim_fn: Callable[[float], float], psi: Potential,
                     tol: float = 1e-3) -> RootResult:
    """Bisection root of beta -> mdim(phi - beta psi), which is strictly
    decreasing with slope at most -min(psi) at every finite scale.

    The initial bracket is [min(0, D/m) - tol, max(0, D/m) + tol] with
    D = mdim_fn(0); if estimator noise pushes the root outside, the bracket
    is widened once (doubled) before giving up.
    """
    m = psi.min
    if m <= 0:
        raise ConfigurationError("psi must be strictly positive")
    norm = psi.norm
    evals: list[tuple[float, float]] = []

    def f(beta: float) -> float:
        v = mdim_fn(beta)
        evals.append((beta, v))
        return v

    D = f(0.0)
    lo = min(0.0, D / m) - tol
    hi = max(0.0, D / m) + tol
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo >= 0.0 >= f_hi):
        width = hi - lo
        lo2, hi2 = lo - width / 2, hi + width / 2
        f_lo, f_hi = f(lo2), f(hi2)
        lo, hi = lo2, hi2
        if not (f_lo >= 0.0 >= f_hi):
            raise BracketError(
                f"root bracket failed after widening: f({lo})={f_lo}, "
                f"f({hi})={f_hi}"
            )
    bracket = (lo, hi)
    for iterations in range(1, ROOT_MAX_ITER + 1):
        beta = 0.5 * (lo + hi)
        value = f(beta)
        if abs(value) <= tol * norm:
            break
        if value > 0:
            lo = beta
        else:
            hi = beta
        if hi - lo <= tol / 4:
            break
    return RootResult(beta=beta, value=value, iterations=iterations,
                      bracket=bracket, evaluations=tuple(evals))
