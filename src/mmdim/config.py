"""Experiment configuration: bracketed sections with key = value pairs.

Numbers are accepted in decimal or 2^k notation (e.g. ``2^-5``).  The
[system] block describes the shift model; ``alphabet_size = per-scale``
makes the alphabet track ceil(1/eps) per scale, which is how the grid
baseline approximates the unit-interval alphabet.  Potentials live in
[potential.NAME] blocks and are referenced by name from the command
options.  Only this module reads the format: every key is parsed and
checked at load, where the models are built too, one ``ShiftSystem`` at
the smallest eps and one ``MeasureModel`` on it, which holds the seed.
Commands read those models and the typed ``ExperimentConfig`` fields.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass
from .bowen import DEFAULT_EXACT_CAP
from .errors import ConfigurationError
from .measures import PRODUCT_UNIFORM, MeasureModel
from .systems import FINITE_RANGE, TABLE, Potential, ShiftSystem

_POW_RE = re.compile(r"^([+-]?\d+(?:\.\d+)?)\^([+-]?\d+)$")


def parse_number(text: str) -> float:
    text = text.strip()
    m = _POW_RE.match(text)
    try:
        return float(m.group(1)) ** int(m.group(2)) if m else float(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigurationError(f"cannot parse number {text!r}") from exc


def parse_int(text: str, key: str) -> int:
    """An integer config value; ``key`` names it in the error message."""
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigurationError(
            f"{key} must be an integer, got {text.strip()!r}") from exc


def _int_key(parser: configparser.ConfigParser, section: str, key: str,
             default: str) -> int:
    """``[section] key`` as an integer, ``default`` where it is absent."""
    return parse_int(parser.get(section, key, fallback=default),
                     f"[{section}] {key}")


def parse_number_list(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(parse_number(p) for p in parts)


@dataclass(frozen=True)
class ExperimentConfig:
    system: ShiftSystem
    per_scale: bool
    measure: MeasureModel
    potentials: dict
    eps_schedule: tuple[float, ...]
    n_schedule: tuple[int, ...]
    T_schedule: tuple[float, ...]
    delta: float
    eta_schedule: tuple[float, ...]
    exact_cap: int
    subset_depth: int
    subset_n_max: int
    x_samples: int
    raw_text: str

    def config_hash(self) -> str:
        return hashlib.sha256(
            (self.raw_text + f"|seed={self.measure.seed}").encode()
        ).hexdigest()[:16]

    # -- models -----------------------------------------------------------

    def alphabet_for(self, eps: float) -> int:
        return (math.ceil(1.0 / eps) if self.per_scale
                else self.system.alphabet_size)

    def build_system(self, eps: float | None = None) -> ShiftSystem:
        """The system at ``eps``: the one built at load, at the smallest
        eps, with ceil(1/eps) symbols when the alphabet is per-scale."""
        if eps is None or not self.per_scale:
            return self.system
        return dataclasses.replace(self.system,
                                   alphabet_size=self.alphabet_for(eps))

    def potential(self, name: str) -> Potential:
        if name not in self.potentials:
            raise ConfigurationError(
                f"potential {name!r} not defined in the config")
        return self.potentials[name]


def _parse_potential(section: configparser.SectionProxy) -> Potential:
    kind = section.get("kind", "constant").strip()
    if kind == "constant":
        return Potential.constant(parse_number(section.get("value", "0")))
    if kind == "coordinate-table":
        values = parse_number_list(section.get("values", ""))
        if not values:
            raise ConfigurationError("coordinate-table potential needs values")
        return Potential.from_table(values)
    if kind == "finite-range":
        values = parse_number_list(section.get("values", ""))
        r = parse_int(section.get("range", "2"), f"[{section.name}] range")
        if r < 1:
            raise ConfigurationError(f"[{section.name}] range must be >= 1")
        return Potential.from_range_table(values, r)
    raise ConfigurationError(f"unknown potential kind {kind!r}")


def _check_potentials(cfg: ExperimentConfig) -> None:
    """Every potential must fit the alphabet at every eps of the schedule.

    A coordinate table is read at symbols 0..k-1, so it needs at least k
    values; a finite-range table is indexed by the words of its range, so
    it needs exactly k**range.  A Birkhoff sum over n steps reaches
    n·max|value| and the estimators scale it by log(1/eps), so that
    product must be finite at every configured order n (``[schedules] n``
    and ``[subset-dim] n_max``) and eps.
    """
    orders = (*cfg.n_schedule, cfg.subset_n_max)
    for eps in cfg.eps_schedule:
        k = cfg.alphabet_for(eps)
        for name, phi in cfg.potentials.items():
            size = len(phi.table)
            if phi.kind == TABLE and size < k:
                raise ConfigurationError(
                    f"[potential.{name}] has {size} values but the alphabet "
                    f"at eps = {eps:g} has {k} symbols")
            if phi.kind == FINITE_RANGE and size != k ** phi.range_len:
                raise ConfigurationError(
                    f"[potential.{name}] has {size} values but range "
                    f"{phi.range_len} over {k} symbols at eps = {eps:g} "
                    f"needs {k}^{phi.range_len}")
            reach = abs(math.log(1.0 / eps)) * phi.norm
            for n in orders:
                try:
                    finite = not reach or math.isfinite(n * reach)
                except OverflowError:  # n is past every double
                    finite = False
                if not finite:
                    raise ConfigurationError(
                        f"[potential.{name}] overflows: n * max|value| * "
                        f"log(1/eps) is not finite at n = {n}, eps = {eps:g}")


def _measure(parser: configparser.ConfigParser, system: ShiftSystem,
             seed: int) -> MeasureModel:
    """The [measure] block's measure on ``system``, product-uniform when
    the block is absent; the model refuses a kind it does not know."""
    block = parser["measure"] if "measure" in parser else {}
    kind = block.get("kind", PRODUCT_UNIFORM).strip()
    p = parse_number_list(block.get("p", ""))
    if kind == PRODUCT_UNIFORM:
        return MeasureModel.product_uniform(system, seed=seed)
    if kind == "point-mass":
        return MeasureModel.point_mass(
            system, system.points([[0] * system.word_length]), seed=seed)
    return MeasureModel(kind=kind, system=system, p=p, seed=seed)


def load_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc

    if "system" not in parser:
        raise ConfigurationError("missing [system] section")
    sysblk = parser["system"]
    alphabet = sysblk.get("alphabet_size", "2").strip()
    per_scale = alphabet == "per-scale"
    k = 0 if per_scale else parse_int(alphabet, "[system] alphabet_size")

    if "run" not in parser or "seed" not in parser["run"]:
        raise ConfigurationError("missing required key 'seed' in [run]")
    seed = parse_int(parser["run"]["seed"], "[run] seed")

    sched = parser["schedules"] if "schedules" in parser else {}
    eps_schedule = parse_number_list(
        sched.get("eps", "2^-3 2^-4 2^-5 2^-6 2^-7 2^-8"))
    n_values = parse_number_list(sched.get("n", "2 3 4 5 6 7 8"))
    if not all(v.is_integer() for v in n_values):
        raise ConfigurationError(
            f"schedule 'n' entries must be integers, got {n_values}")
    n_schedule = tuple(int(v) for v in n_values)
    T_schedule = parse_number_list(sched.get("T", ""))
    if not eps_schedule:
        raise ConfigurationError("schedule 'eps' must be nonempty")
    for e in eps_schedule:  # 1/eps sizes per-scale alphabets
        if not (0.0 < e < math.inf and math.isfinite(1.0 / e)):
            raise ConfigurationError("schedule 'eps' entries must be positive "
                                     f"with a finite 1/eps, got {e!r}")
    if not all(0.0 <= t < math.inf for t in T_schedule):  # T/min psi: a depth
        raise ConfigurationError(
            "schedule 'T' entries must be finite and non-negative")
    if sorted(eps_schedule, reverse=True) != list(eps_schedule):
        raise ConfigurationError("schedule 'eps' must be decreasing")
    if sorted(n_schedule) != list(n_schedule) or not n_schedule:
        raise ConfigurationError("schedule 'n' must be increasing")
    if n_schedule[0] < 1:
        raise ConfigurationError("schedule 'n' entries must be >= 1")
    delta = parse_number(sched.get("delta", "0.5"))
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(
            f"[schedules] delta must lie in (0, 1), got {delta!r}")
    eta_schedule = parse_number_list(sched.get("eta", "0.5 0.25"))
    if not eta_schedule or not all(0.0 <= e < math.inf for e in eta_schedule):
        raise ConfigurationError("[schedules] eta must be nonempty, its "
                                 "entries finite and non-negative")

    enumeration_cap = _int_key(parser, "caps", "enumeration", "2000000")
    exact_cap = _int_key(parser, "caps", "exact_search",
                         str(DEFAULT_EXACT_CAP))

    eps_min = eps_schedule[-1]
    system = ShiftSystem(
        kind=sysblk.get("kind", "full-shift").strip(),
        alphabet_size=math.ceil(1.0 / eps_min) if per_scale else k,
        sidedness=sysblk.get("sidedness", "one-sided").strip(),
        window=_int_key(parser, "system", "window", "16"),
        symbol_metric=sysblk.get("symbol_metric", "").strip(),
        weight_base=parse_number(sysblk.get("weight_base", "0.5")),
        eps_min=eps_min, enumeration_cap=enumeration_cap,
    )
    # the measure holds one probability per symbol, and the symbols of a
    # coordinate are one pool, which the enumeration cap bounds
    if system.alphabet_size > enumeration_cap:
        raise ConfigurationError(
            f"[system] alphabet_size: {system.alphabet_size} symbols at "
            f"eps = {eps_min:g} exceed the enumeration cap {enumeration_cap}")
    measure = _measure(parser, system, seed)

    potentials = {}
    for name in parser.sections():
        if name.startswith("potential."):
            potentials[name.split(".", 1)[1]] = _parse_potential(parser[name])

    subset_depth = _int_key(parser, "subset-dim", "depth", "3")
    subset_n_max = _int_key(parser, "subset-dim", "n_max", str(n_schedule[-1]))
    for key, value in (("depth", subset_depth), ("n_max", subset_n_max)):
        if value < 1:
            raise ConfigurationError(
                f"[subset-dim] {key} must be >= 1, got {value}")
    x_samples = _int_key(parser, "entropy", "x_samples", "24")
    # the sampled points are one pool, which the enumeration cap bounds
    if not 1 <= x_samples <= enumeration_cap:
        raise ConfigurationError(
            f"[entropy] x_samples must lie in 1..{enumeration_cap} "
            f"(the enumeration cap), got {x_samples}")

    cfg = ExperimentConfig(
        system=system, per_scale=per_scale, measure=measure,
        potentials=potentials, eps_schedule=eps_schedule,
        n_schedule=n_schedule, T_schedule=T_schedule, delta=delta,
        eta_schedule=eta_schedule, exact_cap=exact_cap,
        subset_depth=subset_depth, subset_n_max=subset_n_max,
        x_samples=x_samples, raw_text=text)
    _check_potentials(cfg)
    return cfg


def load_config(path: str, seed_override: int | None = None,
                ) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = load_config_text(fh.read())
    if seed_override is not None:  # the seed is the measure's
        cfg = dataclasses.replace(cfg, measure=dataclasses.replace(
            cfg.measure, seed=seed_override))
    return cfg
