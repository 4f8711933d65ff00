"""Desk-scale estimators for metric mean dimension with potential.

Shift models with truncated weighted metrics, Bowen-ball combinatorics,
pressure sums and mean-dimension regression, Caratheodory-Pesin subset
dimensions, local measure entropies, and a verification harness that runs
the theory's finite-scale identities and inequalities as executable
assertions.
"""

from .bowen import (
    BallSpec,
    five_r_disjointify,
    max_separated,
    min_spanning,
)
from .caratheodory import (
    STRUCTURES,
    CriticalValue,
    OuterMeasureProblem,
    Structure,
    StructureValue,
    critical_lambda,
    subset_mdim,
    value,
)
from .config import ExperimentConfig, load_config, load_config_text, parse_number
from .errors import (
    BracketError,
    ConfigurationError,
    DegenerateFitError,
    EnumerationCapError,
    MMDimError,
    PoolInsufficientError,
    WindowExhaustedError,
)
from .measures import (
    EntropyEstimate,
    KatokCount,
    MassEstimate,
    MeasureModel,
    ball_mass_bracket,
    brin_katok,
    bs_entropy,
    estimate_ball_mass,
    exact_cylinder_bracket,
    gmu_mdim_estimate,
    katok_entropy,
    katok_rn,
    ps_entropy,
)
from .pressure import (
    DimensionEstimate,
    OracleBracket,
    PressureEstimate,
    PressureRecord,
    RootResult,
    TimeLevelPartition,
    analytic_oracle_pressure,
    induced_mdim_estimate,
    induced_pressure,
    mdim_estimate,
    pressure_estimate,
    pressure_sum,
    solve_bowen_root,
    time_level_partition,
    validate_pressure_oracle,
)
from .systems import (
    Points,
    Potential,
    ShiftSystem,
    combine,
)
from .verify import AssertionResult, run_suite

__version__ = "0.1.0"
