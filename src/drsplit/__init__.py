"""Resolvent calculus and splitting-iteration toolkit.

A small numpy library for experimenting with the Douglas-Rachford splitting
map T = Id - J_A + J_B(2 J_A - Id) built from resolvent-defined maximally
monotone operators. It tracks governing/shadow/dual-shadow sequences in both
the consistent and the inconsistent case, estimates the minimal displacement
vector, verifies a catalogue of exact operator identities numerically, and
checks Fejer-monotonicity and summability properties against sampled
solution sets.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    MonotonicityError,
    NonFiniteIterateError,
    OperatorContractError,
    OperatorFamilyError,
    RankDeficiencyError,
    UncertifiedFixedPointError,
)
from .identities import (
    ResidualReport,
    affine_gap_residuals,
    dr_decomposition_residuals,
    eight_point_residual,
    fixed_point_step_residuals,
    linear_relation_residual,
    skew_residuals,
    three_point_residuals,
)
from .operators import (
    GraphPoint,
    MonotoneOperator,
    dual_flip,
    inner_shift,
    inverse,
    minty_forward,
    minty_inverse,
    normal_cone,
    outer_shift,
    piecewise_linear_1d,
    product,
    projector_operator,
    reflected,
    rotator,
    scaled_id_plus_normal_cone,
)
from .runner import (
    IdentitySweep,
    RunSummary,
    ScenarioConfig,
    check_identities,
    make_config,
    operator_pair_library,
    parse_config_file,
    run,
    write_summary_json,
    write_trace_csv,
)
from .scenarios import (
    CheckResult,
    ScenarioInstance,
    build_scenario,
    get_scenario,
    list_scenarios,
    random_affine_pair,
    random_pw1d_pair,
)
from .solutions import (
    FejerResult,
    SetSample,
    SolutionSets,
    SummabilityReport,
    SweetPrincipleReport,
    decoupled_1d_fejer_check,
    fejer_check,
    primal_dual_from_fix,
    summability_report,
    sweet_principle_check,
)
from .space import (
    AffineSubspace,
    Ball,
    Box,
    NonnegativeOrthant,
    Singleton,
    as_point,
    as_points,
    diameter,
    orthonormalize,
    project,
)
from .splitting import (
    DRProblem,
    DRTrace,
    StopReason,
    dr_apply,
    iterate,
    normal_problem,
    shifted_governing,
    trailing_quarter,
)

__version__ = "0.1.0"
