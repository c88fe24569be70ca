"""chemolab: exponent calculus and a conservative finite-volume laboratory
for the parabolic-parabolic chemotaxis system with singular sensitivity

    u_t = lap(u) - chi * div(u/v * grad v),    v_t = k * lap(v) - v + u

under zero-flux boundary conditions.  The exponent side evaluates every
closed-form threshold and the integrability bootstrap; the simulator side
integrates the system on rectangles and radially symmetric balls while
testing the moment-functional inequalities along the computed trajectory.
"""

from .diagnostics import (
    CheckVerdict,
    MonitorConfig,
    TimeSeries,
    compute_row,
    dissipation,
    dissipation_check,
    energy,
    gronwall_check,
    lq_norm,
    mass_drift,
    min_v_floor_check,
    smoothing_ratio,
)
from .errors import (
    ConfigError,
    DomainError,
    ExponentConditionError,
    InsufficientRows,
    NotApplicable,
    PositivityViolation,
    WindowUndefined,
)
from .exponents import (
    AdmissibleWindow,
    BootstrapChain,
    BootstrapStep,
    ModelParams,
    RatioBounds,
    admissibility_coeffs,
    admissibility_discriminant,
    admissibility_quadratic,
    admissible_window,
    bootstrap,
    bootstrap_gain,
    bootstrap_gain_quadratic,
    center_ratio,
    center_ratio_bounds,
    center_ratio_trend,
    chi_star,
    is_below_threshold,
    next_p_upper,
    p_max,
)
from .meshes import (
    CartesianMesh2D,
    RadialShellMesh,
    State,
)
from .runconfig import (
    RunConfig,
    SweepSpec,
    build_initial,
    build_mesh,
    build_params,
    build_scheme,
    load_run_config,
    load_sweep_spec,
    parse_run_config,
    parse_sweep_spec,
    resolve_monitors,
    serialize_run_config,
)
from .solver import (
    RunReport,
    SchemeConfig,
    initial_state,
    run,
    run_batch,
    stable_dt,
    step,
)

__version__ = "0.1.0"
