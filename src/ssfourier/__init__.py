"""Fourier decay machinery for homogeneous self-similar measures on C."""

__version__ = "0.1.0"

from .bounds import (
    DecayBound,
    DimensionBound,
    bernoulli_dim_lower,
    bernoulli_unbiased_dim_lower,
    covering_bound,
    delta_complex,
    delta_higherdim,
    delta_real_noncollinear,
    digit_transition_bound,
    entropy_h,
    eta_numeric,
    eta_two_digit,
    solve_flattening_epsilon,
)
from .dimensions import (
    alpha_estimate,
    dim_inf_estimate,
    dim_q_estimate,
    frostman_estimate,
    lq_moment,
)
from .errors import BudgetError, ConvergenceError, DomainError, RegimeError
from .fourier import (
    ScanField,
    energy_integral,
    fourier_sum,
    grid_scan,
    mu_hat,
    scanfield_from_binary,
    scanfield_to_binary,
    scanfield_to_csv,
    truncation_index,
)
from .measures import (
    DiscreteMeasure,
    IFSDescriptor,
    finite_approximation,
    ifs_from_json_str,
    measure_from_csv,
    scale_rotate,
    support_radius,
    tower_levels,
)
from .pushforward import (
    AnalyticMap,
    DecayProfile,
    annulus_maxima,
    check_second_derivative,
    decay_profile,
    pushforward_measure,
)
from .sparse import (
    CoveringReport,
    EKTrace,
    covering_report,
    ek_trace,
    enumerate_digit_sequences,
    verify_digit_inequality,
)
