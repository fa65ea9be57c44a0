"""Exact Haar-measure moments of the unitary group and the generic dynamics
they imply for complex open quantum systems, with a Monte Carlo oracle for
every analytic result."""

__version__ = "0.1.0"

from .errors import DimensionError, HaarMomentsError
from .linalg import (
    BipartiteDims,
    EnsembleKind,
    RngStream,
    haar_batches,
    hs_norm_sq,
    partial_trace_env,
    partial_trace_sys,
    sample_gue_hamiltonians,
    sample_spectra,
    trace_power,
)
from .weingarten import (
    conjugacy_class_of,
    fourth_moment_closed,
    moment_function,
)
from .closed_forms import (
    FormFactorInputs,
    TimeCoeffs,
    f_of_t,
    form_factor_inputs,
    general_average,
    haar_form_factors,
    time_coeffs,
    uniform_average,
    uniform_variance,
    variance_coeffs,
)
from .ensembles import (
    averaged_form_factors,
    averaged_time_coeffs,
    gue_form_factors,
    poisson_form_factors,
)
from .applications import (
    Curve,
    ThermalizationParams,
    closed_thermalization,
    depolarizing_average,
    equilibration_large_de,
    fit_decay_exponent,
    gibbs_purity,
    gibbs_purity_mc,
    open_thermalization,
    purity_evolution,
    two_state_general,
    two_state_uniform,
    uniform_purity,
)
from .mc import (
    McEstimate,
    empirical_fixed_spectrum,
    empirical_form_factors,
    empirical_moments,
    empirical_purity,
    empirical_reduced_norm,
    empirical_thermal_distance,
)
