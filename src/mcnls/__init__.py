"""Numerical laboratory for the mass-critical nonlinear Schrodinger
equation i u_t + Delta u = mu |u|^{4/d} u on a large periodic box."""

from .grid import (
    Field,
    GridSpec,
    boundary_mass_fraction,
    lp_norm,
    make_grid,
    read_snapshot,
    write_snapshot,
)
from .observables import energy, kinetic, mass, momentum, potential, variance
from .observables import kinetic as gradient_norm_sq
from .projections import (
    BUMP,
    BumpProfile,
    commutator_error,
    nonlinearity,
    project_band,
    project_high,
    project_low,
)
from .ground_state import (
    GroundState,
    PetviashviliError,
    closed_form_1d,
    gn_ratio,
    pohozaev_check,
    solve_petviashvili,
)
from .symmetries import (
    equation_residual,
    galilean_boost,
    pseudoconformal_sample,
    rescale,
    translate,
)
from .evolution import (
    DiagnosticsSeries,
    EvolutionConfig,
    admissible,
    concentration_estimates,
    evolve,
    free_pullback,
    scattering_cauchy_difference,
    step_strang,
    strichartz_norm,
    variance_blowup_time,
    virial_check,
)
from .morawetz import (
    CenteredWeights,
    MorawetzReport,
    WeightFamily,
    build_centered_weights,
    build_weights,
    centered_action,
    defocusing_gap,
    defocusing_gap_lower_bound,
    defocusing_interaction_action,
    interaction_action,
    interaction_action_direct,
    interaction_flux,
    weight_conditions_check,
    weight_family_checks,
)
from .envelope import (
    CertifyResult,
    Extremum,
    PiecewiseEnvelope,
    certify_ratio,
    cubic_mass,
    detect_extrema,
    peak_height_sum,
    random_envelope,
    read_envelope_csv,
    sawtooth_envelope,
    smallinterval_height_sum,
    smooth,
    smooth_once,
    total_variation,
    write_envelope_csv,
)

__version__ = "0.1.0"
