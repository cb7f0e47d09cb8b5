"""Numerical laboratory for the mass-critical nonlinear Schrodinger
equation i u_t + Delta u = mu |u|^{4/d} u on a large periodic box.

The namespace is lazy: `import mcnls` loads no submodule, and each public
name below is looked up in its submodule on every access (PEP 562), so a
run imports only the modules it uses.  The lookup is not cached here, so
a patch of `mcnls.<module>.<name>` shows through `mcnls.<name>`.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> "module" that defines it, or "module.attribute" for an alias
_EXPORTS = {
    **dict.fromkeys(("Field", "GridSpec", "boundary_mass_fraction", "lp_norm", "make_grid",
                     "read_snapshot", "write_snapshot"), "grid"),
    **dict.fromkeys(("energy", "kinetic", "mass", "momentum", "potential", "variance"),
                    "observables"),
    "gradient_norm_sq": "observables.kinetic",
    **dict.fromkeys(("BUMP", "BumpProfile", "commutator_error", "nonlinearity", "project_band",
                     "project_high", "project_low"), "projections"),
    **dict.fromkeys(("GroundState", "PetviashviliError", "closed_form_1d", "gn_ratio",
                     "pohozaev_check", "solve_petviashvili"), "ground_state"),
    **dict.fromkeys(("equation_residual", "galilean_boost", "pseudoconformal_sample",
                     "rescale", "translate"), "symmetries"),
    **dict.fromkeys(("DiagnosticsSeries", "EvolutionConfig", "admissible",
                     "concentration_estimates", "evolve", "free_pullback",
                     "scattering_cauchy_difference", "step_strang", "strichartz_norm",
                     "variance_blowup_time", "virial_check"), "evolution"),
    **dict.fromkeys(("CenteredWeights", "MorawetzReport", "WeightFamily",
                     "build_centered_weights", "build_weights", "centered_action",
                     "defocusing_gap", "defocusing_gap_lower_bound",
                     "defocusing_interaction_action", "interaction_action",
                     "interaction_action_direct", "interaction_flux",
                     "weight_conditions_check", "weight_family_checks"), "morawetz"),
    **dict.fromkeys(("CertifyResult", "Extremum", "PiecewiseEnvelope", "certify_ratio",
                     "cubic_mass", "detect_extrema", "peak_height_sum", "random_envelope",
                     "read_envelope_csv", "sawtooth_envelope", "smallinterval_height_sum",
                     "smooth", "smooth_once", "total_variation", "write_envelope_csv"),
                    "envelope"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module, _, attr = _EXPORTS[name].partition(".")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), attr or name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
