import subprocess
import sys

import pytest

import mcnls

# the package's public names and the module attribute each one is, as
# `mcnls/__init__.py` exported them when it imported every module eagerly
_PUBLIC = {
    "grid": ("Field", "GridSpec", "boundary_mass_fraction", "lp_norm", "make_grid",
             "read_snapshot", "write_snapshot"),
    "observables": ("energy", "kinetic", "mass", "momentum", "potential", "variance"),
    "projections": ("BUMP", "BumpProfile", "commutator_error", "nonlinearity", "project_band",
                    "project_high", "project_low"),
    "ground_state": ("GroundState", "PetviashviliError", "closed_form_1d", "gn_ratio",
                     "pohozaev_check", "solve_petviashvili"),
    "symmetries": ("equation_residual", "galilean_boost", "pseudoconformal_sample", "rescale",
                   "translate"),
    "evolution": ("DiagnosticsSeries", "EvolutionConfig", "admissible",
                  "concentration_estimates", "evolve", "free_pullback",
                  "scattering_cauchy_difference", "step_strang", "strichartz_norm",
                  "variance_blowup_time", "virial_check"),
    "morawetz": ("CenteredWeights", "MorawetzReport", "WeightFamily", "build_centered_weights",
                 "build_weights", "centered_action", "defocusing_gap",
                 "defocusing_gap_lower_bound", "defocusing_interaction_action",
                 "interaction_action", "interaction_action_direct", "interaction_flux",
                 "weight_conditions_check", "weight_family_checks"),
    "envelope": ("CertifyResult", "Extremum", "PiecewiseEnvelope", "certify_ratio", "cubic_mass",
                 "detect_extrema", "peak_height_sum", "random_envelope", "read_envelope_csv",
                 "sawtooth_envelope", "smallinterval_height_sum", "smooth", "smooth_once",
                 "total_variation", "write_envelope_csv"),
}
_NAMES = [(module, name, name) for module, names in _PUBLIC.items() for name in names]
_NAMES.append(("observables", "gradient_norm_sq", "kinetic"))


@pytest.mark.parametrize("module, name, attr", _NAMES)
def test_public_name_resolves_to_its_module_attribute(module, name, attr):
    from importlib import import_module

    assert getattr(mcnls, name) is getattr(import_module(f"mcnls.{module}"), attr)
    assert name in dir(mcnls) and name in mcnls.__all__


def test_from_import_and_version():
    from mcnls import build_weights, make_grid
    from mcnls.grid import make_grid as grid_make_grid
    from mcnls.morawetz import build_weights as morawetz_build_weights

    assert make_grid is grid_make_grid and build_weights is morawetz_build_weights
    assert mcnls.__version__ == "0.1.0"
    assert set(mcnls.__all__) == {name for _, name, _ in _NAMES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mcnls.no_such_name


def test_patched_module_attribute_shows_through_the_package(monkeypatch):
    import mcnls.morawetz

    def fake(*args):
        return "patched"

    monkeypatch.setattr(mcnls.morawetz, "build_weights", fake)
    assert mcnls.build_weights is fake
    monkeypatch.undo()
    assert mcnls.build_weights is not fake
    assert "build_weights" not in vars(mcnls)


def test_bare_import_loads_no_submodule():
    code = "import sys, mcnls; print(sorted(m for m in sys.modules if m.startswith('mcnls.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
