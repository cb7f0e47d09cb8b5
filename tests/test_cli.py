import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcnls import Field, make_grid, read_snapshot, write_snapshot
from mcnls.cli import (
    _INITIAL_KINDS, _SCHEMA, MAX_WEIGHTS_M, SCENARIOS, Checks, _parse, _reads, main, run_scenario,
)


def _write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _sim_config(outdir, **overrides):
    cfg = {
        "scenario": "simulate",
        "grid": {"d": 1, "n": 256, "L": 16.0},
        "evolution": {"mu": -1, "dt": 1e-3, "t_end": 0.05, "stride": 10},
        "initial": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0},
        "output": {"dir": str(outdir)},
    }
    cfg.update(overrides)
    return cfg


def test_version_and_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mcnls 0.1.0" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for scenario in SCENARIOS:
        assert scenario in out


def test_unknown_subcommand_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_config_key_is_hard_error(tmp_path):
    cfg = _sim_config(tmp_path / "out")
    cfg["evolutionn"] = {}
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "unknown config key" in manifest["failure"]


def test_unknown_nested_key(tmp_path):
    out = tmp_path / "out"
    cfg = _sim_config(out)
    cfg["evolution"]["dtt"] = 1e-3
    assert run_scenario(_write_config(tmp_path, cfg)) == 2


def test_unknown_scenario(tmp_path):
    cfg = {"scenario": "explode", "output": {"dir": str(tmp_path / "o")}}
    assert run_scenario(_write_config(tmp_path, cfg)) == 2


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _sim_config(out)
    cfg["output"]["emit_snapshots"] = True
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    assert (out / "diagnostics.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["mass_drift"]["passed"]
    assert manifest["checks"]["energy_drift"]["passed"]
    assert manifest["outcome"] == "completed"
    snap = read_snapshot(out / "initial.mcnls")
    assert snap.grid.n == 256
    text = (out / "diagnostics.csv").read_text()
    assert "\r" not in text
    assert text.splitlines()[0].startswith("t,mass,energy")


def test_simulate_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = _write_config(tmp_path, _sim_config(out1), "a.json")
    p2 = _write_config(tmp_path, _sim_config(out2), "b.json")
    assert run_scenario(p1) == 0
    assert run_scenario(p2) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


def test_soliton_simulation_conserves(tmp_path):
    out = tmp_path / "out"
    cfg = _sim_config(out, initial={"kind": "soliton"},
                      grid={"d": 1, "n": 512, "L": 16.0})
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["mass_drift"]["value"] <= 1e-10


def test_gn_check_is_an_unknown_scenario(tmp_path):
    # ground-state certifies Q's extremality and runs the random fields
    out = tmp_path / "out"
    cfg = {"scenario": "gn-check", "grid": {"d": 1, "n": 1024, "L": 20.0},
           "output": {"dir": str(out)}}
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error: unknown scenario 'gn-check'")
    assert _only_manifest_written(out)


def test_weight_check_is_an_unknown_scenario(tmp_path):
    # morawetz checks the weight family it pairs with
    out = tmp_path / "out"
    cfg = {"scenario": "weight-check", "grid": {"d": 1}, "weights": {"M": 8},
           "output": {"dir": str(out)}}
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == ("config error: unknown scenario 'weight-check'; choose one of "
                       "simulate, ground-state, morawetz, smooth-envelope")
    assert _only_manifest_written(out)


def test_ground_state_scenario(tmp_path):
    out = tmp_path / "out"
    cfg = {"scenario": "ground-state", "grid": {"d": 1, "n": 1024, "L": 20.0},
           "output": {"dir": str(out)}}
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    detail, checks = manifest["detail"], manifest["checks"]
    assert detail["mass_sq"] == pytest.approx(np.sqrt(3) * np.pi / 2, abs=1e-5)
    assert set(detail) == {"mass_sq", "gn_constant", "residual", "gn_ratio", "worst_random_ratio"}
    assert abs(detail["gn_ratio"] - 1.0) <= 1e-4
    assert detail["worst_random_ratio"] == checks["random_field_ratio"]["value"] < 1.0
    assert sorted(p.name for p in out.iterdir()) == ["ground_state.mcnls", "manifest.json"]


def test_morawetz_scenario(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "scenario": "morawetz",
        "grid": {"d": 1, "n": 256, "L": 16.0},
        "evolution": {"mu": 1, "dt": 1e-3, "t_end": 0.02, "stride": 5},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.5,
                    "k0": [0.589048622548086]},
        "weights": {"M": 8, "R": 4},
        "output": {"dir": str(out)},
    }
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    lines = (out / "morawetz.csv").read_text().splitlines()
    assert lines[0] == "t,action,flux,coercive,tail,curvature,envelope_drift"
    assert len(lines) >= 4


def test_smooth_envelope_scenario_bundled(tmp_path):
    out = tmp_path / "out"
    cfg = {"scenario": "smooth-envelope",
           "envelope": {"m": 3, "input": "bundled:sawtooth"},
           "output": {"dir": str(out)}}
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["certify_bound"]["passed"]
    assert (out / "envelope_smoothed.csv").exists()


def test_envelope_j0_is_an_unknown_config_key(tmp_path):
    # the input file's header is the one source of J0
    out = tmp_path / "out"
    cfg = _envelope_config(out)
    cfg["envelope"]["J0"] = 2.0
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] == "config error: unknown config key: envelope.J0"
    assert not (out / "envelope_smoothed.csv").exists()


def test_envelope_csv_with_a_second_j0_line_is_config_error(tmp_path):
    # two header lines are an error, not the last one silently winning
    out = tmp_path / "out"
    csv = tmp_path / "envelope.csv"
    csv.write_text("# J0=2.0\n# J0=3.0\nt,N\n0,0\n1,-1\n2,0\n")
    cfg = _envelope_config(out)
    cfg["envelope"]["input"] = str(csv)
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == "config error: envelope CSV has a second '# J0=' header line: '# J0=3.0'"
    assert not (out / "envelope_smoothed.csv").exists()


def test_morawetz_action_kernel_bound_that_overflows_is_config_error(tmp_path):
    # at R = 1e308 the bound 2 M R ||p||_1 ||rho||_1 is inf, and |A| / inf reads
    # 0.0 whatever the action; at R = 1e150 the bound is finite and checked
    out = tmp_path / "out"
    cfg = _morawetz_config(out)
    cfg["weights"]["R"] = 1e150
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    check = json.loads((out / "manifest.json").read_text())["checks"]["action_kernel_bound"]
    assert check["value"] == pytest.approx(1.7745908264212366e-153, rel=1e-12)
    cfg["weights"]["R"] = 1e308
    (out / "morawetz.csv").unlink()
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"].startswith("config error: weights.R = 1e+308 ")
    assert manifest["checks"] == {} and not (out / "morawetz.csv").exists()


def test_smooth_envelope_stops_passing_at_the_fixed_point(tmp_path):
    # the sawtooth's exponents stop changing after one pass; the parent ran all
    # 10^9 passes (about 8 h at 30 us each)
    import time

    outputs = {}
    for m in (401, 10 ** 9):
        cfg = _envelope_config(tmp_path / str(m))
        cfg["envelope"]["m"] = m
        start = time.monotonic()
        assert run_scenario(_write_config(tmp_path, cfg)) == 0
        assert time.monotonic() - start < 2.0
        outputs[m] = (tmp_path / str(m) / "envelope_smoothed.csv").read_bytes()
    assert outputs[10 ** 9] == outputs[401]


def test_smooth_envelope_smooths_once(tmp_path, monkeypatch):
    # the certificate takes the smoothed envelope the run writes; the parent
    # smoothed it a second time inside the certificate
    from mcnls import envelope

    calls = []
    monkeypatch.setattr(envelope, "smooth",
                        lambda e, m, smooth=envelope.smooth: (calls.append(m), smooth(e, m))[1])
    cfg = _envelope_config(tmp_path / "out")
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    assert calls == [3]


def _family_config(outdir, d, R, M=8):
    """A morawetz run that pairs no step: it checks the weight family at M."""
    return {"scenario": "morawetz", "grid": {"d": d, "n": 16, "L": 8.0},
            "evolution": {"mu": 1, "dt": 1e-3, "t_end": 0.0},
            "initial": {"kind": "gaussian"}, "weights": {"M": M, "R": R},
            "output": {"dir": str(outdir)}}


# the family checks, as the weight-check scenario wrote them:
# {(d, M): {name: (value, threshold)}}
_FAMILY = {
    (1, 4): {"phi_bounded": (0.8333333333333334, 1.0000000001),
             "dphi_bound": (0.125, 0.2500000001), "d2phi_bound": (0.25, 0.2500000001),
             "phi_support": (4.163336342344337e-17, 1e-10)},
    (1, 8): {"phi_bounded": (0.9166666666666666, 1.0000000001),
             "dphi_bound": (0.0625, 0.1250000001), "d2phi_bound": (0.125, 0.1250000001),
             "phi_support": (3.469446951953614e-17, 1e-10)},
    (1, 256): {"phi_bounded": (0.9973958333333334, 1.0000000001),
               "dphi_bound": (0.001953125, 0.0039062501),
               "d2phi_bound": (0.00390625, 0.0039062501),
               "phi_support": (3.707971429900425e-17, 1e-10)},
    (2, 4): {"phi_bounded": (0.6979166666666666, 1.0000000001),
             "phi_monotone": (4.4002084779414646e-13, 1e-10),
             "phi_support": (1.3234889800848443e-23, 1e-10)},
    (2, 8): {"phi_bounded": (0.8411458333333334, 1.0000000001),
             "phi_monotone": (2.2970449913475887e-13, 1e-10),
             "phi_support": (6.617444900424222e-24, 1e-10)},
    (2, 256): {"phi_bounded": (0.9947992960611979, 1.0000000001),
               "phi_monotone": (0.0, 1e-10),
               "phi_support": (2.5849394142282115e-26, 1e-10)},
}


@pytest.mark.parametrize("R", [3.0, 40.0])
@pytest.mark.parametrize("d, M", list(_FAMILY), ids=[f"{d}-M{M}" for d, M in _FAMILY])
def test_morawetz_checks_the_weight_family_it_pairs_with(tmp_path, d, M, R):
    # the family depends on d and M only, so R changes none of its entries
    out = tmp_path / "out"
    assert run_scenario(_write_config(tmp_path, _family_config(out, d, R, M))) == 0
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert {name: check for name, check in checks.items() if name.startswith("family_")} == {
        f"family_{name}": {"passed": True, "value": value, "threshold": threshold}
        for name, (value, threshold) in _FAMILY[d, M].items()}


def _break_family(monkeypatch, profiles):
    """Patch build_weights to return its family w with the profiles profiles(w) names."""
    from dataclasses import replace

    import mcnls.morawetz

    real = mcnls.morawetz.build_weights

    def broken(*args, **kwargs):
        w = real(*args, **kwargs)
        return replace(w, **profiles(w))

    monkeypatch.setattr(mcnls.morawetz, "build_weights", broken)


def _stretched(w):
    # phi(0.999 r) is still nonzero at r = 2M, where the support must end
    return {"phi": lambda r: w.phi(0.999 * r), "dphi": lambda r: 0.999 * w.dphi(0.999 * r)}


def test_morawetz_fails_a_family_whose_support_does_not_end_at_2m(tmp_path, monkeypatch):
    _break_family(monkeypatch, _stretched)
    out = tmp_path / "out"
    assert run_scenario(_write_config(tmp_path, _morawetz_config(out))) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["checks"]["family_phi_support"]["passed"]
    assert "family_phi_support" in manifest["failure"]


_BROKEN_FAMILIES = [
    (1, "phi_bounded", lambda w: {"phi": lambda r: 1.2 * w.phi(r)}),
    (1, "dphi_bound", lambda w: {"dphi": lambda r: 3.0 * w.dphi(r)}),
    (1, "d2phi_bound", lambda w: {"d2phi": lambda r: 2.0 * w.d2phi(r)}),
    (1, "phi_support", _stretched),
    (2, "phi_bounded", lambda w: {"phi": lambda r: 1.2 * w.phi(r)}),
    # a bump that rises from r = 0 and is gone at r = 2M
    (2, "phi_monotone",
     lambda w: {"phi": lambda r: w.phi(r) + 1e-3 * r * np.clip(2.0 * w.M - r, 0.0, None)}),
    (2, "phi_support", _stretched),
]


@pytest.mark.parametrize("d, check, profiles", _BROKEN_FAMILIES,
                         ids=[f"{d}-{check}" for d, check, _ in _BROKEN_FAMILIES])
def test_morawetz_fails_each_family_check_a_broken_family_breaks(tmp_path, monkeypatch, d,
                                                                 check, profiles):
    # each family check can fail inside a run, and it fails alone
    _break_family(monkeypatch, profiles)
    out = tmp_path / "out"
    assert run_scenario(_write_config(tmp_path, _family_config(out, d, 4.0))) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    failed = [name for name, c in manifest["checks"].items() if not c["passed"]]
    assert failed == [f"family_{check}"]
    assert manifest["failure"] == f"checks failed: family_{check}"


def test_manifest_written_on_failure(tmp_path):
    out = tmp_path / "out"
    cfg = _sim_config(out, initial={"kind": "snapshot", "path": "/nonexistent"})
    code = run_scenario(_write_config(tmp_path, cfg))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]


def test_cli_subprocess_entry(tmp_path):
    cfg = _sim_config(tmp_path / "out")
    p = _write_config(tmp_path, cfg)
    proc = subprocess.run([sys.executable, "-m", "mcnls.cli", "run", str(p)],
                          capture_output=True)
    assert proc.returncode == 0


def test_cli_import_leaves_signal_and_interpolate_unloaded():
    code = ("import sys, mcnls.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.interpolate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_2d_morawetz_run_leaves_interpolate_special_linalg_unloaded(tmp_path):
    cfg = {
        "scenario": "morawetz",
        "grid": {"d": 2, "n": 64, "L": 16.0},
        "evolution": {"mu": -1, "dt": 1e-3, "t_end": 0.002, "stride": 1},
        "initial": {"kind": "boosted-soliton", "xi0": [0.19634954084936207, 0.0]},
        "weights": {"M": 4, "R": 2},
        "output": {"dir": str(tmp_path / "out")},
    }
    p = _write_config(tmp_path, cfg)
    code = ("import sys; from mcnls.cli import run_scenario; "
            f"code = run_scenario({str(p)!r}); "
            "print(code, sorted(m for m in ('scipy.interpolate', 'scipy.special', "
            "'scipy.linalg') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def _morawetz_config(outdir):
    return {
        "scenario": "morawetz",
        "grid": {"d": 1, "n": 256, "L": 16.0},
        "evolution": {"mu": 1, "dt": 1e-3, "t_end": 0.022, "stride": 5},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.5,
                    "k0": [0.589048622548086]},
        "weights": {"M": 8, "R": 4},
        "output": {"dir": str(outdir)},
    }


_DELETE = object()


@pytest.mark.parametrize("scenario", ["simulate", "morawetz"])
@pytest.mark.parametrize("section, key, value, code", [
    ("evolution", "mu", _DELETE, 2),
    ("evolution", "dt", _DELETE, 2),
    ("evolution", "t_end", _DELETE, 2),
    ("evolution", "mu", 0, 2),
    ("evolution", "dt", 0, 2),
    ("evolution", "mu", 1.5, 2),
    ("evolution", "stride", 2.5, 2),
    ("grid", "d", 1.5, 2),
    ("grid", "n", 256.7, 2),
    ("grid", "n", 256.0, 0),
    ("evolution", "stride", 5.0, 0),
    ("evolution", "t_end", 0.0515, 2),
    ("grid", "n", 2 ** 40, 2),
    # L whose h, dk, L^2 or kmax^2 is not finite and positive
    ("grid", "L", 1e308, 2),
    ("grid", "L", 1e-160, 2),
    ("grid", "L", 1e300, 2),
    ("grid", "L", 5e-324, 2),
    ("initial", "tol", 1e-10, 2),
    # data of zero mass (|u|^2 underflows at 1e-200): simulate divided by mass(0)
    ("initial", "amplitude", 0.0, 0),
    ("initial", "amplitude", 1e-200, 0),
], ids=lambda v: "missing" if v is _DELETE else None)
def test_evolution_and_grid_config_values(tmp_path, scenario, section, key, value, code):
    out = tmp_path / "out"
    cfg = _sim_config(out) if scenario == "simulate" else _morawetz_config(out)
    if value is _DELETE:
        del cfg[section][key]
    else:
        cfg[section][key] = value
    assert run_scenario(_write_config(tmp_path, cfg)) == code
    manifest = json.loads((out / "manifest.json").read_text())
    if code == 2:
        assert manifest["failure"].startswith("config error:")
        assert key in manifest["failure"]
    else:
        assert manifest["failure"] is None


def _envelope_config(outdir):
    return {"scenario": "smooth-envelope",
            "envelope": {"m": 3, "input": "bundled:sawtooth"},
            "output": {"dir": str(outdir)}}


_GRID_2D = {"d": 2, "n": 64, "L": 8.0}


def _on_snapshot(base):
    """base with its initial data read from a snapshot on a 512-point grid, not on base's 256."""
    def cfg(outdir):
        g = make_grid(1, 512, 16.0)
        path = outdir.parent / "initial.mcnls"
        write_snapshot(Field(g, np.exp(-g.axis_x ** 2)), path)
        return dict(base(outdir), initial={"kind": "snapshot", "path": str(path)})
    return cfg


@pytest.mark.parametrize("base, section, changes", [
    (_sim_config, "initial", {"amplitude": "x"}),
    (_sim_config, "initial", {"width": [1.0]}),
    (_sim_config, "initial", {"k0": [0.1, 0.2]}),
    (_sim_config, "initial", {"kind": "boosted-soliton", "xi0": [0.0, 0.0]}),
    (_sim_config, "initial", {"kind": "boosted-soliton", "xi0": [0.1]}),
    (_morawetz_config, "initial", {"center": [0.0, 1.0]}),
    (_envelope_config, "envelope", {"m": 2.7}),
    (_envelope_config, "envelope", {"m": -1}),
    (_morawetz_config, "grid", {"d": _DELETE}),
    (_morawetz_config, "grid", {"d": 1.5}),
    (_sim_config, "initial", {"center": [15.5]}),
    (_sim_config, "evolution", {"dealias": "no"}),
    (_morawetz_config, "evolution", {"dealias": 0}),
    (_sim_config, "output", {"emit_snapshots": "no"}),
    (_envelope_config, "envelope", {"m": "x"}),
    (_morawetz_config, "initial", {"center": [15.5]}),
    (_on_snapshot(_sim_config), "initial", {}),
    (_on_snapshot(_morawetz_config), "initial", {}),
    (_sim_config, "grid", {"d": 2, "n": 2048}),
], ids=["amplitude-string", "width-list", "k0-length", "xi0-length", "xi0-off-lattice",
        "center-length", "m-fractional", "m-negative", "grid-d-missing", "grid-d-fractional",
        "center-at-boundary", "dealias-string", "dealias-integer", "emit-snapshots-string",
        "m-string", "morawetz-center-at-boundary", "snapshot-grid-mismatch",
        "morawetz-snapshot-grid-mismatch", "grid-2d-too-many-points"])
def test_initial_envelope_and_weight_check_config_values(tmp_path, base, section, changes):
    out = tmp_path / "out"
    cfg = base(out)
    for key, value in changes.items():
        if value is _DELETE:
            del cfg[section][key]
        else:
            cfg[section][key] = value
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"].startswith("config error:")


@pytest.mark.parametrize("base", [_sim_config, _morawetz_config], ids=["simulate", "morawetz"])
def test_a_trajectory_run_checks_its_initial_boundary_mass_once(tmp_path, monkeypatch, base):
    import mcnls.cli
    import mcnls.evolution

    calls, measure = [], mcnls.evolution.boundary_mass_fraction

    def counted(f):
        calls.append(f)
        return measure(f)

    for module in (mcnls.cli, mcnls.evolution):
        monkeypatch.setattr(module, "boundary_mass_fraction", counted)
    assert run_scenario(_write_config(tmp_path, base(tmp_path / "out"))) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("base, d", [(_sim_config, 1), (_morawetz_config, 1),
                                     (_sim_config, 2), (_morawetz_config, 2)],
                         ids=["simulate", "morawetz", "simulate-2d", "morawetz-2d"])
def test_initial_data_whose_mass_overflows_is_a_config_error(tmp_path, monkeypatch, base, d):
    # |u|^2 is inf at the centre and finite in the annulus, so the boundary
    # fraction read 0; simulate then failed mass_drift with a NaN value
    import mcnls.morawetz

    builds = _counting(monkeypatch, mcnls.morawetz, "build_weights")
    out = tmp_path / "out"
    cfg = base(out)
    if d == 2:
        cfg["grid"] = dict(_GRID_2D)
        cfg["initial"].pop("k0", None)
    cfg["initial"]["amplitude"] = 1e160
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == "config error: initial data's mass is not finite"
    assert builds == [] and _only_manifest_written(out)


def test_morawetz_data_at_the_boundary_build_no_weights_and_no_ground_state(tmp_path,
                                                                           monkeypatch):
    import mcnls.ground_state
    import mcnls.morawetz

    def never(*args, **kwargs):
        raise AssertionError("built for data the run rejects")

    monkeypatch.setattr(mcnls.morawetz, "build_weights", never)
    monkeypatch.setattr(mcnls.ground_state, "solve_petviashvili", never)
    out = tmp_path / "out"
    cfg = _morawetz_config(out)
    cfg["initial"]["center"] = [15.5]
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] == ("config error: initial data places too much mass "
                                   "at the box boundary")


@pytest.mark.parametrize("path", ["afile", "afile/sub", "a\x00b", ""],
                         ids=["file", "under-file", "nul", "empty"])
def test_an_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, monkeypatch, path):
    # README: a bad config exits 2 and still writes its manifest, to mcnls-out if need be
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    cfg = _sim_config(path)
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((tmp_path / "mcnls-out" / "manifest.json").read_text())["failure"]
    assert failure.startswith(f"config error: output.dir {path!r} cannot be created")
    # "" was read as the working directory, and the run wrote its tables there
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json", "mcnls-out"]


def test_2d_initial_center_needs_two_entries(tmp_path):
    out = tmp_path / "out"
    cfg = _sim_config(out, grid=dict(_GRID_2D))
    cfg["initial"]["center"] = [0.0]
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"].startswith("config error:")
    assert "center" in manifest["failure"]
    cfg["initial"]["center"] = [0.5, -0.5]
    assert run_scenario(_write_config(tmp_path, cfg)) == 0


def test_morawetz_csv_matches_step_strang_reference(tmp_path):
    from mcnls import Field, build_weights, interaction_flux, make_grid, step_strang

    out = tmp_path / "out"
    cfg = _morawetz_config(out)
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    lines = (out / "morawetz.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in line.split(",")] for line in lines])

    g = make_grid(1, 256, 16.0)
    x = g.axis_x
    u = Field(g, np.exp(-x ** 2 / (2.0 * 1.5 ** 2)) * np.exp(1j * 0.589048622548086 * x))
    w = build_weights(1, 8.0, 4.0)
    dt, nsteps, stride = 1e-3, 22, 5
    ref = []
    for step in range(nsteps + 1):
        if step % stride == 0 or step == nsteps:
            rep = interaction_flux(u, 1.0, 0.0, 1, w)
            ref.append([step * dt, rep.action, rep.flux, rep.coercive, rep.tail,
                        rep.curvature, rep.envelope_drift])
        u = step_strang(u, dt, 1, dealias=True)
    ref = np.array(ref)
    assert got.shape == ref.shape == (6, 7)
    scale = np.maximum(np.max(np.abs(ref), axis=0), 1e-300)
    assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-12 * scale)


def test_morawetz_shares_simulate_blowup_abort(tmp_path):
    # focusing 1D Gaussian above the ground-state mass: simulate aborts at
    # t = 0.495, and the morawetz scenario must stop at the same sample
    base = {
        "grid": {"d": 1, "n": 1024, "L": 16.0},
        "evolution": {"mu": -1, "dt": 1e-4, "t_end": 0.5, "stride": 50, "dealias": False},
        "initial": {"kind": "gaussian", "amplitude": 1.3, "width": 1.5},
    }
    last_t = {}
    for scenario, csv in (("simulate", "diagnostics.csv"), ("morawetz", "morawetz.csv")):
        out = tmp_path / scenario
        cfg = dict(base, scenario=scenario, output={"dir": str(out)})
        if scenario == "morawetz":
            cfg["weights"] = {"M": 8, "R": 4}
        assert run_scenario(_write_config(tmp_path, cfg, f"{scenario}.json")) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outcome"] == "blowup-suspected"
        assert manifest["detail"]["boundary_breach"] is False
        last_t[scenario] = float((out / csv).read_text().splitlines()[-1].split(",")[0])
        # t_final is the time reached, the last row's t, short of t_end
        assert manifest["detail"]["t_final"] == last_t[scenario]
    assert last_t["morawetz"] == last_t["simulate"] < 0.5
    assert manifest["detail"]["energy_drift"] is None  # the run did not complete


@pytest.mark.parametrize("grid, initial", [
    ({"d": 1, "n": 256, "L": 16.0},
     {"kind": "gaussian", "amplitude": 1.0, "width": 1.5, "k0": [0.589048622548086]}),
    (dict(_GRID_2D), {"kind": "gaussian", "amplitude": 0.5, "width": 0.8, "k0": [2.0, -1.5]}),
], ids=["1d", "2d-dealiased"])
def test_morawetz_records_the_trajectory_simulate_records(tmp_path, grid, initial):
    # one loop records both runs (dealiased: evolution.dealias defaults to
    # true): the same diagnostics.csv, and morawetz reports the drifts that
    # simulate gates
    manifests = {}
    for scenario in ("simulate", "morawetz"):
        cfg = dict(_morawetz_config(tmp_path / scenario), scenario=scenario, grid=grid,
                   initial=initial)
        if scenario == "simulate":
            del cfg["weights"]
        assert run_scenario(_write_config(tmp_path, cfg, f"{scenario}.json")) == 0
        manifests[scenario] = json.loads((tmp_path / scenario / "manifest.json").read_text())
    assert (tmp_path / "morawetz" / "diagnostics.csv").read_bytes() == \
        (tmp_path / "simulate" / "diagnostics.csv").read_bytes()
    sim, mor = manifests["simulate"], manifests["morawetz"]
    for name in ("mass_drift", "energy_drift"):
        assert mor["detail"][name] == sim["checks"][name]["value"]
        assert name not in sim["detail"] and name not in mor["checks"]
    for name in ("samples", "t_final", "dealias_loss"):
        assert mor["detail"][name] == sim["detail"][name] is not None
    assert sim["detail"]["t_final"] == pytest.approx(cfg["evolution"]["t_end"], rel=1e-12)


def test_dealias_loss_is_the_initial_spectral_mass_outside_the_box(tmp_path):
    from mcnls.grid import _mass_fraction, dealias_mask
    from mcnls.observables import _spectrum

    out = tmp_path / "out"
    cfg = _sim_config(out, grid=dict(_GRID_2D))
    cfg["initial"].update(width=0.8, k0=[2.0, -1.5])
    cfg["output"]["emit_snapshots"] = True
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    f0 = read_snapshot(out / "initial.mcnls")
    loss = _mass_fraction(np.abs(_spectrum(f0)) ** 2, dealias_mask(f0.grid) == 0)
    assert json.loads((out / "manifest.json").read_text())["detail"]["dealias_loss"] == loss > 1e-14
    cfg["evolution"]["dealias"] = False
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    assert json.loads((out / "manifest.json").read_text())["detail"]["dealias_loss"] is None


def _grid_scenario_config(scenario):
    return lambda outdir: {"scenario": scenario, "grid": {"d": 1, "n": 64, "L": 20.0},
                           "output": {"dir": str(outdir)}}


def _with(base, **sections):
    """base with whole sections replaced."""
    return lambda outdir: dict(base(outdir), **sections)


@pytest.mark.parametrize("base, section, changes, named", [
    (_sim_config, "evolution", {"dt": "1e-3"}, "evolution.dt"),
    (_sim_config, "initial", {"amplitude": True}, "initial.amplitude"),
    (_sim_config, "grid", {"L": True}, "grid.L"),
    (_sim_config, "initial", {"seed": 5}, "initial.seed"),
    (_with(_envelope_config, envelope=[1]), "envelope", {}, "envelope"),
    (_envelope_config, "envelope", {"input": 3}, "envelope.input"),
    (_with(_morawetz_config, envelope={"m": "x"}), "envelope", {}, "envelope.m"),
    (_sim_config, "grid", {"n": 2 ** 40}, "points"),
    (_sim_config, "grid", {"d": 2, "n": 2048}, "points"),
    (_on_snapshot(_sim_config), "initial", {}, "initial.path"),
    (_on_snapshot(_morawetz_config), "initial", {}, "initial.path"),
    (_grid_scenario_config("ground-state"), "grid", {"L": 1e-20}, "grid.L = 1e-20"),
    # the solver's iterate collapses to zero before Q exists
    (_grid_scenario_config("ground-state"), "grid", {"L": 1e-150}, "grid.L = 1e-150"),
    (_grid_scenario_config("ground-state"), "grid", {"d": 2, "n": 32, "L": 1e-20}, "grid.L = 1e-20"),
    # 2D soliton data come from the same solver under the same box rule
    (_with(_sim_config, initial={"kind": "soliton"}), "grid",
     {"d": 2, "n": 32, "L": 1e-20}, "grid.L = 1e-20"),
    (_with(_sim_config, initial={"kind": "boosted-soliton", "xi0": [0.0, 0.0]}), "grid",
     {"d": 2, "n": 32, "L": 1e-20}, "grid.L = 1e-20"),
    (_with(_morawetz_config, initial={"kind": "soliton"}), "grid",
     {"d": 2, "n": 32, "L": 1e-20}, "grid.L = 1e-20"),
    (_with(_morawetz_config, initial={"kind": "boosted-soliton", "xi0": [0.0, 0.0]}), "grid",
     {"d": 2, "n": 32, "L": 1e-20}, "grid.L = 1e-20"),
    # t_end / dt overflows, and round(inf) steps ended the run with OverflowError
    (_sim_config, "evolution", {"dt": 5e-324, "t_end": 1.0}, "t_end / dt = 1.0 / 5e-324"),
    (_sim_config, "evolution", {"t_end": 1e306}, "t_end / dt = 1e+306 / 0.001"),
    (_morawetz_config, "evolution", {"t_end": 1e306}, "t_end / dt = 1e+306 / 0.001"),
], ids=["dt-string", "amplitude-true", "L-true", "seed", "envelope-list", "input-number",
        "morawetz-m-string", "n-2**40", "2d-n-2048", "snapshot-grid",
        "morawetz-snapshot-grid", "ground-state-box-too-small", "ground-state-collapse",
        "ground-state-2d-collapse", "simulate-soliton-2d-collapse",
        "simulate-boosted-soliton-2d-collapse", "morawetz-soliton-2d-collapse",
        "morawetz-boosted-soliton-2d-collapse", "steps-dt-tiny", "steps-t_end-huge",
        "morawetz-steps-t_end-huge"])
def test_bad_config_names_its_key(tmp_path, base, section, changes, named):
    out = tmp_path / "out"
    cfg = base(out)
    for key, value in changes.items():
        cfg[section][key] = value
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:")
    assert named in failure


def test_bad_output_dir_writes_manifest_to_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _sim_config(tmp_path)
    cfg["output"]["dir"] = 5
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((tmp_path / "mcnls-out" / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error: output.dir")


def test_snapshot_on_another_grid_is_rejected_before_its_payload_is_read(tmp_path):
    # a 1024^2 snapshot holds 16 MiB of payload; the parent read and copied it
    # (traced peak 32 MiB) before comparing grids
    import struct
    import tracemalloc

    path = tmp_path / "big.mcnls"
    with open(path, "wb") as fh:
        fh.write(b"MCNLS1" + struct.pack("<BBId", 1, 2, 1024, 16.0))
        fh.truncate(fh.tell() + 16 * 1024 ** 2)  # zeros, without writing them
    out = tmp_path / "out"
    cfg = _sim_config(out, grid={"d": 2, "n": 64, "L": 16.0},
                      initial={"kind": "snapshot", "path": str(path)})
    config = _write_config(tmp_path, cfg)
    assert run_scenario(config) == 2
    tracemalloc.start()
    try:
        code = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2 ** 20
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == (f"config error: initial.path holds a snapshot on {make_grid(2, 1024, 16.0)}, "
                       f"not on the config grid {make_grid(2, 64, 16.0)}")


def test_snapshot_on_the_config_grid_runs(tmp_path):
    out = tmp_path / "out"
    g = make_grid(1, 256, 16.0)
    path = tmp_path / "initial.mcnls"
    write_snapshot(Field(g, 0.5 * np.exp(-g.axis_x ** 2 / 2.0)), path)
    cfg = _sim_config(out, initial={"kind": "snapshot", "path": str(path)})
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    gaussian = _sim_config(tmp_path / "gaussian")
    assert run_scenario(_write_config(tmp_path, gaussian, "gaussian.json")) == 0
    assert (out / "diagnostics.csv").read_bytes() == \
        (tmp_path / "gaussian" / "diagnostics.csv").read_bytes()


_SMALL_CONFIGS = [_sim_config, _morawetz_config, _envelope_config,
                  _grid_scenario_config("ground-state")]
_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
_TEXT, _BOOL, _NULL = st.text(max_size=4), st.booleans(), st.none()
_OBJECT = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
_NUMBER = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_ANY_LIST = st.lists(st.one_of(_NUMBER, _TEXT, _BOOL, _NULL), max_size=3)
_NON_NUMBER_LIST = st.lists(st.one_of(_TEXT, _BOOL, _NULL), min_size=1, max_size=3)
_FRACTIONAL = st.floats(-1e9, 1e9).filter(lambda x: not x.is_integer())
# JSON values of the wrong kind for a key of each kind
_WRONG = {
    int: st.one_of(_TEXT, _BOOL, _NULL, _OBJECT, _ANY_LIST, _FRACTIONAL),
    float: st.one_of(_TEXT, _BOOL, _NULL, _OBJECT, _ANY_LIST),
    bool: st.one_of(_TEXT, _NULL, _OBJECT, _ANY_LIST, _NUMBER),
    str: st.one_of(_BOOL, _NULL, _OBJECT, _ANY_LIST, _NUMBER),
    list: st.one_of(_TEXT, _BOOL, _NULL, _OBJECT, _NON_NUMBER_LIST),
}


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_wrong_kind_for_any_schema_key_is_config_error(data):
    base = data.draw(st.sampled_from(_SMALL_CONFIGS))
    section, key = data.draw(st.sampled_from(_KEYS))
    spec = _SCHEMA[section][key]
    value = data.draw(_WRONG[spec if isinstance(spec, type) else type(spec)])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a config without a usable output.dir writes ./mcnls-out
        try:
            cfg = base(Path(tmp) / "out")
            cfg.setdefault(section, {})[key] = value
            code = run_scenario(_write_config(Path(tmp), cfg))
        finally:
            os.chdir(cwd)
        outdir = "mcnls-out" if (section, key) == ("output", "dir") else "out"
        failure = json.loads((Path(tmp) / outdir / "manifest.json").read_text())["failure"]
    assert code == 2
    assert failure.startswith(f"config error: {section}.{key} must be")


def test_every_small_config_runs_without_scipy(tmp_path):
    paths = []
    for i, base in enumerate(_SMALL_CONFIGS):
        paths.append(str(_write_config(tmp_path, base(tmp_path / f"out{i}"), f"cfg{i}.json")))
    code = ("import json, sys; from mcnls.cli import run_scenario; "
            f"codes = [run_scenario(p) for p in {paths!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    # every runner ran to its checks (the n = 64 ground state fails its own, exit 1)
    assert len(codes) == len(SCENARIOS) and 2 not in codes
    assert loaded == []


# modules a run can do without, and those of them each scenario loads
_OPTIONAL_MODULES = ("mcnls.morawetz", "mcnls.envelope", "mcnls.projections", "numpy.polynomial",
                     "mcnls.ground_state", "mcnls.symmetries", "mcnls.piecewise")
_SCENARIO_LOADS = {"simulate": [], "morawetz": ["mcnls.morawetz", "mcnls.piecewise"],
                   "smooth-envelope": ["mcnls.envelope"],
                   "ground-state": ["mcnls.ground_state", "mcnls.piecewise"]}


@pytest.mark.parametrize("base", _SMALL_CONFIGS,
                         ids=[c(Path("o"))["scenario"] for c in _SMALL_CONFIGS])
def test_each_scenario_loads_only_its_own_modules(tmp_path, base):
    # a fresh interpreter per scenario: simulate builds no Morawetz weight and
    # smooths no envelope, and no scenario imports numpy.polynomial
    cfg = base(tmp_path / "out")
    p = _write_config(tmp_path, cfg)
    code = ("import json, sys; from mcnls.cli import run_scenario; "
            f"code = run_scenario({str(p)!r}); "
            f"print(json.dumps([code, [m for m in {_OPTIONAL_MODULES!r} if m in sys.modules]]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code != 2
    assert loaded == _SCENARIO_LOADS[cfg["scenario"]]


def test_2d_morawetz_family_checks_run_without_scipy(tmp_path):
    p = _write_config(tmp_path, _family_config(tmp_path / "out", 2, 4.0))
    code = ("import json, sys; from mcnls.cli import run_scenario; "
            f"code = run_scenario({str(p)!r}); "
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
    checks = json.loads((tmp_path / "out" / "manifest.json").read_text())["checks"]
    assert checks["family_phi_monotone"]["passed"]


@pytest.mark.parametrize("content", [b'{"scenario": "simulate",', b'{"scenario": "\xff"}'],
                         ids=["truncated", "not-utf8"])
def test_config_that_is_not_json_is_config_error(tmp_path, monkeypatch, content):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "cfg.json"
    p.write_bytes(content)
    assert run_scenario(p) == 2
    failure = json.loads((tmp_path / "mcnls-out" / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:")


@pytest.mark.parametrize("rows", ["0,0\n1,x\n", "0,0\n1,1\n"], ids=["N-not-integer", "N-positive"])
def test_corrupt_envelope_csv_is_config_error(tmp_path, rows):
    out = tmp_path / "out"
    csv = tmp_path / "envelope.csv"
    csv.write_text("# J0=2.0\nt,N\n" + rows)
    cfg = _envelope_config(out)
    cfg["envelope"] = {"input": str(csv)}
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    assert json.loads((out / "manifest.json").read_text())["failure"].startswith("config error:")
    cfg["envelope"] = {"input": str(tmp_path / "absent.csv")}
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    assert json.loads((out / "manifest.json").read_text())["failure"].startswith("missing file:")


def _sawtooth_rows():
    """The breakpoint rows of `bundled:sawtooth` as its CSV holds them."""
    from mcnls.envelope import sawtooth_envelope, write_envelope_csv

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sawtooth.csv"
        write_envelope_csv(sawtooth_envelope(200), path)
        return path.read_text().splitlines()[2:]


_NAN_ROWS = "\n".join(["0,0", "nan,-1", *_sawtooth_rows()[2:]]) + "\n"


@pytest.mark.parametrize("text, rule", [
    ("# J0=2.0\nt,N\n" + _NAN_ROWS, "breakpoint times must be finite"),
    ("# J0=2.0\nt,N\n0,0\n1,-1\ninf,0\n", "breakpoint times must be finite"),
    ("# J0=inf\nt,N\n0,0\n1,-1\n2,0\n", "lattice ratio J0 must be finite"),
], ids=["time-nan", "time-inf", "J0-inf"])
def test_non_finite_envelope_csv_is_config_error(tmp_path, text, rule):
    # these envelopes used to pass validation: smooth-envelope exited 1 on the
    # NaN row and 0 on J0 = inf
    out = tmp_path / "out"
    csv = tmp_path / "envelope.csv"
    csv.write_text(text)
    cfg = _envelope_config(out)
    cfg["envelope"] = {"input": str(csv)}
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    assert json.loads((out / "manifest.json").read_text())["failure"] == f"config error: {rule}"


_NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e999"]


@st.composite
def _mutated_sawtooth(draw):
    """The bundled sawtooth CSV with a few cells, or J0, made non-finite or
    non-integer; returns the text and whether a time or J0 is non-finite."""
    rows = [row.split(",") for row in _sawtooth_rows()[:draw(st.integers(1, 12))]]
    j0 = "2.0"
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from(_NON_FINITE + ["0.5", "1.5", "-1.0", "2.5", "1e-3"]))
        cell = draw(st.integers(-1, 2 * len(rows) - 1))
        if cell < 0:
            j0 = value
        else:
            rows[cell // 2][cell % 2] = value
    non_finite = any(v in _NON_FINITE for v in [j0] + [t for t, _ in rows])
    return f"# J0={j0}\nt,N\n" + "".join(f"{t},{n}\n" for t, n in rows), non_finite


@settings(max_examples=100, deadline=None, database=None)
@given(drawn=_mutated_sawtooth())
def test_any_mutated_envelope_csv_parses_or_is_config_error(drawn):
    from mcnls.envelope import parse_envelope_csv

    text, non_finite = drawn
    try:
        e = parse_envelope_csv(text)
    except ValueError:
        e = None
    if e is not None:
        assert np.all(np.isfinite(e.times)) and np.all(np.diff(e.times) > 0)
        assert 1 < e.j0 < np.inf and all(type(v) is int for v in e.exponents)
    assert e is None or not non_finite
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "envelope.csv").write_text(text)
        cfg = dict(_envelope_config(tmp / "out"),
                   envelope={"m": 2, "input": str(tmp / "envelope.csv")})
        code = run_scenario(_write_config(tmp, cfg))
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
    assert code in ((2,) if e is None else (0, 1))
    assert (manifest["failure"] is None) == (code == 0)


def _readme():
    return (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_lists_every_config_key():
    readme = _readme()
    assert [f"{s}.{k}" for s, k in _KEYS if f"`{s}.{k}`" not in readme] == []
    # each row's "read by" column names the scenarios that read the key
    read_by = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and re.fullmatch(r"`\w+\.\w+`", cells[0]):
            read_by[cells[0].strip("`")] = cells[3]
    assert sorted(read_by) == sorted(f"{s}.{k}" for s, k in _KEYS)
    for key, cell in read_by.items():
        named = set(SCENARIOS) if cell == "all" else set(re.findall(r"`([a-z-]+)`", cell))
        assert named == {s for s in SCENARIOS if key in _reads(s)}, key


def test_readme_scenarios_line_is_the_cli_scenarios():
    line = " ".join(_readme().split("\nScenarios: ", 1)[1].split("\n\n", 1)[0].split())
    assert re.fullmatch(r"(`[a-z-]+`, )*`[a-z-]+`\.", line), line
    assert tuple(re.findall(r"`([a-z-]+)`", line)) == SCENARIOS


def test_readme_example_config_parses():
    example = _readme().split("```json\n", 1)[1].split("```", 1)[0]
    cfg = _parse(json.loads(example))
    assert cfg["scenario"] == "simulate" and cfg["output"]["emit_snapshots"] is True


@pytest.mark.parametrize("input_key", ["config", "envelope.input", "initial.path"])
def test_input_path_that_is_a_directory_is_config_error(tmp_path, monkeypatch, input_key):
    monkeypatch.chdir(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    cfg = {"envelope.input": dict(_envelope_config(tmp_path / "mcnls-out"),
                                  envelope={"input": str(folder)}),
           "initial.path": _sim_config(tmp_path / "mcnls-out",
                                       initial={"kind": "snapshot", "path": str(folder)})}
    path = folder if input_key == "config" else _write_config(tmp_path, cfg[input_key])
    assert run_scenario(path) == 2
    failure = json.loads((tmp_path / "mcnls-out" / "manifest.json").read_text())["failure"]
    assert failure.startswith(f"config error: {input_key} ")


@pytest.mark.parametrize("scenario, sections", [
    ("simulate", {"weights": {"M": 8, "R": 4}, "envelope": {"input": "nope.csv"}}),
    ("morawetz", {"envelope": {"input": "bundled:sawtooth", "m": 3}}),
])
def test_section_the_scenario_does_not_read_is_a_config_error(tmp_path, scenario, sections):
    # both ran to exit 0, the morawetz one silently at Ntilde = 1
    out = tmp_path / "out"
    cfg = _sim_config(out) if scenario == "simulate" else _morawetz_config(out)
    cfg.update(sections)
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:")
    assert scenario in failure and any(repr(name) in failure for name in sections)
    assert not (out / ("diagnostics.csv" if scenario == "simulate" else "morawetz.csv")).exists()


def test_every_schema_key_is_read_by_some_scenario_or_kind():
    assert SCENARIOS == ("simulate", "ground-state", "morawetz", "smooth-envelope")
    assert set().union(*map(_reads, SCENARIOS)) == {f"{s}.{k}" for s, k in _KEYS}


# per initial.kind, an initial section that sets every key the kind reads
_INITIALS = {"gaussian": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0,
                          "center": [0.5], "k0": [0.3]},
             "soliton": {"kind": "soliton"},
             "boosted-soliton": {"kind": "boosted-soliton", "xi0": [np.pi / 16]},
             "pseudoconformal": {"kind": "pseudoconformal", "t0": -1.0},
             "snapshot": {"kind": "snapshot", "path": "initial.mcnls"}}


def _full_config(scenario, kind, outdir):
    """A small config of scenario (with initial.kind kind) that sets every key it reads;
    a snapshot is read from initial.mcnls next to outdir."""
    grid = {"d": 1, "n": 256, "L": 16.0}
    evolution = {"mu": -1, "dt": 1e-3, "t_end": 0.002, "stride": 1, "dealias": True}
    initial = dict(_INITIALS[kind], path=str(outdir.parent / "initial.mcnls")) \
        if kind == "snapshot" else _INITIALS.get(kind)
    cfg = {"simulate": {"grid": grid, "evolution": evolution, "initial": initial,
                        "output": {"emit_snapshots": False}},
           "morawetz": {"grid": grid, "evolution": evolution, "initial": initial,
                        "weights": {"M": 8, "R": 4}},
           "ground-state": {"grid": {"d": 1, "n": 256, "L": 20.0}},
           "smooth-envelope": {"envelope": {"m": 3, "input": "bundled:sawtooth"}}}[scenario]
    cfg = json.loads(json.dumps(dict(cfg, scenario=scenario)))
    cfg.setdefault("output", {})["dir"] = str(outdir)
    return cfg


_CONTRACT = [(s, kind) for s in SCENARIOS
             for kind in (_INITIAL_KINDS if "initial.kind" in _reads(s) else [None])]
_CONTRACT_IDS = [f"{s}-{kind}" if kind else s for s, kind in _CONTRACT]
# a value of the right kind for each kind of key; an initial.kind must be known
_SAMPLE = {int: 1, float: 1.0, bool: True, str: "soliton", list: [0.0]}


def _only_manifest_written(outdir):
    return sorted(p.name for p in outdir.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("scenario, kind", _CONTRACT, ids=_CONTRACT_IDS)
def test_contract_configs_set_exactly_what_their_scenario_reads(tmp_path, scenario, kind):
    cfg = _full_config(scenario, kind, tmp_path / "out")
    given = {f"{name}.{k}" for name, sec in cfg.items() if name != "scenario" for k in sec}
    assert given == set(_reads(scenario, kind))
    parsed = _parse(cfg)
    assert {f"{name}.{k}" for name, sec in parsed.items() if name != "scenario"
            for k in sec} == given


class _Recording(dict):
    """A config section that records the keys read from it."""

    def __iter__(self):  # not dict's own, so ** unpacking reads through __getitem__
        return super().__iter__()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("scenario, kind", _CONTRACT, ids=_CONTRACT_IDS)
def test_each_runner_reads_every_key_its_table_entry_names(tmp_path, monkeypatch, scenario, kind):
    from mcnls import cli

    parse, sections = cli._parse, {}

    def recording_parse(raw):
        cfg = parse(raw)
        for name in cfg.keys() - {"scenario"}:
            cfg[name] = sections[name] = _Recording(cfg[name])
            cfg[name].read = set()
        return cfg

    monkeypatch.setattr(cli, "_parse", recording_parse)
    if kind == "snapshot":
        g = make_grid(1, 256, 16.0)
        write_snapshot(Field(g, 0.5 * np.exp(-g.axis_x ** 2 / 2.0)), tmp_path / "initial.mcnls")
    out = tmp_path / "out"
    assert run_scenario(_write_config(tmp_path, _full_config(scenario, kind, out))) == 0
    read = {f"{name}.{k}" for name, sec in sections.items() for k in sec.read}
    # output.dir is read from the raw config, before parsing
    assert read | {"output.dir"} == set(_reads(scenario, kind))


def _key_ids(cases):
    return [f"{s}-{kind}-{sec}.{k}" if kind else f"{s}-{sec}.{k}" for s, kind, sec, k in cases]


_UNREAD = [(s, kind, section, key) for s, kind in _CONTRACT for section, key in _KEYS
           if f"{section}.{key}" not in _reads(s, kind)]


@pytest.mark.parametrize("scenario, kind, section, key", _UNREAD, ids=_key_ids(_UNREAD))
def test_a_key_the_scenario_does_not_read_is_a_config_error(tmp_path, scenario, kind,
                                                              section, key):
    out = tmp_path / "out"
    cfg = _full_config(scenario, kind, out)
    spec = _SCHEMA[section][key]
    cfg.setdefault(section, {})[key] = _SAMPLE[spec] if isinstance(spec, type) else spec
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:") and f"the {scenario} scenario" in failure
    if any(k.startswith(section + ".") for k in _reads(scenario, kind)):
        assert f"does not read {section}.{key}" in failure
    else:
        assert f"does not read a {section!r} section" in failure
    assert _only_manifest_written(out)


_REQUIRED = [(s, kind, section, key) for s, kind in _CONTRACT
             for section, key in (k.split(".") for k, optional in _reads(s, kind).items()
                                  if not optional)
             if isinstance(_SCHEMA[section][key], type)]


@pytest.mark.parametrize("scenario, kind, section, key", _REQUIRED, ids=_key_ids(_REQUIRED))
def test_a_missing_required_key_is_a_config_error(tmp_path, scenario, kind, section, key):
    out = tmp_path / "out"
    cfg = _full_config(scenario, kind, out)
    del cfg[section][key]
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == f"config error: the {scenario} scenario requires {section}.{key}"
    assert _only_manifest_written(out)


@pytest.mark.parametrize("base, unread", [
    (lambda out: _sim_config(out, initial={"kind": "soliton"}),
     {"initial": {"amplitude": 5.0, "k0": [0.3], "t0": -2.0}}),
    (_morawetz_config,
     {"initial": {"xi0": [0.3], "path": "initial.mcnls"}, "output": {"emit_snapshots": True}}),
], ids=["soliton-with-amplitude", "morawetz-gaussian-with-snapshot-keys"])
def test_keys_a_run_would_ignore_are_config_errors(tmp_path, base, unread):
    # each of these ran to exit 0 with the keys ignored: the soliton's
    # diagnostics.csv was byte-identical to that of plain {"kind": "soliton"}
    assert run_scenario(_write_config(tmp_path, base(tmp_path / "plain"), "plain.json")) == 0
    out = tmp_path / "out"
    cfg = base(out)
    for section, keys in unread.items():
        cfg.setdefault(section, {}).update(keys)
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:") and cfg["scenario"] in failure
    assert any(f"{section}.{key}" in failure for section, keys in unread.items() for key in keys)
    assert _only_manifest_written(out)


@pytest.mark.parametrize("section, failure", [
    ("output", "config section 'output' is empty"),
    ("grid", "the morawetz scenario requires grid.d"),
    ("evolution", "the morawetz scenario requires evolution.mu"),
    ("initial", "the morawetz scenario requires initial.kind"),
    ("weights", "the morawetz scenario requires weights.M"),
], ids=["output", "grid", "evolution", "initial", "weights"])
def test_an_empty_section_is_a_config_error(tmp_path, monkeypatch, section, failure):
    # every output key has a default; an empty section sets nothing and is
    # not taken for an absent one, nor does it stand in for a required key
    monkeypatch.chdir(tmp_path)
    cfg = dict(_morawetz_config(tmp_path / "mcnls-out"), **{section: {}})
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    written = json.loads((tmp_path / "mcnls-out" / "manifest.json").read_text())["failure"]
    assert written == f"config error: {failure}"


@pytest.mark.parametrize("xi0, named", [([0.0, 0.0], "initial.xi0 must have 1 entries"),
                                        ([0.1], "off the lattice")], ids=["length", "off-lattice"])
def test_boosted_soliton_xi0_is_checked(tmp_path, xi0, named):
    # the Gaussian fixture's amplitude and width are now unread on a boosted
    # soliton, so its xi0 cases stop there; here xi0 is the only fault
    out = tmp_path / "out"
    cfg = _sim_config(out, initial={"kind": "boosted-soliton", "xi0": xi0})
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:") and named in failure


def test_smooth_envelope_without_a_pass_is_a_config_error(tmp_path):
    # m = 0 exited 1: the certificate raised ValueError after the envelope was read
    out = tmp_path / "out"
    cfg = _envelope_config(out)
    cfg["envelope"]["m"] = 0
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == "config error: envelope.m must be at least 1, got 0"


def test_unknown_initial_kind_is_a_config_error(tmp_path):
    out = tmp_path / "out"
    cfg = _sim_config(out, initial={"kind": "vortex"})
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error: unknown initial kind 'vortex'")


def test_a_missing_initial_kind_is_named_before_the_kind_keys(tmp_path):
    out = tmp_path / "out"
    cfg = _sim_config(out)
    del cfg["initial"]["kind"]
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == "config error: the simulate scenario requires initial.kind"


# strings of a few letters: never a path outside the working directory
_WORD = st.text("abxyz", max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | _WORD, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORD, inner, max_size=3),
    max_leaves=6)
# per key, values a run accepts, so that some drawn configs run
_VECTOR = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2)
_PLAUSIBLE = {
    "grid.d": st.sampled_from([1, 2]), "grid.n": st.sampled_from([8, 16, 32, 64, 128]),
    "grid.L": st.sampled_from([8.0, 16.0]), "evolution.mu": st.sampled_from([-1, 1]),
    "evolution.dt": st.sampled_from([1e-3, 1e-2]),
    "evolution.t_end": st.sampled_from([0.0, 0.01, 0.05, 0.5]),
    "evolution.stride": st.integers(1, 5), "evolution.dealias": st.booleans(),
    "initial.kind": st.sampled_from(sorted(_INITIAL_KINDS)),
    "initial.amplitude": st.floats(0.0, 2.0), "initial.width": st.floats(0.5, 2.0),
    "initial.center": _VECTOR, "initial.k0": _VECTOR,
    "initial.xi0": st.lists(st.sampled_from([0.0, np.pi / 16]), min_size=1, max_size=2),
    "initial.t0": st.floats(-2.0, -0.5), "initial.path": _WORD,
    "weights.M": st.sampled_from([4, 8]), "weights.R": st.sampled_from([2, 4]),
    "envelope.m": st.integers(0, 3),
    "envelope.input": st.just("bundled:sawtooth"), "output.dir": st.just("out"),
    "output.emit_snapshots": st.booleans(),
}


@st.composite
def _configs(draw):
    """Any JSON value (one draw in ten), else a config of a drawn scenario and
    initial.kind: each key it reads is there nine times in ten, each other
    key one time in twenty, and one value or section in twenty is any JSON."""
    rare = lambda: draw(st.integers(0, 19)) == 0  # noqa: E731
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    scenario, kind = draw(st.sampled_from(SCENARIOS)), draw(_PLAUSIBLE["initial.kind"])
    reads = _reads(scenario, kind)
    raw = {"scenario": draw(_JSON) if rare() else scenario}
    for name, keys in _SCHEMA.items():
        sec = {}
        for k in keys:
            key = f"{name}.{k}"
            if draw(st.integers(0, 19)) < (18 if key in reads else 1):
                sec[k] = draw(_JSON) if rare() else kind if key == "initial.kind" else \
                    draw(_PLAUSIBLE[key])
        if rare():
            raw[name] = draw(_JSON)
        elif sec:
            raw[name] = sec
    return raw


def _runs_long(raw) -> bool:
    """raw asks for more than 64 points per axis, 100 steps or 100 smoothing passes."""
    def number(sec, key):
        v = raw.get(sec) if isinstance(raw, dict) else None
        v = v.get(key) if isinstance(v, dict) else None
        return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) \
            and abs(v) < 1e300 else None
    n, dt, t_end, m = (number("grid", "n"), number("evolution", "dt"),
                       number("evolution", "t_end"), number("envelope", "m"))
    return (n is not None and n > 64) or (m is not None and m > 100) or \
        (dt is not None and t_end is not None and dt > 0 and t_end > 100 * dt)


@settings(max_examples=100, deadline=None, database=None)
@given(raw=_configs())
def test_any_json_config_exits_0_1_or_2_and_writes_a_manifest(raw):
    assume(not _runs_long(raw))
    out = raw.get("output") if isinstance(raw, dict) else None
    out = out["dir"] if isinstance(out, dict) and isinstance(out.get("dir"), str) else "mcnls-out"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code = run_scenario(_write_config(Path(tmp), raw))
        finally:
            os.chdir(cwd)
        manifest = json.loads((Path(tmp) / out / "manifest.json").read_text())
    assert code in (0, 1, 2)
    assert (manifest["failure"] is None) == (code == 0)


# the benchmark's three workload configs (bench/workloads.py), at fixed draws
_BENCH_CONFIGS = {
    "soliton-1d": {"scenario": "simulate", "grid": {"d": 1, "n": 512, "L": 16.0},
                   "evolution": {"mu": -1, "dt": 1e-4, "t_end": 1.0, "stride": 100},
                   "initial": {"kind": "boosted-soliton", "xi0": [np.pi / 8]},
                   "output": {"emit_snapshots": True}},
    "gaussian-2d": {"scenario": "simulate", "grid": {"d": 2, "n": 256, "L": 16.0},
                    "evolution": {"mu": 1, "dt": 1e-3, "t_end": 0.5, "stride": 10},
                    "initial": {"kind": "gaussian", "amplitude": 1.1, "width": 1.2,
                                "center": [0.5, -1.0], "k0": [0.3, -0.6]},
                    "output": {"emit_snapshots": True}},
    "morawetz-2d": {"scenario": "morawetz", "grid": {"d": 2, "n": 128, "L": 16.0},
                    "evolution": {"mu": -1, "dt": 1e-3, "t_end": 0.1, "stride": 10},
                    "weights": {"M": 8, "R": 4},
                    "initial": {"kind": "boosted-soliton", "xi0": [np.pi / 16, -np.pi / 8]},
                    "output": {}},
}


@pytest.mark.parametrize("name", sorted(_BENCH_CONFIGS))
def test_bench_configs_run_and_record_peak_memory(tmp_path, name):
    out = tmp_path / "out"
    cfg = json.loads(json.dumps(_BENCH_CONFIGS[name]))
    cfg["output"]["dir"] = str(out)
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] is None
    # ru_maxrss of this process, normalized to MiB
    assert 1.0 < manifest["peak_rss_mib"] < 1e6


def test_cli_pins_blas_threads_unless_set(tmp_path):
    # threaded OpenBLAS splits the pairings' vdot, and the flux's last bits
    # moved with the thread count
    cfg = {"scenario": "morawetz", "grid": {"d": 2, "n": 128, "L": 16.0},
           "evolution": {"mu": -1, "dt": 1e-3, "t_end": 0.01, "stride": 5},
           "weights": {"M": 8, "R": 4},
           "initial": {"kind": "boosted-soliton", "xi0": [np.pi / 16, -np.pi / 8]}}
    src = str(Path(__file__).resolve().parent.parent / "src")
    csv = {}
    for pinned in (True, False):
        out = tmp_path / f"pinned-{pinned}"
        path = _write_config(tmp_path, dict(cfg, output={"dir": str(out)}), f"{pinned}.json")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if pinned:
            env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "mcnls.cli", "run", str(path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        csv[pinned] = (out / "morawetz.csv").read_bytes()
    assert csv[True] == csv[False]


def test_smooth_envelope_on_an_overflowing_envelope_slope_runs(tmp_path):
    # the second node lies 5e-324 after the first, so its slope overflows;
    # smoothing forms no slope, so the envelope smooths and certifies
    csv = tmp_path / "envelope.csv"
    csv.write_text("# J0=2.0\nt,N\n0,0\n5e-324,-1\n1,-1\n")
    cfg = dict(_envelope_config(tmp_path / "out"), envelope={"m": 1, "input": str(csv)})
    assert run_scenario(_write_config(tmp_path, cfg)) == 0


@pytest.mark.parametrize("value, threshold, expected", [
    (0.5, 1.0, True),
    (1.0, 1.0, True),
    (1.5, 1.0, False),
    (float("nan"), 1.0, False),
], ids=["below", "equal", "above", "nan"])
def test_checks_pass_when_value_is_within_threshold(value, threshold, expected):
    checks = Checks()
    checks.add("c", value, threshold)
    assert checks["c"]["passed"] is expected
    assert checks["c"]["threshold"] == threshold


def test_solver_failure_on_a_box_that_holds_q_exits_1(tmp_path, monkeypatch):
    import mcnls.ground_state
    from mcnls.ground_state import PetviashviliError

    def failing(grid):
        raise PetviashviliError("no convergence in 500 iterations", 1e-3)

    monkeypatch.setattr(mcnls.ground_state, "solve_petviashvili", failing)
    out = tmp_path / "out"
    assert run_scenario(_write_config(tmp_path, _grid_scenario_config("ground-state")(out))) == 1
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("PetviashviliError: no convergence in 500 iterations")


def _counting(monkeypatch, module, name):
    """The calls to module.name, counted in a list that the call appends to."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _soliton_2d_config(scenario, outdir):
    """A 2D boosted-soliton run of scenario: its initial data are a Petviashvili solve."""
    cfg = dict(_sim_config(outdir) if scenario == "simulate" else _morawetz_config(outdir),
               grid={"d": 2, "n": 64, "L": 16.0},
               initial={"kind": "boosted-soliton", "xi0": [0.0, 0.0]})
    return json.loads(json.dumps(cfg))


def _count_solves_and_builds(monkeypatch):
    import mcnls.ground_state
    import mcnls.morawetz

    return (_counting(monkeypatch, mcnls.ground_state, "solve_petviashvili"),
            _counting(monkeypatch, mcnls.morawetz, "build_weights"))


@pytest.mark.parametrize("scenario", ["simulate", "morawetz"])
def test_bad_end_time_exits_before_the_first_solve(tmp_path, monkeypatch, scenario):
    solves, builds = _count_solves_and_builds(monkeypatch)
    out = tmp_path / "out"
    cfg = _soliton_2d_config(scenario, out)
    cfg["evolution"]["t_end"] = 0.0015
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error: evolution.t_end 0.0015 is not a whole number")
    assert solves == [] and builds == []


@pytest.mark.parametrize("scenario", ["simulate", "morawetz"])
@pytest.mark.parametrize("key, value", [
    ("mu", 0), ("dt", 0.0), ("dt", -1e-3), ("t_end", -1.0), ("stride", 0), ("stride", 2.5),
    ("dt", _DELETE),
    # t_end / dt overflows: no step count
    ("t_end", 1e300),
], ids=lambda v: "missing" if v is _DELETE else None)
def test_bad_evolution_value_exits_before_the_first_solve(tmp_path, monkeypatch, scenario,
                                                          key, value):
    solves, builds = _count_solves_and_builds(monkeypatch)
    out = tmp_path / "out"
    cfg = _soliton_2d_config(scenario, out)
    if value is _DELETE:
        del cfg["evolution"][key]
    else:
        cfg["evolution"][key] = value
    if value == 1e300:
        cfg["evolution"]["dt"] = 1e-300
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:") and key in failure
    assert solves == [] and builds == []


_PAST_THE_CAP = [(base, M) for base in ("morawetz", "family-2d", "family-1d")
                 for M in (1e12, MAX_WEIGHTS_M + 1)]


@pytest.mark.parametrize("base, M", _PAST_THE_CAP, ids=[f"{base}-{M}" for base, M in _PAST_THE_CAP])
def test_weights_m_past_the_cap_is_config_error(tmp_path, monkeypatch, base, M):
    # a 2D run at M = 1e12 asked for a 2.27 PiB table and exited 1; a run
    # that pairs no step (t_end 0) builds the same table for its family checks
    import time

    solves, builds = _count_solves_and_builds(monkeypatch)
    out = tmp_path / "out"
    cfg = (_soliton_2d_config("morawetz", out) if base == "morawetz"
           else _family_config(out, int(base[-2]), 4.0))
    cfg["weights"]["M"] = M
    t0 = time.perf_counter()
    assert run_scenario(_write_config(tmp_path, cfg)) == 2
    assert time.perf_counter() - t0 < 1.0
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == f"config error: weights.M = {float(M)!r} is more than {MAX_WEIGHTS_M}"
    assert solves == [] and builds == []


def test_weights_m_at_the_cap_builds(tmp_path):
    out = tmp_path / "out"
    cfg = _family_config(out, 2, 4.0)
    cfg["grid"]["n"], cfg["weights"]["M"] = 8, MAX_WEIGHTS_M
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert set(checks) == {"action_kernel_bound", "family_phi_bounded", "family_phi_support",
                           "family_phi_monotone"}


def test_morawetz_at_the_weights_m_cap_runs(tmp_path, monkeypatch):
    import mcnls.morawetz

    builds = _counting(monkeypatch, mcnls.morawetz, "build_weights")
    out = tmp_path / "out"
    cfg = _morawetz_config(out)
    cfg["weights"]["M"] = MAX_WEIGHTS_M
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] is None and manifest["checks"]["action_kernel_bound"]["passed"]
    assert builds == [(1,)]


@pytest.mark.parametrize("d", [1, 2])
def test_ground_state_random_field_ratio_fails_when_a_field_beats_q(tmp_path, monkeypatch, d):
    # the check ground-state took over from gn-check: a random field whose GN
    # ratio exceeds Q's fails it, and only it
    import mcnls.ground_state

    real = mcnls.ground_state.gn_ratio

    def inflated(f, q):
        return real(f, q) if f is q.field else 1.5

    monkeypatch.setattr(mcnls.ground_state, "gn_ratio", inflated)
    out = tmp_path / "out"
    grid = {"d": 1, "n": 256, "L": 20.0} if d == 1 else {"d": 2, "n": 128, "L": 16.0}
    cfg = {"scenario": "ground-state", "grid": grid, "output": {"dir": str(out)}}
    assert run_scenario(_write_config(tmp_path, cfg)) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    failed = {name for name, check in manifest["checks"].items() if not check["passed"]}
    assert failed == {"random_field_ratio"}
    assert manifest["detail"]["worst_random_ratio"] == 1.5
    assert abs(manifest["detail"]["gn_ratio"] - 1.0) <= 1e-4


def test_boundary_warning_states_the_annulus_and_the_mass_fraction(tmp_path, monkeypatch, capsys):
    import mcnls.cli

    # a defocusing Gaussian that crosses the boundary annulus at group velocity 20
    out = tmp_path / "out"
    cfg = _sim_config(out, evolution={"mu": 1, "dt": 1e-3, "t_end": 0.5, "stride": 50},
                      initial={"kind": "gaussian", "amplitude": 0.1, "width": 1.0,
                               "center": [8.0], "k0": [10.0]})
    config = _write_config(tmp_path, cfg)
    run_scenario(config)
    assert json.loads((out / "manifest.json").read_text())["detail"]["boundary_breach"]
    assert ("mcnls: warning: outermost 5% annulus held more than 1e-8 of the mass during the run"
            in capsys.readouterr().err)
    monkeypatch.setattr(mcnls.cli, "BOUNDARY_ANNULUS", 0.025)
    monkeypatch.setattr(mcnls.cli, "BOUNDARY_MASS_WARN", 2.5e-9)
    run_scenario(config)
    assert ("mcnls: warning: outermost 2.5% annulus held more than 2.5e-9 of the mass during "
            "the run" in capsys.readouterr().err)


def test_smooth_envelope_with_a_huge_j0_exits_on_its_certificates(tmp_path):
    # J0^m = 1e400 used to end the run with OverflowError
    csv = tmp_path / "envelope.csv"
    csv.write_text("# J0=1e200\nt,N\n0,0\n1,-1\n2,0\n")
    out = tmp_path / "out"
    cfg = dict(_envelope_config(out), envelope={"m": 2, "input": str(csv)})
    code = run_scenario(_write_config(tmp_path, cfg))
    manifest = json.loads((out / "manifest.json").read_text())
    assert code in (0, 1)
    assert set(manifest["checks"]) == {"certify_bound", "pointwise_domination"}
    assert (manifest["failure"] is None) == (code == 0)


def _readme_columns(label):
    """The column list of README's "File formats" bullet `label`, `[,...]` parts kept."""
    span = _readme().split(f"* **{label}** - `", 1)[1].split("`", 1)[0]
    return "".join(span.split())


@pytest.mark.parametrize("d", [1, 2])
def test_readme_diagnostics_columns_are_the_written_header(tmp_path, d):
    columns = re.sub(r"\[,([^\]]*)\]", r",\1" if d == 2 else "", _readme_columns("Diagnostics CSV"))
    out = tmp_path / "out"
    cfg = _sim_config(out, grid=_GRID_2D if d == 2 else {"d": 1, "n": 256, "L": 16.0})
    assert run_scenario(_write_config(tmp_path, cfg)) == 0
    assert (out / "diagnostics.csv").read_text().splitlines()[0] == columns


def test_readme_morawetz_columns_are_the_written_header(tmp_path):
    out = tmp_path / "out"
    assert run_scenario(_write_config(tmp_path, _morawetz_config(out))) == 0
    header = (out / "morawetz.csv").read_text().splitlines()[0]
    assert header == _readme_columns("Morawetz CSV")


def test_action_kernel_bound_fails_an_inflated_action(tmp_path, monkeypatch):
    import mcnls.morawetz

    flux_terms = mcnls.morawetz._flux_terms

    def inflated(*args, **kwargs):
        rep, p = flux_terms(*args, **kwargs)
        return rep._replace(action=1e6 * rep.action), p

    monkeypatch.setattr(mcnls.morawetz, "_flux_terms", inflated)
    out = tmp_path / "out"
    assert run_scenario(_write_config(tmp_path, _morawetz_config(out))) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    check = manifest["checks"]["action_kernel_bound"]
    assert not check["passed"] and check["value"] > check["threshold"] == 1.0 + 1e-9
    assert manifest["failure"] == "checks failed: action_kernel_bound"


def _readme_checks():
    """{scenario: {None or d: check names}} from README's "Manifest checks" table
    (d for a row written only in that dimension), and each row's cells by name."""
    section = _readme().split("### Manifest checks", 1)[1].split("\n## ", 1)[0]
    names, rows = {}, {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        m = re.fullmatch(r"`([a-z-]+)`(?: \(d = ([12])\))?", cells[0])
        if m and len(cells) == 5:
            name = cells[1].strip("`")
            names.setdefault(m[1], {}).setdefault(m[2] and int(m[2]), set()).add(name)
            rows[name] = cells
    return names, rows


@pytest.mark.parametrize("scenario, d", [("simulate", 1), ("ground-state", 1), ("ground-state", 2),
                                         ("morawetz", 1), ("morawetz", 2), ("smooth-envelope", None)])
def test_readme_manifest_checks_are_each_scenarios_checks(tmp_path, scenario, d):
    names, rows = _readme_checks()
    grid = {"d": 1, "n": 256, "L": 20.0} if d == 1 else {"d": 2, "n": 128, "L": 16.0}
    # simulate's energy budget scales with dt, so it is read at two steps
    for dt in (1e-4, 1e-3) if scenario == "simulate" else (None,):
        out = tmp_path / f"out-{dt}"
        cfg = {"simulate": _sim_config(out), "smooth-envelope": _envelope_config(out),
               "morawetz": _morawetz_config(out) if d == 1 else _soliton_2d_config(scenario, out),
               }.get(scenario, {"scenario": scenario, "grid": grid, "output": {"dir": str(out)}})
        if dt is not None:
            cfg["evolution"]["dt"] = dt
        assert run_scenario(_write_config(tmp_path, cfg)) == 0
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert set(checks) == names[scenario][None] | names[scenario].get(d, set())
        M = cfg.get("weights", {}).get("M")
        for name, check in checks.items():
            assert (check["value"] is None) == rows[name][2].startswith("none"), name
            if rows[name][4] == "value <= threshold":
                assert check["passed"] == (check["value"] <= check["threshold"]), name
            assert check["threshold"] == _readme_threshold(rows[name][3], dt, M), name


def _readme_threshold(cell: str, dt, M) -> float:
    """A README threshold cell at step dt and weights.M: a number, `1 + x`,
    `1/M + x` or `max(a, b (dt/c)^2)`."""
    cell = cell.strip("`")
    m = re.fullmatch(r"max\((\S+), (\S+) \(dt/(\S+)\)\^2\)", cell)
    if m:
        return max(float(m[1]), float(m[2]) * (dt / float(m[3])) ** 2)
    m = re.fullmatch(r"(1|1/M) \+ (\S+)", cell)
    if m:
        return (1.0 if m[1] == "1" else 1.0 / M) + float(m[2])
    return float(cell)


def _snapshot_bytes(d, n, L):
    g = make_grid(d, n, L)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.mcnls"
        write_snapshot(Field(g, 0.5 * np.exp(-sum(x * x for x in g.x_mesh()) / 2.0)), path)
        return path.read_bytes()


_HEADER = 20  # magic (6 bytes), version, d, n (u32), L (f64)
_BAD_L = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1e155),
                   st.floats(min_value=0.0, max_value=1e-160), st.just(float("nan")))


@st.composite
def _corrupt_snapshot(draw):
    """(d, n, L, bytes): a snapshot on that grid, truncated, lengthened, or with
    its magic, version, d, n or L, or a payload sample, made invalid."""
    import struct

    d, n = draw(st.sampled_from([1, 2])), draw(st.sampled_from([8, 16, 32, 64]))
    L = 8.0
    raw = bytearray(_snapshot_bytes(d, n, L))
    part = draw(st.sampled_from(["truncate", "lengthen", "magic", "version", "d", "n", "L",
                                 "payload"]))
    if part == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif part == "lengthen":
        raw += bytes(draw(st.integers(1, 16 * n ** d)))
    elif part == "magic":
        raw[:6] = draw(st.binary(min_size=6, max_size=6).filter(lambda b: b != b"MCNLS1"))
    elif part in ("version", "d"):
        raw[6 if part == "version" else 7] = draw(st.integers(0, 255).filter(
            lambda v: v != (1 if part == "version" else d)))
    elif part == "n":
        raw[8:12] = struct.pack("<I", draw(st.integers(0, 2 ** 32 - 1).filter(lambda v: v != n)))
    elif part == "L":
        raw[12:20] = struct.pack("<d", draw(_BAD_L))
    else:  # a payload sample that is not finite
        at = _HEADER + 8 * draw(st.integers(0, 2 * n ** d - 1))
        raw[at:at + 8] = struct.pack("<d", draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    return d, n, L, bytes(raw)


@settings(max_examples=100, deadline=None, database=None)
@given(drawn=_corrupt_snapshot())
def test_any_corrupt_snapshot_is_value_error_and_config_error(drawn):
    d, n, L, raw = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "initial.mcnls"
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            read_snapshot(path)
        cfg = _sim_config(tmp / "out", grid={"d": d, "n": n, "L": L},
                          initial={"kind": "snapshot", "path": str(path)})
        assert run_scenario(_write_config(tmp, cfg)) == 2
        failure = json.loads((tmp / "out" / "manifest.json").read_text())["failure"]
    assert failure.startswith("config error:")
