import numpy as np
import pytest

from mcnls import (
    BUMP,
    Field,
    commutator_error,
    lp_norm,
    make_grid,
    project_band,
    project_high,
    project_low,
)
from mcnls.grid import k2_symbol
from mcnls.projections import nonlinearity

from conftest import bump_pair, digest, smooth_random_field


def test_bump_plateau_support_monotone():
    r = np.linspace(0, 3, 3001)
    v = BUMP(r)
    assert np.all(v[r <= 1.0] == 1.0)
    assert np.all(v[r > 2.0] == 0.0)
    assert np.all((v >= 0) & (v <= 1))
    mid = v[(r > 1.0) & (r < 2.0)]
    assert np.all(np.diff(mid) < 0)  # strictly decreasing on the transition


def test_bump_derivative_vanishes_on_plateaus():
    d = BUMP.derivative(np.array([0.0, 0.5, 1.0, 2.0, 2.5]))
    assert np.all(d == 0.0)
    # C^1 continuity at the junctions
    eps = 1e-6
    assert abs(BUMP.derivative(1.0 + eps)) < 1e-4
    assert abs(BUMP.derivative(2.0 - eps)) < 1e-4


def test_project_low_plane_wave_kept():
    g = make_grid(1, 128, 16.0)
    k0 = 6 * g.dk
    f = Field(g, np.exp(1j * k0 * g.axis_x))
    out = project_low(f, 2.0 * abs(k0))
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_project_low_plane_wave_killed():
    g = make_grid(1, 128, 16.0)
    k0 = 20 * g.dk
    f = Field(g, np.exp(1j * k0 * g.axis_x))
    out = project_low(f, abs(k0) / 3.0)
    assert np.max(np.abs(out.values)) < 1e-13


def test_low_plus_high_is_identity():
    rng = np.random.default_rng(0)
    g = make_grid(1, 128, 16.0)
    vals = rng.normal(size=128) + 1j * rng.normal(size=128)
    f = Field(g, vals)
    s = project_low(f, 2.5).values + project_high(f, 2.5).values
    assert np.max(np.abs(s - f.values)) < 1e-12


def test_band_of_fully_kept_wave_is_zero():
    g = make_grid(1, 128, 16.0)
    k0 = 2 * g.dk
    f = Field(g, np.exp(1j * k0 * g.axis_x))
    out = project_band(f, 10.0 * abs(k0))
    assert np.max(np.abs(out.values)) < 1e-13


def test_project_high_beyond_nyquist_is_zero():
    rng = np.random.default_rng(1)
    g = make_grid(1, 128, 16.0)
    f = Field(g, rng.normal(size=128))
    out = project_high(f, 10.0 * np.pi * g.n / (2 * g.L))
    assert np.max(np.abs(out.values)) < 1e-12


def test_dyadic_telescope_reconstructs():
    rng = np.random.default_rng(2)
    g = make_grid(1, 128, 16.0)
    vals = rng.normal(size=128) + 1j * rng.normal(size=128)
    f = Field(g, vals)
    N0 = 1.0
    total = project_low(f, N0).values.copy()
    for j in range(6):
        total = total + project_band(f, N0 * 2 ** j).values
    # after 6 octaves the top multiplier covers the whole spectrum only if
    # 2*N0*2^5 >= nyquist*... use enough octaves for this grid
    total2 = project_low(f, N0).values.copy()
    for j in range(9):
        total2 = total2 + project_band(f, N0 * 2 ** j).values
    assert np.max(np.abs(total2 - f.values)) < 1e-12


def test_multiplier_composition():
    rng = np.random.default_rng(3)
    g = make_grid(1, 128, 16.0)
    f = Field(g, rng.normal(size=128) + 1j * rng.normal(size=128))
    twice = project_low(project_low(f, 3.0), 3.0)
    kabs = np.sqrt(k2_symbol(g))
    pred = np.fft.ifftn(BUMP(kabs / 3.0) ** 2 * np.fft.fftn(f.values))
    assert np.max(np.abs(twice.values - pred)) < 1e-12


def test_projection_self_adjoint():
    rng = np.random.default_rng(4)
    g = make_grid(1, 128, 16.0)
    a = Field(g, rng.normal(size=128) + 1j * rng.normal(size=128))
    b = Field(g, rng.normal(size=128) + 1j * rng.normal(size=128))
    lhs = np.sum(np.conj(project_low(a, 2.0).values) * b.values)
    rhs = np.sum(np.conj(a.values) * project_low(b, 2.0).values)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_mass_non_increase():
    rng = np.random.default_rng(5)
    g = make_grid(1, 128, 16.0)
    for _ in range(20):
        f = Field(g, rng.normal(size=128) + 1j * rng.normal(size=128))
        for N in (0.5, 1.0, 4.0, 16.0):
            assert lp_norm(project_low(f, N), 2) <= lp_norm(f, 2) * (1 + 1e-12)


def test_project_rejects_bad_scale():
    g = make_grid(1, 128, 16.0)
    f = Field(g, np.ones(128))
    with pytest.raises(ValueError):
        project_low(f, 0.0)
    with pytest.raises(ValueError):
        commutator_error(f, -1.0, 1)


def test_commutator_plane_wave_zero():
    g = make_grid(1, 128, 16.0)
    k0 = 2 * g.dk
    f = Field(g, 0.8 * np.exp(1j * k0 * g.axis_x))
    # constant-modulus plane wave keeps a single frequency
    assert commutator_error(f, 50.0, -1) < 1e-12


def test_commutator_identity_regime():
    rng = np.random.default_rng(6)
    g = make_grid(1, 128, 16.0)
    f = smooth_random_field(g, rng, normalize_mass=1.0)
    nyq = np.pi * g.n / (2 * g.L)
    assert commutator_error(f, 2.5 * nyq, -1) < 1e-12


def test_commutator_against_mode_sum_oracle():
    rng = np.random.default_rng(7)
    g = make_grid(1, 64, 12.0)
    f = smooth_random_field(g, rng, kmax_idx=4, normalize_mass=2.0)

    def oracle(field, N, mu):
        n = g.n
        j = np.arange(n)
        W = np.exp(-2j * np.pi * np.outer(j, j) / n)
        Winv = np.conj(W) / n
        mult = BUMP(np.abs(g.axis_k) / N)
        Fu = nonlinearity(field, mu).values
        p_fu = Winv @ (mult * (W @ Fu))
        pf = Field(g, Winv @ (mult * (W @ field.values)))
        fpf = nonlinearity(pf, mu).values
        return float(np.sqrt(g.h * np.sum(np.abs(p_fu - fpf) ** 2)))

    for N in (0.7, 1.5, 3.0):
        a = commutator_error(f, N, -1)
        b = oracle(f, N, -1)
        assert a == pytest.approx(b, abs=1e-10 + 1e-10 * a)
    assert commutator_error(f, 0.7, -1) > 1e-4  # genuinely nonzero at small N


def test_commutator_decay_with_scale():
    rng = np.random.default_rng(8)
    g = make_grid(1, 256, 16.0)
    for _ in range(20):
        f = smooth_random_field(g, rng, kmax_idx=5, normalize_mass=1.0)
        errs = [commutator_error(f, N, -1) for N in (2.0, 4.0, 8.0, 16.0)]
        for a, b in zip(errs, errs[1:]):
            if a < 1e-13:
                break
            assert b < a * 1.0000001


# nonlinearity digests and commutator_error bits (float.hex) at N = 2 of the
# former pad/truncate code, on numpy 2.4.6 (x86-64)
_PARENT_BITS = {
    (1, "wide", -1): ("205c05ddc09dc716", "0x1.361088bf3a103p-4"),
    (1, "wide", 1): ("64616c57911dde9a", "0x1.361088bf3a103p-4"),
    (1, "narrow", -1): ("85b92ad43df06da9", "0x1.2172cdb9c0a7bp-3"),
    (1, "narrow", 1): ("9b3c1394f5bf6799", "0x1.2172cdb9c0a7bp-3"),
    (2, "wide", -1): ("2c25f2d7f3195075", "0x1.7b55b62aa3e54p-4"),
    (2, "wide", 1): ("1d1f88ea531cd931", "0x1.7b55b62aa3e54p-4"),
    (2, "narrow", -1): ("014a2d3154083518", "0x1.3d6664fc52516p-3"),
    (2, "narrow", 1): ("1abc528c4bc027d3", "0x1.3d6664fc52516p-3"),
}


@pytest.mark.parametrize("d", [1, 2])
def test_nonlinearity_and_commutator_keep_their_bits(d):
    for name, f in zip(("wide", "narrow"), bump_pair(d)):
        for mu in (-1, 1):
            values, comm = _PARENT_BITS[d, name, mu]
            assert digest(nonlinearity(f, mu).values) == values
            assert commutator_error(f, 2.0, mu).hex() == comm
