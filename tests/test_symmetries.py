import numpy as np
import pytest

from mcnls import (
    Field,
    equation_residual,
    galilean_boost,
    gradient_norm_sq,
    lp_norm,
    mass,
    pseudoconformal_sample,
    rescale,
    step_strang,
    translate,
)

from conftest import bump_pair, digest, smooth_random_field


def test_rescale_identity(grid512):
    g = grid512
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    out = rescale(f, 1.0)
    assert np.array_equal(out.values, f.values)


def test_rescale_mass_preserved(q_ref):
    for lam in (0.5, 2.0):
        fr = rescale(q_ref.field, lam)
        assert abs(mass(fr) - mass(q_ref.field)) <= 1e-10 * mass(q_ref.field)


def test_rescale_group_law(grid512):
    g = grid512
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    back = rescale(rescale(f, 2.0), 0.5)
    assert lp_norm(Field(g, back.values - f.values), 2) < 1e-10


def test_rescale_rejects_nondyadic_and_aliasing(grid512):
    g = grid512
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    with pytest.raises(ValueError):
        rescale(f, 3.0)
    with pytest.raises(ValueError):
        rescale(f, -2.0)
    # white noise fills the spectrum: zoom-out must refuse
    rng = np.random.default_rng(0)
    noisy = Field(g, rng.normal(size=g.n))
    with pytest.raises(ValueError):
        rescale(noisy, 2.0)


def test_boost_identity_and_group_law(grid512):
    g = grid512
    rng = np.random.default_rng(1)
    f = smooth_random_field(g, rng)
    out = galilean_boost(f, [0.0], 0.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-14
    xi = 4 * g.dk
    back = galilean_boost(galilean_boost(f, [xi], 0.0), [-xi], 0.0)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_boost_rejects_off_lattice(grid512):
    g = grid512
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    with pytest.raises(ValueError) as exc:
        galilean_boost(f, [0.123], 0.0)
    assert "lattice" in str(exc.value)


def test_boost_mass_invariant(grid512):
    g = grid512
    rng = np.random.default_rng(2)
    f = smooth_random_field(g, rng)
    fb = galilean_boost(f, [6 * g.dk], 0.0)
    assert abs(mass(fb) - mass(f)) <= 1e-12 * mass(f)


def test_translate_preserves_mass(grid512):
    g = grid512
    rng = np.random.default_rng(3)
    f = smooth_random_field(g, rng)
    ft = translate(f, [2.5 * g.h])
    assert abs(mass(ft) - mass(f)) <= 1e-10 * mass(f)


def test_boost_commutes_with_evolution(grid512):
    # evolve(boost(u0)) = boost(evolve(u0)) on the lattice
    g = grid512
    f0 = Field(g, 0.9 * np.exp(-g.axis_x ** 2 / 2))
    xi0 = 6 * g.dk
    dt, nsteps = 1e-3, 500
    ua = galilean_boost(f0, [xi0], 0.0)
    ub = f0
    for _ in range(nsteps):
        ua = step_strang(ua, dt, -1)
        ub = step_strang(ub, dt, -1)
    t = dt * nsteps
    diff = lp_norm(Field(g, ua.values - galilean_boost(ub, [xi0], t).values), 2)
    assert diff < 1e-8


def test_pseudoconformal_mass(q20):
    g = q20.field.grid
    target = q20.mass_sq
    for t in (-1.0, -2.0, 1.0):
        v = pseudoconformal_sample(t, g, q20)
        assert abs(mass(v) - target) <= 1e-8


def test_pseudoconformal_mass_2d_petviashvili():
    # the sample resamples a Petviashvili Townes profile through its radial spline
    from mcnls import make_grid, solve_petviashvili

    q = solve_petviashvili(make_grid(2, 128, 16.0))
    for t in (-1.0, -0.5, 1.0):
        v = pseudoconformal_sample(t, q.field.grid, q)
        assert abs(mass(v) - q.mass_sq) <= 1e-4 * q.mass_sq


def test_pseudoconformal_rejects_t0(q20):
    with pytest.raises(ValueError):
        pseudoconformal_sample(0.0, q20.field.grid, q20)


def test_pseudoconformal_residual_both_orientations(q20):
    g = q20.field.grid
    dt = 1e-5
    for t0 in (-1.0, 1.0):
        fm = pseudoconformal_sample(t0 - dt, g, q20)
        f0 = pseudoconformal_sample(t0, g, q20)
        fp = pseudoconformal_sample(t0 + dt, g, q20)
        assert equation_residual(fm, f0, fp, dt, -1) <= 1e-4


def test_pseudoconformal_gradient_growth(q20):
    # ||grad v(t)||^2 = ||Q'||^2 / t^2 + (1/4) int |y|^2 Q(y)^2 dy exactly
    g = q20.field.grid
    from mcnls.observables import variance

    qvar = variance(q20.field)
    kin_q = gradient_norm_sq(q20.field)
    for t in (-1.0, -0.5, -0.25):
        v = pseudoconformal_sample(t, g, q20)
        pred = kin_q / t ** 2 + 0.25 * qvar
        assert gradient_norm_sq(v) == pytest.approx(pred, rel=1e-6)
    # asymptotic 1/|t| slope on a window where the constant term is small
    g1 = np.sqrt(gradient_norm_sq(pseudoconformal_sample(-0.5, g, q20)))
    g2 = np.sqrt(gradient_norm_sq(pseudoconformal_sample(-0.125, g, q20)))
    slope = np.log(g2 / g1) / np.log(4.0)
    assert slope == pytest.approx(1.0, rel=0.05)


def test_pseudoconformal_evolution_match(q20):
    # evolving the t = -1 sample forward half a unit reproduces the
    # t = -1/2 sample
    g = q20.field.grid
    v1 = pseudoconformal_sample(-1.0, g, q20)
    v2 = pseudoconformal_sample(-0.5, g, q20)
    u = v1
    dt = 1e-4
    for _ in range(5000):
        u = step_strang(u, dt, -1)
    assert lp_norm(Field(g, u.values - v2.values), 2) <= 1e-4


def test_equation_residual_plane_wave(grid512):
    g = grid512
    A, k0, mu = 0.7, 4 * g.dk, -1
    om = -k0 ** 2 - mu * A ** 4
    pw = lambda t: Field(g, A * np.exp(1j * (k0 * g.axis_x + om * t)))
    dt = 1e-4
    assert equation_residual(pw(-dt), pw(0.0), pw(dt), dt, mu) <= 1e-8


def test_equation_residual_soliton(q20):
    g = q20.field.grid
    sol = lambda t: Field(g, np.exp(1j * t) * q20.field.values)
    dt = 1e-4
    assert equation_residual(sol(-dt), sol(0.0), sol(dt), dt, -1) <= 1e-6


def test_equation_residual_negative_control(q512):
    g = q512.field.grid
    sol = lambda t: Field(g, np.exp(1j * t) * q512.field.values)
    dt = 1e-4
    bad = Field(g, sol(0.0).values + 0.1 * np.exp(-g.axis_x ** 2))
    assert equation_residual(sol(-dt), bad, sol(dt), dt, -1) > 0.1


def test_all_transforms_preserve_mass(q_ref):
    f = q_ref.field
    g = f.grid
    m0 = mass(f)
    assert abs(mass(rescale(f, 2.0)) - m0) <= 1e-10 * m0
    assert abs(mass(galilean_boost(f, [3 * g.dk], 0.7)) - m0) <= 1e-10 * m0
    assert abs(mass(translate(f, [1.0])) - m0) <= 1e-10 * m0
    v = pseudoconformal_sample(-1.0, g, q_ref)
    assert abs(mass(v) - m0) <= 1e-8


@pytest.mark.parametrize("shift", [[1.0], [1.0, 0.5, 7.0], 1.0, [[1.0, 0.5]]],
                         ids=["one", "three", "bare-number", "nested"])
def test_translate_needs_one_component_per_axis(shift):
    from mcnls import make_grid

    # [1.0] shifted along x only and a third component was dropped
    f = smooth_random_field(make_grid(2, 32, 8.0), np.random.default_rng(1))
    with pytest.raises(ValueError, match="shift needs 2 components"):
        translate(f, shift)


def test_translate_takes_a_bare_number_in_1d(grid512):
    f = smooth_random_field(grid512, np.random.default_rng(2))
    assert np.array_equal(translate(f, 2.5).values, translate(f, [2.5]).values)


# rescale digests of the former pad-and-slice zoom, on numpy 2.4.6 (x86-64):
# the narrow field zooms in, the wide one out
_RESCALE_BITS = {
    (1, 0.25): "6e438129b37c6340", (1, 0.5): "e944eda10b2eaf27", (1, 1.0): "021bad9c877b8667",
    (1, 2.0): "e11b6ec5ac2e32da", (1, 4.0): "293611fb585486af",
    (2, 0.25): "d1872f5e42dd166e", (2, 0.5): "b7d0abfb085813ed", (2, 1.0): "45a50bd897f76291",
    (2, 2.0): "152afe925cbdc6d0", (2, 4.0): "083ded2c639e58ea",
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_rescale_keeps_its_bits(d, lam):
    wide, narrow = bump_pair(d)
    assert digest(rescale(narrow if lam < 1 else wide, lam).values) == _RESCALE_BITS[d, lam]


@pytest.mark.parametrize("d, lam, message", [
    (1, 0.25, "mass fraction 9.80e-08 lies outside"),
    (1, 4.0, "fraction 8.43e-06 of the spectrum lies beyond the shrunken Nyquist range"),
    (2, 0.25, "mass fraction 1.30e-07 lies outside"),
    (2, 4.0, "fraction 1.60e-04 of the spectrum lies beyond the shrunken Nyquist range"),
    (1, 3.0, "scale factor 3.0 is not a power of two; only dyadic factors are exactly "
             "representable on the grid"),
])
def test_rescale_keeps_its_rejection_messages(d, lam, message):
    # the wide field leaves the central half box after one zoom in; the narrow
    # one has too much spectrum for two zooms out
    wide, narrow = bump_pair(d)
    prefix = {0.25: "rescale by 0.25 needs the field inside the central half box; ",
              4.0: "rescale by 4.0 would alias: "}.get(lam, "")
    with pytest.raises(ValueError) as exc:
        rescale(wide if lam < 1 else narrow, lam)
    assert str(exc.value) == prefix + message


@pytest.mark.parametrize("d", [1, 2])
def test_rescale_of_a_zero_field_is_zero(d):
    # no mass lies anywhere, so neither guard rejects it
    g = bump_pair(d)[0].grid
    for lam in (0.25, 0.5, 2.0, 4.0):
        assert not rescale(Field(g, np.zeros(g.shape)), lam).values.any()
