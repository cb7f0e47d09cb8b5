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

from conftest import smooth_random_field


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
