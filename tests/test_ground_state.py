import numpy as np
import pytest

from mcnls import (
    Field,
    PetviashviliError,
    closed_form_1d,
    energy,
    gn_ratio,
    kinetic,
    make_grid,
    mass,
    pohozaev_check,
    solve_petviashvili,
)
from mcnls.symmetries import galilean_boost, rescale

from conftest import smooth_random_field


def test_closed_form_peak_value(q_ref):
    g = q_ref.field.grid
    assert q_ref.field.values[g.n // 2].real == pytest.approx(3 ** 0.25, rel=1e-14)


def test_closed_form_mass(q_ref):
    assert q_ref.mass_sq == pytest.approx(np.sqrt(3) * np.pi / 2, abs=1e-6)


def test_closed_form_residual(q_ref):
    # spectral differentiation residual of Delta Q - Q + Q^5
    assert q_ref.residual <= 1e-8


def test_closed_form_rejects():
    with pytest.raises(ValueError):
        closed_form_1d(make_grid(2, 64, 16.0))
    with pytest.raises(ValueError):
        closed_form_1d(make_grid(1, 64, 8.0))  # L too small


def test_petviashvili_matches_closed_form(q20):
    g = q20.field.grid
    q = solve_petviashvili(g)
    i_solver = int(np.argmax(np.abs(q.field.values)))
    i_exact = int(np.argmax(np.abs(q20.field.values)))
    diff = np.roll(q.field.values, i_exact - i_solver) - q20.field.values
    err = np.sqrt(g.h * np.sum(np.abs(diff) ** 2))
    assert err < 1e-6


def test_petviashvili_fixed_point_fast(q20):
    # starting at the closed form the solver is already converged
    g = q20.field.grid
    q = solve_petviashvili(g, initial=q20.field, max_iter=3)
    assert q.residual < 1e-8


def test_petviashvili_nonconvergence_reports_residual():
    g = make_grid(1, 256, 16.0)
    with pytest.raises(PetviashviliError) as exc:
        solve_petviashvili(g, tol=1e-14, max_iter=2)
    assert exc.value.residual > 0


def test_petviashvili_deterministic(q20):
    g = q20.field.grid
    a = solve_petviashvili(g)
    b = solve_petviashvili(g)
    assert np.array_equal(a.field.values, b.field.values)


def test_townes_mass(townes):
    # widely reproduced constant, used as a sanity anchor only
    assert townes.mass_sq == pytest.approx(11.70, rel=5e-3)


def test_townes_pohozaev(townes):
    r1, r2 = pohozaev_check(townes)
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def test_pohozaev_closed_form(q_ref):
    r1, r2 = pohozaev_check(q_ref)
    assert r1 <= 1e-8
    assert r2 <= 1e-8


def test_pohozaev_rejects_zero(q_ref):
    import dataclasses

    g = q_ref.field.grid
    zero = dataclasses.replace(q_ref, field=Field(g, np.zeros(g.shape)))
    with pytest.raises(ValueError):
        pohozaev_check(zero)


def test_energy_of_ground_state_vanishes(q_ref, townes):
    for q in (q_ref, townes):
        rel = abs(energy(q.field, -1)) / (0.5 * kinetic(q.field))
        assert rel <= 1e-6


def test_gn_ratio_extremizer(q_ref, townes):
    assert gn_ratio(q_ref.field, q_ref) == pytest.approx(1.0, abs=1e-4)
    assert gn_ratio(townes.field, townes) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("solve", ["closed-form-1d", "petviashvili-1d", "petviashvili-2d"])
def test_gn_ratio_of_q_less_one_is_its_energy_over_half_kinetic(solve, q20, townes):
    # for Q the mass factor of the ratio is exactly 1, so |ratio - 1| is the
    # ground-state scenario's zero_energy check, and no second check is needed
    if solve == "petviashvili-1d":
        q = solve_petviashvili(q20.field.grid)
    else:
        q = q20 if solve == "closed-form-1d" else townes
    assert mass(q.field) == q.mass_sq
    ratio = gn_ratio(q.field, q)
    assert abs((ratio - 1.0) - (-energy(q.field, -1) / (0.5 * kinetic(q.field)))) <= 1e-14


def test_gn_ratio_gaussian_strictly_below_one(q_ref):
    g = make_grid(1, 512, 16.0)
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    r = gn_ratio(f, q_ref)
    assert r < 1.0
    assert r > 0.5  # the Gaussian is not far from extremal


def test_gn_ratio_rejects_zero(q_ref):
    g = make_grid(1, 64, 16.0)
    with pytest.raises(ValueError):
        gn_ratio(Field(g, np.zeros(64)), q_ref)


def test_gn_ratio_scaling_invariance_for_q(q_ref):
    # the soliton's exponential tails limit it to one octave either way
    base = gn_ratio(q_ref.field, q_ref)
    for lam in (0.5, 2.0):
        r = gn_ratio(rescale(q_ref.field, lam), q_ref)
        assert abs(r - base) < 1e-8


def test_gn_ratio_scaling_invariance_sweep(q_ref):
    # a narrow band-limited field survives the full dyadic sweep; the grid
    # leaves Nyquist headroom for the sextic integrand at lambda = 4
    rng = np.random.default_rng(23)
    g = make_grid(1, 2048, 16.0)
    f = smooth_random_field(g, rng, nmodes=3, kmax_idx=1, width_frac=0.025)
    base = gn_ratio(f, q_ref)
    for lam in (0.25, 0.5, 2.0, 4.0):
        r = gn_ratio(rescale(f, lam), q_ref)
        assert abs(r - base) < 1e-8


def test_gn_ratio_random_fields_below_one(q_ref):
    rng = np.random.default_rng(17)
    g = make_grid(1, 512, 16.0)
    for _ in range(50):
        f = smooth_random_field(g, rng)
        assert gn_ratio(f, q_ref) <= 1.0 + 1e-6


def test_boost_mass_and_energy(q20):
    g = q20.field.grid
    xi = 4 * g.dk
    qb = galilean_boost(q20.field, [xi], 0.0)
    assert abs(mass(qb) - mass(q20.field)) <= 1e-12 * mass(q20.field)
    # the boost adds exactly |xi|^2 mass / 2 of kinetic energy
    pred = energy(q20.field, -1) + 0.5 * xi ** 2 * mass(q20.field)
    assert energy(qb, -1) == pytest.approx(pred, rel=1e-12)
    assert energy(qb, -1) > 0


def _petviashvili_complex_reference(grid, tol=1e-12, max_iter=500):
    """The full-spectrum iteration: complex FFTs, residual-free, returns (Q, iterations)."""
    from mcnls.grid import k2_symbol, r2_mesh

    p = 1 + 4 // grid.d
    theta = p / (p - 1.0)
    sym = 1.0 + k2_symbol(grid)
    q = 1.5 * np.exp(-r2_mesh(grid) / 2.0)
    for it in range(1, max_iter + 1):
        qp = q ** p
        qhat = np.fft.fftn(q)
        gamma = np.sum(sym * np.abs(qhat) ** 2) / np.sum(np.conj(qhat) * np.fft.fftn(qp)).real
        q_new = np.fft.ifftn(np.fft.fftn(qp) / sym).real * gamma ** theta
        diff = np.sqrt(grid.h ** grid.d * np.sum((q_new - q) ** 2))
        q = q_new
        if diff < tol:
            return np.abs(q), it
    return q, max_iter


@pytest.mark.parametrize("d, n, iterations", [(1, 512, 31), (2, 128, 50)])
def test_petviashvili_real_fft_matches_complex_reference(d, n, iterations):
    g = make_grid(d, n, 16.0)
    ref, its = _petviashvili_complex_reference(g)
    assert its == iterations
    q = solve_petviashvili(g)
    assert np.max(np.abs(q.field.values.real - ref)) <= 1e-13 * ref.max()
    # the same iteration count: converged at `its`, not at its - 1
    solve_petviashvili(g, max_iter=its)
    with pytest.raises(PetviashviliError):
        solve_petviashvili(g, max_iter=its - 1)


def test_petviashvili_error_residual_is_last_iterate_residual(monkeypatch):
    from mcnls import ground_state

    g = make_grid(2, 64, 16.0)
    seen = []
    real = ground_state._ode_residual

    def spy(vals, grid):
        seen.append(vals.copy())
        return real(vals, grid)

    monkeypatch.setattr(ground_state, "_ode_residual", spy)
    with pytest.raises(PetviashviliError) as exc:
        solve_petviashvili(g, max_iter=3)
    assert len(seen) == 1   # evaluated once, not per iteration
    last, _ = _petviashvili_complex_reference(g, max_iter=3)
    assert np.max(np.abs(seen[0] - last)) <= 1e-13 * last.max()
    assert exc.value.residual == real(seen[0], g)


def _two_branch_profile(q, grid):
    """The radial profile as built before one roll over all axes served both d."""
    from mcnls.piecewise import _clamped_spline

    if grid.d == 1:
        row = np.roll(q, -int(np.argmax(q)))[: grid.n // 2]
    else:
        ij = np.unravel_index(int(np.argmax(q)), q.shape)
        row = np.roll(np.roll(q, -ij[0], axis=0), -ij[1], axis=1)[0, : grid.n // 2]
    r = grid.h * np.arange(row.size)
    spl = _clamped_spline(r, row)
    return lambda s: np.where(np.abs(s) < r[-1], spl(np.abs(np.asarray(s, dtype=float))), 0.0)


@pytest.mark.parametrize("d, n", [(1, 512), (1, 1024), (2, 64), (2, 128)])
def test_radial_profile_matches_two_branch_reference(d, n):
    from mcnls.ground_state import _radial_profile

    g = make_grid(d, n, 16.0)
    q = solve_petviashvili(g).field.values.real
    s = np.linspace(-20.0, 20.0, 100001)
    assert np.array_equal(_radial_profile(q, g)(s), _two_branch_profile(q, g)(s))


@pytest.mark.parametrize("d, n", [(1, 512), (1, 1024), (2, 64), (2, 128)])
def test_radial_profile_matches_scipy_not_a_knot_spline(d, n):
    # zero slope at r_max in place of not-a-knot moves the spline by at most
    # the size of Q's tail there
    from scipy.interpolate import CubicSpline

    from mcnls.ground_state import _radial_profile

    g = make_grid(d, n, 16.0)
    q = solve_petviashvili(g).field.values.real
    peak = np.unravel_index(int(np.argmax(q)), q.shape)
    row = np.roll(q, [-i for i in peak], axis=tuple(range(q.ndim))).ravel()[: g.n // 2]
    r = g.h * np.arange(row.size)
    ref = CubicSpline(r, row, bc_type=("clamped", "not-a-knot"))
    s = np.linspace(0.0, r[-1], 100001)[:-1]
    assert np.max(np.abs(_radial_profile(q, g)(s) - ref(s))) <= row[-1]
