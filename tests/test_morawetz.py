import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mcnls import (
    Field,
    build_centered_weights,
    build_weights,
    centered_action,
    defocusing_gap,
    defocusing_gap_lower_bound,
    defocusing_interaction_action,
    galilean_boost,
    interaction_action,
    interaction_action_direct,
    interaction_flux,
    make_grid,
    mass,
    step_strang,
    weight_conditions_check,
    weight_family_checks,
)
from mcnls.morawetz import defocusing_interaction_action_direct
from mcnls.observables import kinetic, momentum_density, quad_weight

from conftest import smooth_random_field


def test_build_weights_rejects():
    with pytest.raises(ValueError):
        build_weights(1, 3.0, 4.0)
    with pytest.raises(ValueError):
        build_weights(1, 8.0, 0.0)
    with pytest.raises(ValueError):
        build_weights(3, 8.0, 4.0)


@pytest.mark.parametrize("M", [4.0, 8.0, 9.5])
def test_phi_closed_form_vs_quadrature(weights, M):
    w = weights(1, M, M / 2.0)
    varphi = lambda s: np.clip(M - np.abs(s), 0.0, 1.0)
    for x0 in np.array([0.0, 0.7, 5.0, 14.3, 15.5]) * M / 8.0:
        kinks = [c for c in (1 - M, M - 1, x0 - M, x0 + 1 - M, x0 + M - 1) if -M < c < M]
        oracle = quad(lambda s: varphi(s) * varphi(x0 - s), -M, M, points=kinks,
                      limit=400)[0] / (2 * M)
        assert float(w.phi(x0)) == pytest.approx(oracle, abs=1e-10)
    # phi(0) against the hand-computed value
    assert float(w.phi(0.0)) == pytest.approx((2 * M - 4.0 / 3.0) / (2 * M), abs=1e-14)
    # closed forms of the exact piecewise cubic
    exact = pytest.approx
    assert w.F_total == exact((2 * M - 1) ** 2 / (4 * M), rel=1e-14)
    assert float(w.F(3 * M)) == exact(w.F_total, rel=1e-14)
    assert float(w.d2phi(0.0)) == exact(-1.0 / M, abs=1e-14)
    assert float(w.dphi(0.0)) == exact(0.0, abs=1e-14)
    assert float(w.phi(2 * M)) == exact(0.0, abs=1e-14)
    assert float(w.dphi(2 * M)) == exact(0.0, abs=1e-14)


def test_phi2_closed_form_center_and_oracle(weights):
    w = weights(2, 8.0, 4.0)
    M = 8.0
    exact0 = ((M - 1) ** 2 + 2 * (M / 3.0 - 0.25)) / M ** 2
    assert float(w.phi(0.0)) == pytest.approx(exact0, abs=1e-10)
    # cartesian quadrature oracle at a few radii
    s = np.linspace(-M, M, 2400)
    ds = s[1] - s[0]
    X, Y = np.meshgrid(s, s, indexing="ij")
    varphi = np.clip(M - np.sqrt(X ** 2 + Y ** 2), 0.0, 1.0)
    for r in (3.0, 9.0, 14.5):
        shifted = np.clip(M - np.sqrt((X - r) ** 2 + Y ** 2), 0.0, 1.0)
        oracle = float(np.sum(varphi * shifted)) * ds * ds / (np.pi * M * M)
        assert float(w.phi(r)) == pytest.approx(oracle, abs=5e-7)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("M", [4.0, 8.0, 16.0])
def test_weight_family_invariants(weights, d, M):
    w = weights(d, M, M / 2.0)
    for name, (value, bound, ok) in weight_family_checks(w).items():
        assert ok, f"d={d} M={M}: {name} value={value} bound={bound}"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("M", [4.0, 8.0, 16.0])
def test_phi_support_fails_a_profile_that_does_not_end_at_2M(weights, d, M):
    # phi(0.999 r) is still nonzero at r = 2M, where the support must end
    w = weights(d, M, M / 2.0)
    assert weight_family_checks(w)["phi_support"][2]
    scaled = replace(w, phi=lambda r: w.phi(0.999 * r),
                     dphi=lambda r: 0.999 * w.dphi(0.999 * r))
    value, bound, ok = weight_family_checks(scaled)["phi_support"]
    assert not ok and value > 1e3 * bound


def test_psi_identity_by_finite_differences(weights):
    # independent check of r psi' = phi - psi via central differences
    for d in (1, 2):
        w = weights(d, 8.0, 4.0)
        r = np.linspace(0.3, 20.0, 197)
        h = 1e-6
        fd = (w.psi(r + h) - w.psi(r - h)) / (2 * h)
        assert np.max(np.abs(r * fd - (w.phi(r) - w.psi(r)))) < 1e-6


def test_psi_half_step_values(weights):
    w = weights(1, 8.0, 4.0)
    # psi(0) = phi(0); psi decays like F_total / r in the tail
    assert float(w.psi(0.0)) == pytest.approx(w.phi0, rel=1e-14)
    assert float(w.psi(100.0)) == pytest.approx(w.F_total / 100.0, rel=1e-12)


def test_centered_action_parity(q512, weights):
    w = weights(1, 8.0, 4.0)
    assert abs(centered_action(q512.field, 1.0, 4.0, w)) < 1e-10


def test_centered_action_boosted_profile_oracle(weights):
    w = weights(1, 8.0, 4.0)
    g = make_grid(1, 1024, 20.0)
    x = g.axis_x
    k0 = 6 * g.dk
    prof = np.exp(-(x - 2.5) ** 2 / 3.0)
    f = Field(g, prof * np.exp(1j * k0 * x))
    val = centered_action(f, 1.0, 4.0, w)
    oracle = k0 * quad(lambda s: float(w.psi(abs(s) / 4.0)) * s
                       * np.exp(-2 * (s - 2.5) ** 2 / 3.0), -20, 20, limit=400)[0]
    assert val == pytest.approx(oracle, abs=1e-10 * (1 + abs(oracle)))


def test_centered_action_kernel_bound(weights):
    w = weights(1, 8.0, 4.0)
    rng = np.random.default_rng(0)
    g = make_grid(1, 256, 16.0)
    for _ in range(20):
        f = smooth_random_field(g, rng)
        p1 = quad_weight(f) * np.sum(np.abs(momentum_density(f)[0]))
        assert abs(centered_action(f, 1.0, 4.0, w)) <= 2 * w.M * 4.0 * p1 * (1 + 1e-12)


def test_centered_action_rejects_2d(weights):
    w = weights(2, 8.0, 4.0)
    g = make_grid(2, 16, 8.0)
    with pytest.raises(ValueError):
        centered_action(Field(g, np.ones(g.shape)), 1.0, 4.0, w)


def test_section3_profile():
    cw = build_centered_weights()
    r = np.linspace(0.0, 6.0, 6001)
    # plateau and tail values of psi
    assert np.allclose(cw.psi(r[r <= 1.0]), 1.0)
    tail = r[r >= 2.0]
    assert np.allclose(cw.psi(tail) * tail, 3.0)
    # (x psi)' = phi >= 0, continuous
    g = cw.psi(r) * r
    fd = np.gradient(g, r)
    assert np.min(cw.phi(r)) >= 0.0
    assert np.max(np.abs(fd[5:-5] - cw.phi(r)[5:-5])) < 1e-2  # FD resolution


def test_section3_profile_hermite_values():
    cw = build_centered_weights()
    x = np.array([0.0, 1.0, 1.5, 2.0, 5.0])
    t = x - 1.0
    hermite = -3 * t ** 3 + 4 * t ** 2 + t + 1
    g = np.where(x <= 1, x, np.where(x >= 2, 3.0, hermite))
    phi = np.where(x <= 1, 1.0, np.where(x >= 2, 0.0, -(9 * t + 1) * (t - 1)))
    assert list(g) == [0.0, 1.0, 2.125, 3.0, 3.0]
    assert list(phi) == [1.0, 1.0, 2.75, 0.0, 0.0]
    assert np.array_equal(cw.g(x), g)
    assert np.array_equal(cw.phi(x), phi) and np.array_equal(cw.phi(-x), phi)
    assert np.allclose(cw.psi(-x) * x, g, rtol=1e-15, atol=0.0)
    assert float(cw.psi(0.0)) == 1.0


def test_interaction_action_fast_vs_direct_1d(weights):
    w = weights(1, 8.0, 4.0)
    rng = np.random.default_rng(5)
    g = make_grid(1, 128, 16.0)
    for _ in range(5):
        f = smooth_random_field(g, rng)
        a = interaction_action(f, 1.0, w)
        b = interaction_action_direct(f, 1.0, w)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_interaction_action_fast_vs_direct_2d(weights):
    w = weights(2, 4.0, 2.0)
    rng = np.random.default_rng(6)
    g = make_grid(2, 32, 8.0)
    f = smooth_random_field(g, rng, width_frac=0.15, kmax_idx=2)
    a = interaction_action(f, 1.0, w)
    b = interaction_action_direct(f, 1.0, w)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_interaction_action_real_field_zero(q512, weights):
    w = weights(1, 8.0, 4.0)
    assert abs(interaction_action(q512.field, 1.0, w)) < 1e-10


def test_interaction_action_galilean_invariance(weights):
    w = weights(1, 8.0, 4.0)
    rng = np.random.default_rng(7)
    g = make_grid(1, 256, 16.0)
    for _ in range(10):
        f = smooth_random_field(g, rng)
        a0 = interaction_action(f, 1.0, w)
        a1 = interaction_action(galilean_boost(f, [4 * g.dk], 0.0), 1.0, w)
        assert abs(a1 - a0) < 1e-8


def test_interaction_action_kernel_bound(weights):
    rng = np.random.default_rng(8)
    g = make_grid(1, 256, 16.0)
    w = weights(1, 8.0, 4.0)
    for _ in range(100):
        f = smooth_random_field(g, rng)
        nt = float(rng.uniform(0.25, 4.0))
        a = interaction_action(f, nt, w)
        p1 = sum(quad_weight(f) * np.sum(np.abs(p)) for p in momentum_density(f))
        assert abs(a) <= 2 * w.M * w.R * p1 * mass(f) * (1 + 1e-9)


def _flux_terms_direct(f, Nt, Ntp, mu, w):
    """O(n^{2d}) double sums for the action and the five flux terms."""
    from mcnls.grid import laplacian, spectral_derivative

    g = f.grid
    d = g.d
    xm = [x.reshape(-1) for x in g.x_mesh()]
    z = [x[:, None] - x[None, :] for x in xm]          # z = x - y, rows x
    r = np.sqrt(sum(zj * zj for zj in z))
    s = r * Nt / w.R
    psi, phi = w.psi(s), w.phi(s)
    zhat = [np.where(r > 0, zj / np.where(r > 0, r, 1.0), 0.0) for zj in z]
    rho = (np.abs(f.values) ** 2).reshape(-1)
    p = [pj.reshape(-1) for pj in momentum_density(f)]
    du = [spectral_derivative(f, j).values.reshape(-1) for j in range(d)]
    lap = laplacian(Field(g, np.abs(f.values) ** 2)).values.real.reshape(-1)
    nl = rho ** ((d + 2.0) / d)
    w2 = quad_weight(f) ** 2
    pair = lambda a, kern, b: w2 * float(a @ kern @ b)
    G = Nt * ((d - 1) * psi + phi)
    action = sum(pair(p[j], psi * z[j] * Nt, rho) for j in range(d))
    disp = mom = 0.0
    for j in range(d):
        for k in range(d):
            K = Nt * (psi * (j == k) + (phi - psi) * zhat[j] * zhat[k])
            disp += 2.0 * pair(np.real(np.conj(du[j]) * du[k]), K, rho)
            mom -= 2.0 * pair(p[j], K, p[k])
    nonlin = 2.0 * mu / (d + 2.0) * pair(nl, G, rho)
    curv = -0.5 * pair(lap, G, rho)
    env = Ntp * sum(pair(p[j], phi * z[j], rho) for j in range(d))
    return action, mom, disp, nonlin, curv, env


@pytest.mark.parametrize("d, n, L, M, mu", [(1, 64, 12.0, 4.0, 1), (1, 64, 12.0, 8.0, -1),
                                            (2, 16, 6.0, 4.0, 1), (2, 16, 6.0, 4.0, -1)])
def test_flux_terms_vs_direct_double_sums(weights, d, n, L, M, mu):
    g = make_grid(d, n, L)
    xm = g.x_mesh()
    r2 = sum(x * x for x in xm)
    # off-center, chirped and boosted so that no term vanishes by symmetry
    env = np.exp(-sum((x - 0.3 * (j + 1)) ** 2 for j, x in enumerate(xm)) / 3.0)
    phase = 0.15 * r2 + 0.4 * xm[0] - 0.25 * xm[-1] * (d == 2)
    f = Field(g, 1.1 * env * np.exp(1j * phase))
    w = weights(d, M, M / 2.0)
    Nt, Ntp = 0.9, 0.3
    rep = interaction_flux(f, Nt, Ntp, mu, w)
    got = (rep.action, rep.momentum, rep.dispersive, rep.nonlinear, rep.curvature,
           rep.envelope_drift)
    direct = _flux_terms_direct(f, Nt, Ntp, mu, w)
    for name, a, b in zip(("action", "momentum", "dispersive", "nonlinear",
                           "curvature", "envelope_drift"), got, direct):
        assert abs(b) > 1e-6, name
        assert a == pytest.approx(b, rel=1e-12), name
    assert interaction_action(f, Nt, w) == pytest.approx(direct[0], rel=1e-12)


def _fd_flux_check(f0, mu, Nt, Ntp, w, dt=1e-4, tol=1e-3):
    us = [f0]
    for _ in range(4):
        us.append(step_strang(us[-1], dt, mu))
    acts = [interaction_action(u, Nt + Ntp * (i - 2) * dt, w)
            for i, u in enumerate(us)]
    fd = (acts[3] - acts[1]) / (2 * dt)
    rep = interaction_flux(us[2], Nt, Ntp, mu, w)
    assert rep.flux == pytest.approx(fd, rel=tol)
    total = (rep.momentum + rep.dispersive + rep.nonlinear + rep.curvature
             + rep.envelope_drift)
    assert total == pytest.approx(rep.flux, rel=1e-8)
    return rep


def test_flux_vs_finite_difference_both_mu(grid512, weights):
    g = grid512
    x = g.axis_x
    w = weights(1, 8.0, 4.0)
    f1 = Field(g, 1.2 * np.exp(-x ** 2 / 4) * np.exp(1j * 0.5 * x * np.tanh(x / 3)))
    _fd_flux_check(f1, 1, 1.0, 0.0, w)
    f2 = Field(g, 0.8 * np.exp(-x ** 2 / 4) * np.exp(1j * 8 * g.dk * x))
    _fd_flux_check(f2, -1, 1.0, 0.0, w)


def test_flux_vs_finite_difference_envelope_drift(grid512, weights):
    g = grid512
    x = g.axis_x
    w = weights(1, 8.0, 4.0)
    f1 = Field(g, 1.2 * np.exp(-x ** 2 / 4) * np.exp(1j * 0.5 * x * np.tanh(x / 3)))
    rep = _fd_flux_check(f1, 1, 0.7, 0.3, w)
    assert rep.envelope_drift != 0.0


def test_flux_vs_finite_difference_2d(weights):
    g = make_grid(2, 128, 12.0)
    X, Y = g.x_mesh()
    w = weights(2, 6.0, 3.0)
    f = Field(g, np.exp(-(X ** 2 + Y ** 2) / 4)
              * np.exp(1j * (0.3 * X - 0.2 * Y) * np.tanh(X / 2)))
    _fd_flux_check(f, 1, 1.0, 0.0, w)


def test_flux_soliton_stationary(q512, weights):
    w = weights(1, 8.0, 4.0)
    rep = interaction_flux(q512.field, 1.0, 0.0, -1, w)
    assert abs(rep.flux) < 1e-6
    assert abs(rep.action) < 1e-10


def test_flux_coercive_term_below_threshold(q_ref, q20, weights):
    # below the ground-state mass the dispersive + nonlinear part keeps a
    # (1 - theta) fraction of the dispersive term
    w = weights(1, 8.0, 4.0)
    g = q20.field.grid
    x = g.axis_x
    for c in (0.5, 0.8, 0.95):
        f = Field(g, c * q20.field.values * np.exp(1j * 2 * g.dk * x))
        rep = interaction_flux(f, 1.0, 0.0, -1, w)
        theta = (mass(f) / q_ref.mass_sq) ** 2
        assert rep.coercive >= (1 - theta) * rep.dispersive * (1 - 1e-9)


def test_defocusing_gap_values(q_ref, q20):
    assert abs(defocusing_gap(q20.field, q_ref)) <= 1e-6 * 0.5 * kinetic(q20.field)
    half = Field(q20.field.grid, 0.5 * q20.field.values)
    gap = defocusing_gap(half, q_ref)
    assert gap > 0
    assert gap >= defocusing_gap_lower_bound(half, q_ref) * (1 - 1e-9)
    big = Field(q20.field.grid, 1.5 * q20.field.values)
    assert defocusing_gap(big, q_ref) < 0


def test_defocusing_gap_random_subthreshold(q_ref):
    rng = np.random.default_rng(9)
    g = make_grid(1, 512, 16.0)
    for _ in range(200):
        target = float(rng.uniform(0.1, 0.99)) * q_ref.mass_sq
        f = smooth_random_field(g, rng, normalize_mass=target)
        gap = defocusing_gap(f, q_ref)
        lower = defocusing_gap_lower_bound(f, q_ref)
        assert gap >= lower * (1 - 1e-9) - 1e-12
        assert gap >= 0


def test_classical_kernel_fast_vs_direct():
    rng = np.random.default_rng(10)
    g = make_grid(1, 128, 16.0)
    for _ in range(5):
        f = smooth_random_field(g, rng)
        a = defocusing_interaction_action(f)
        b = defocusing_interaction_action_direct(f)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_classical_kernel_real_field(q512):
    assert abs(defocusing_interaction_action(q512.field)) < 1e-12


def test_classical_kernel_rejects_2d():
    g = make_grid(2, 16, 8.0)
    with pytest.raises(ValueError):
        defocusing_interaction_action(Field(g, np.ones(g.shape)))


def test_classical_flux_cancellation_on_soliton(q_ref):
    # along e^{it}Q the classical action is constant, so the derivative
    # terms exactly balance the focusing L^8 term:
    #   int (rho')^2 + 4 int (rho |u'|^2 - p^2) = (4/3) int |u|^8
    from mcnls.grid import spectral_derivative

    f = q_ref.field
    g = f.grid
    wq = quad_weight(f)
    rho = np.abs(f.values) ** 2
    drho = spectral_derivative(Field(g, rho), 0).values.real
    du = spectral_derivative(f, 0).values
    p = momentum_density(f)[0]
    lhs = wq * np.sum(drho ** 2) + 4 * wq * np.sum(rho * np.abs(du) ** 2 - p ** 2)
    rhs = (4.0 / 3.0) * wq * np.sum(np.abs(f.values) ** 8)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # the would-be coercive combination vanishes: not positive definite
    assert lhs - rhs == pytest.approx(0.0, abs=1e-10 * rhs)


def test_classical_action_constant_along_soliton(q20):
    u = q20.field
    vals = [defocusing_interaction_action(u)]
    for _ in range(3):
        for _ in range(100):
            u = step_strang(u, 1e-4, -1)
        vals.append(defocusing_interaction_action(u))
    assert np.max(np.abs(np.asarray(vals))) < 5e-8


def test_weight_conditions_pass(weights):
    for d in (1, 2):
        w = weights(d, 8.0, 4.0)
        rep = weight_conditions_check(w, [(1.0, 0.0)])
        assert rep.all_ok
        assert rep.sup_a <= 2 * w.M * w.R
        if d == 2:
            assert rep.dt_l1 == 0.0  # constant envelope


def test_weight_conditions_dt_scaling(weights):
    env = [(0.7, 0.15)]
    r8 = weight_conditions_check(weights(2, 8.0, 4.0), env)
    r16 = weight_conditions_check(weights(2, 16.0, 8.0), env)
    assert r8.all_ok and r16.all_ok
    ratio = r16.dt_l1 / r8.dt_l1
    assert 32.0 <= ratio <= 128.0  # (MR)^3 scaling within a factor two


def test_weight_conditions_envelope_object(weights):
    from mcnls import PiecewiseEnvelope

    w = weights(2, 8.0, 4.0)
    env = PiecewiseEnvelope((0.0, 1.0, 3.0), (0, -1, -1), 2.0)
    rep = weight_conditions_check(w, env)
    assert rep.all_ok
    assert rep.dt_l1 > 0.0
    # |N'| (R/N)^3 peaks at the lower end of the segment from 1 down to 1/2
    assert rep.dt_l1 == weight_conditions_check(w, [(0.5, -0.5)]).dt_l1


@pytest.mark.parametrize("M", [4.0, 8.0, 16.0])
def test_dt_l1_moment_is_exact_on_the_spline(weights, M):
    # 4 int_0^{2M} rho^2 phi: Gauss-Legendre on each knot interval of the
    # cubic spline is exact for the quintic integrand
    from mcnls.morawetz import _phi2_spline

    sp = _phi2_spline(M)
    x, wt = np.polynomial.legendre.leggauss(8)
    mid, hw = 0.5 * (sp.x[1:] + sp.x[:-1]), 0.5 * np.diff(sp.x)
    rho = mid[:, None] + hw[:, None] * x
    oracle = 4.0 * float(np.sum(hw * np.sum(wt * rho ** 2 * sp(rho), axis=1)))
    R = M / 2.0
    rep = weight_conditions_check(weights(2, M, R), [(1.0, 1.0)])
    assert rep.dt_l1 / R ** 3 == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=100, deadline=None, database=None)
@given(M=st.sampled_from([4.0, 8.0, 16.0]), R=st.floats(0.5, 64.0), segs=st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=8))
@example(M=4.0, R=0.5, segs=[(28.0, 2.2250738585072014e-308)])
@example(M=4.0, R=1.0, segs=[(5.0, 2.2250738585e-313)])
@example(M=4.0, R=1.0, segs=[(10.0, 5e-324)])
def test_dt_l1_verdict_depends_on_M_alone(weights, M, R, segs):
    # value and threshold both scale with the worst |N'| / N^3 and with R^3; a
    # subnormal rate keeps only some digits of their ratio, and a rate that
    # underflows to 0 none, so both are rejected
    assume(any(slope != 0.0 for _, slope in segs))
    w = weights(2, M, R)
    vals, slopes = np.array(segs).T
    if np.max(np.abs(slopes) / vals ** 3) < np.finfo(float).tiny:
        with pytest.raises(ValueError, match="double precision cannot certify it"):
            weight_conditions_check(w, segs)
        return
    ref = weight_conditions_check(weights(2, M, M / 2.0), [(1.0, 1.0)])
    rep = weight_conditions_check(w, segs)
    assert rep.dt_l1 / rep.dt_l1_bound == pytest.approx(ref.dt_l1 / ref.dt_l1_bound, rel=1e-12)
    assert rep.dt_l1_ok == ref.dt_l1_ok


def test_freezing_diagnostic(weights):
    from mcnls.morawetz import freezing_diagnostic

    w = weights(1, 8.0, 4.0)
    g = make_grid(1, 512, 16.0)
    x = g.axis_x
    f = Field(g, np.exp(-x ** 2 / 4) * np.exp(1j * 4 * g.dk * x))
    windows = freezing_diagnostic(f, 1.0, w)
    assert windows
    for win in windows:
        assert win.residual_momentum <= 1e-10
        assert win.dispersive >= -1e-14
    # the dominant window recovers the boost frequency
    best = max(windows, key=lambda v: v.dispersive)
    assert best.xi[0] == pytest.approx(4 * g.dk, rel=0.05)


def _phi2_profile_points_ellipeinc(r_vals, M):
    """The 2D profile table with the arc length as incomplete elliptic integrals of the 2nd kind."""
    from scipy.special import ellipeinc

    from mcnls.morawetz import _GAUSS_W, _GAUSS_X, _theta_of_level

    r = np.asarray(r_vals, dtype=float)[:, None]
    levels = np.array([M - 1.0, M])
    cand = np.concatenate([np.zeros_like(r) + [0.0, M - 1.0, M], r,
                           levels - r, r - levels, r + levels], axis=1)
    edges = np.sort(np.clip(cand, 0.0, M), axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    hw = 0.5 * (edges[:, 1:] - edges[:, :-1])
    rho = mid[..., None] + hw[..., None] * _GAUSS_X
    rr = r[..., None]
    th1 = _theta_of_level(rr, rho, M - 1.0)
    th2 = _theta_of_level(rr, rho, M)
    s = rr + rho
    m = np.clip(np.where(s > 0, 4.0 * rr * rho / np.where(s > 0, s * s, 1.0), 0.0), 0.0, 1.0)
    arc = np.where(s > 0, 2.0 * s * (ellipeinc(np.pi / 2 - th1 / 2.0, m)
                                     - ellipeinc(np.pi / 2 - th2 / 2.0, m)), 0.0)
    vals = rho * np.clip(M - rho, 0.0, 1.0) * 2.0 * (th1 + M * (th2 - th1) - arc)
    return np.sum(hw * np.sum(_GAUSS_W * vals, axis=-1), axis=-1) / (np.pi * M * M)


@pytest.mark.parametrize("M", [4.0, 8.0, 9.5, 16.0])
def test_phi2_profile_vs_ellipeinc_oracle(weights, M):
    from scipy.interpolate import CubicSpline

    from mcnls.morawetz import _phi2_spline

    knots = _phi2_spline(M).x
    oracle = CubicSpline(knots, _phi2_profile_points_ellipeinc(knots, M),
                         bc_type=((1, 0.0), (1, 0.0)))
    w = weights(2, M, M / 2.0)
    r = np.linspace(0.0, 2.5 * M, 20001)
    inside = np.minimum(r, 2.0 * M)
    phi = np.where(r <= 2 * M, oracle(inside), 0.0)
    dphi = np.where(r <= 2 * M, oracle.derivative()(inside), 0.0)
    F = oracle.antiderivative()(inside)
    rel = lambda a, b: np.max(np.abs(a - b)) / np.max(np.abs(b))
    assert rel(w.phi(r), phi) <= 1e-14
    assert rel(w.F(r), F) <= 5e-14
    assert rel(w.dphi(r), dphi) <= 1e-10


@pytest.mark.parametrize("M", [4.0, 8.0])
def test_blocked_phi2_table_is_bit_equal_to_one_shot(M):
    from mcnls.morawetz import _PHI2_BLOCK, _phi2_profile_points, _phi2_spline
    from mcnls.piecewise import _clamped_spline

    sp = _phi2_spline(M)
    assert sp.x.size > _PHI2_BLOCK
    assert np.array_equal(sp.c, _clamped_spline(sp.x, _phi2_profile_points(sp.x, M)).c)


def test_2d_weight_build_working_memory_is_bounded():
    # tabulating every radius in one call peaked at 17.3 MiB
    import tracemalloc

    from mcnls.morawetz import _phi2_spline

    _phi2_spline.cache_clear()
    tracemalloc.start()
    try:
        build_weights(2, 8, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("M", [4.0, 8.0, 16.0])
def test_clamped_spline_matches_scipy_cubic_spline(M):
    from scipy.interpolate import CubicSpline

    from mcnls.morawetz import _phi2_profile_points, _phi2_spline
    from mcnls.piecewise import _clamped_spline

    x = _phi2_spline(M).x
    y = _phi2_profile_points(x, M)
    ours = _clamped_spline(x, y)
    ref = CubicSpline(x, y, bc_type=((1, 0.0), (1, 0.0)))
    v = np.linspace(0.0, 2.0 * M, 30001)
    for a, b in ((ours, ref), (ours.derivative(), ref.derivative()),
                 (ours.antiderivative(), ref.antiderivative())):
        assert np.max(np.abs(a(v) - b(v))) <= 1e-13 * np.max(np.abs(b(v)))


@pytest.mark.parametrize("M", [4.0, 8.0, 9.5])
def test_piecewise_poly_matches_scipy_ppoly(M):
    from scipy.interpolate import PPoly

    from mcnls.morawetz import _phi1_profile

    knots = [0.0, 1.0, 2.0 * M - 2.0, 2.0 * M - 1.0, 2.0 * M]
    d2phi = PPoly(np.array([[2.0, 0.0, 1.0, -1.0], [-2.0, 0.0, 0.0, 1.0]]) / (2.0 * M), knots)
    dphi = d2phi.antiderivative()
    phi = dphi.antiderivative()
    phi.c[-1] += (2.0 * M - 4.0 / 3.0) / (2.0 * M)
    ours = _phi1_profile(M)
    v = np.linspace(0.0, 2.0 * M, 20001)
    for a, b in zip(ours + (ours[0].antiderivative(),), (phi, dphi, d2phi, phi.antiderivative())):
        assert np.max(np.abs(a(v) - b(v))) <= 1e-15 * np.max(np.abs(b(v)))


@pytest.mark.parametrize("xi", [(-2, 0), (3, -1), (1, 2)])
def test_interaction_action_of_boosted_townes_soliton_vanishes(weights, xi):
    from mcnls import solve_petviashvili

    g = make_grid(2, 128, 16.0)
    w = weights(2, 8.0, 4.0)
    f = galilean_boost(solve_petviashvili(g).field, np.array(xi) * g.dk, 0.0)
    p1 = sum(quad_weight(f) * np.sum(np.abs(p)) for p in momentum_density(f))
    assert abs(interaction_action(f, 1.0, w)) <= 1e-15 * 2 * w.M * w.R * p1 * mass(f)


def test_flux_sample_makes_d_plus_2_grid_transforms(weights, monkeypatch):
    # the loop's spectrum gives grad u (d inverse transforms); only Lap rho
    # needs its own pair.  Counted: complex fftn/ifftn on n-grid arrays.
    from mcnls.morawetz import _flux_terms
    from mcnls.observables import _spectrum

    g = make_grid(2, 64, 16.0)
    u = smooth_random_field(g, np.random.default_rng(3))
    spec = _spectrum(u)
    w = weights(2, 8.0, 4.0)
    _flux_terms(g, u.values, spec, 1.0, 0.0, -1, w)  # kernel spectra cached
    calls = []
    for name in ("fftn", "ifftn"):
        orig = getattr(np.fft, name)

        def counted(a, *args, _orig=orig, **kwargs):
            if np.shape(a) == g.shape:
                calls.append(_orig.__name__)
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    rep, p = _flux_terms(g, u.values, spec, 1.0, 0.0, -1, w)
    assert len(calls) == g.d + 2
    monkeypatch.undo()
    assert rep == interaction_flux(u, 1.0, 0.0, -1, w)
    assert all(np.array_equal(a, b) for a, b in zip(p, momentum_density(u)))


def test_gauss_table_is_leggauss_bitwise():
    from mcnls.morawetz import _GAUSS_W, _GAUSS_X

    x, wt = np.polynomial.legendre.leggauss(16)
    assert _GAUSS_X.tobytes() == x.tobytes()
    assert _GAUSS_W.tobytes() == wt.tobytes()


def test_drift_kernels_built_only_for_a_nonzero_ntilde_prime(weights):
    from mcnls.morawetz import _drift_kernels, _flux_terms
    from mcnls.observables import _spectrum

    g = make_grid(1, 64, 16.0)
    u = smooth_random_field(g, np.random.default_rng(5))
    w = weights(1, 8.0, 4.0)
    _drift_kernels.cache_clear()
    rep, _ = _flux_terms(g, u.values, _spectrum(u), 1.0, 0.0, -1, w)
    assert rep.envelope_drift == 0.0
    assert _drift_kernels.cache_info().currsize == 0
    rep, _ = _flux_terms(g, u.values, _spectrum(u), 1.0, 0.5, -1, w)
    assert rep.envelope_drift != 0.0
    assert _drift_kernels.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# the quadrant kernel construction and the staged flux sample, against the
# full-offset construction and the interleaved flux they replaced
# ---------------------------------------------------------------------------

def _full_offset_spectrum(g, kern, odd):
    """Re K^ (Im K^ if odd) of a kernel sampled at every offset of the 2n circle."""
    from mcnls.grid import half_spectrum_weight

    kern = kern.copy()
    for axis in range(g.d):
        kern[(slice(None),) * axis + (g.n,)] = 0.0
    spec = np.fft.rfftn(kern)
    part = spec.imag if odd else spec.real
    return part * (half_spectrum_weight(2 * g.n) / (2 * g.n) ** g.d)


def _full_offset_kernels(g, Nt, w):
    """(action, G, K, drift, offsets) spectra, every offset sampled on the whole circle."""
    from mcnls.morawetz import _over_r

    d = g.d
    off = np.fft.fftfreq(2 * g.n, 1.0 / (2 * g.n)) * g.h
    zm = np.meshgrid(*([off] * d), indexing="ij")
    r = np.sqrt(sum(z * z for z in zm))
    s = r * Nt / w.R
    psir, phis = w.psi(s), w.phi(s)
    gap = phis - psir
    zhat = [_over_r(z, r, 0.0) for z in zm]
    even = lambda kern: _full_offset_spectrum(g, kern, odd=False)
    odd = lambda kern: _full_offset_spectrum(g, kern, odd=True)
    K = tuple(((j, k), even(Nt * (psir * (1.0 if j == k else 0.0) + gap * zhat[j] * zhat[k])))
              for j in range(d) for k in range(j, d))
    return (tuple(odd(psir * z * Nt) for z in zm), even(Nt * ((d - 1) * psir + phis)), K,
            tuple(odd(phis * z) for z in zm), zm)


def _pair(a_hat, kern_hat, b_hat):
    """Re sum conj(A^) K^ B^ with the complex product K^ B^ (even K)."""
    return float(np.vdot(a_hat, kern_hat * b_hat).real)


def _pair_odd(a_hat, kern_hat, b_hat):
    """The same for an odd K, whose imaginary spectrum kern_hat holds."""
    return -float(np.vdot(a_hat, kern_hat * b_hat).imag)


def _interleaved_flux_terms(g, u, spec, Nt, Ntp, mu, w):
    """The flux sample that paired rho^ and every p^_j in one pass, on full-offset kernels."""
    from mcnls.grid import apply_multiplier, k2_symbol, padded_rfft
    from mcnls.morawetz import MorawetzReport
    from mcnls.observables import _gradient, _momentum_density

    d = g.d
    w2 = (g.h ** d) ** 2
    action_k, G, K, drift, _ = _full_offset_kernels(g, Nt, w)
    rho = np.abs(u) ** 2
    rho_hat = padded_rfft(rho)
    du = _gradient(g, spec)
    p = _momentum_density(u, du)
    p_hat = [padded_rfft(pj) for pj in p]
    work = np.empty_like(rho_hat)
    t_disp = 0.0
    t_mom = 0.0
    for (j, k), K_jk in K:
        both = 1.0 if j == k else 2.0
        W_hat = padded_rfft(np.real(np.conj(du[j]) * du[k]), work)
        t_disp += both * 2.0 * w2 * _pair(W_hat, K_jk, rho_hat)
        t_mom += both * -2.0 * w2 * _pair(p_hat[j], K_jk, p_hat[k])
    G_rho = G * rho_hat
    nl_hat = padded_rfft(rho ** ((d + 2.0) / d), work)
    t_nl = (2.0 * mu / (d + 2.0)) * w2 * float(np.vdot(nl_hat, G_rho).real)
    lap_hat = padded_rfft(apply_multiplier(rho, -k2_symbol(g)).real, work)
    t_curv = -0.5 * w2 * float(np.vdot(lap_hat, G_rho).real)
    t_env = 0.0
    if Ntp != 0.0:
        t_env = Ntp * w2 * sum(_pair_odd(ph, kd, rho_hat) for ph, kd in zip(p_hat, drift))
    action = w2 * sum(_pair_odd(ph, a, rho_hat) for ph, a in zip(p_hat, action_k))
    flux = t_mom + t_disp + t_nl + t_curv + t_env
    return MorawetzReport(action, flux, t_mom, t_disp, t_nl, t_curv, t_env), p


def _chirped_field(g):
    """An off-centre Gaussian with a boost and a quadratic chirp."""
    xm = g.x_mesh()
    centre, k0 = (1.3, -0.7)[:g.d], (0.9, 1.6)[:g.d]
    r2 = sum((x - c) ** 2 for x, c in zip(xm, centre))
    phase = sum(k * x for k, x in zip(k0, xm)) + 0.15 * sum(x * x for x in xm)
    return Field(g, 0.8 * np.exp(-r2 / 2.0) * np.exp(1j * phase))


@pytest.mark.parametrize("d, n, L, M, R, Nt", [(1, 64, 12.0, 4.0, 2.0, 1.0),
                                               (1, 512, 16.0, 8.0, 4.0, 0.7),
                                               (2, 32, 10.0, 4.0, 3.0, 1.3),
                                               (2, 64, 16.0, 8.0, 4.0, 1.0),
                                               (2, 128, 16.0, 8.0, 4.0, 0.6)])
def test_quadrant_kernels_equal_the_full_offset_construction(weights, d, n, L, M, R, Nt):
    from mcnls.morawetz import _drift_kernels, _pairing_kernels

    g = make_grid(d, n, L)
    w = weights(d, M, R)
    action, G, K, drift, zm = _full_offset_kernels(g, Nt, w)
    kern = _pairing_kernels(g, Nt, w)
    assert len(kern.action) == len(action) == d
    assert all(np.array_equal(a, b) for a, b in zip(kern.action, action))
    assert np.array_equal(kern.G, G)
    assert [jk for jk, _ in kern.K] == [jk for jk, _ in K]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(kern.K, K))
    assert all(np.array_equal(a, b) for a, b in zip(_drift_kernels(g, Nt, w), drift))
    assert all(not a.flags.writeable for a in (*kern.action, kern.G, *(k for _, k in kern.K)))
    if d == 1:
        # the classical sign kernel, through the action that pairs it
        from mcnls.grid import padded_rfft

        f = _chirped_field(g)
        sign = _full_offset_spectrum(g, np.sign(zm[0]), odd=True)
        oracle = quad_weight(f) ** 2 * _pair_odd(padded_rfft(momentum_density(f)[0]), sign,
                                                 padded_rfft(np.abs(f.values) ** 2))
        assert defocusing_interaction_action(f) == oracle


@pytest.mark.parametrize("d, n, L", [(1, 256, 16.0), (2, 64, 16.0)])
@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("Ntp", [0.0, 0.3])
def test_staged_flux_sample_is_bit_identical_to_the_interleaved_one(weights, d, n, L, mu, Ntp):
    from mcnls.morawetz import _flux_terms
    from mcnls.observables import _spectrum

    g = make_grid(d, n, L)
    w = weights(d, 8.0, 4.0)
    f = _chirped_field(g)
    spec = _spectrum(f)
    oracle, p_oracle = _interleaved_flux_terms(g, f.values, spec, 1.0, Ntp, mu, w)
    assert oracle.envelope_drift != 0.0 or Ntp == 0.0
    for rho in (None, np.abs(f.values) ** 2):
        rep, p = _flux_terms(g, f.values, spec, 1.0, Ntp, mu, w, rho)
        assert rep == oracle
        assert len(p) == d and all(np.array_equal(a, b) for a, b in zip(p, p_oracle))


def _traced_peak_units(call, n):
    """Traced peak of call(), in (2n) x (n+1) complex spectra."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * 2 * n * (n + 1))


def test_kernel_build_working_memory_is_bounded(weights):
    # the full-offset construction peaked at 15.4 spectra: the kept 3, the
    # offset meshes and profiles on the whole circle, and two transforms each
    from mcnls.morawetz import _pairing_kernels

    g = make_grid(2, 64, 16.0)
    w = weights(2, 8.0, 4.0)
    _pairing_kernels.cache_clear()
    assert _traced_peak_units(lambda: _pairing_kernels(g, 1.0, w), g.n) <= 8.5


def test_flux_sample_working_memory_is_bounded(weights):
    # holding grad u, rho^ and every p^_j through all the pairings peaked at 9.2 spectra
    from mcnls.morawetz import _flux_terms
    from mcnls.observables import _spectrum

    g = make_grid(2, 64, 16.0)
    w = weights(2, 8.0, 4.0)
    u = smooth_random_field(g, np.random.default_rng(3))
    spec = _spectrum(u)
    _flux_terms(g, u.values, spec, 1.0, 0.0, -1, w)  # kernel spectra cached
    peak = _traced_peak_units(lambda: _flux_terms(g, u.values, spec, 1.0, 0.0, -1, w), g.n)
    assert peak <= 7.0


@pytest.mark.parametrize("segments, bad", [
    ([(1.0, 0.0), (0.5, np.nan)], 1),
    ([(-0.5, 2.0)], 0),
    ([(0.5, np.inf)], 0),
    ([(0.0, 1.0)], 0),
], ids=["slope-nan", "value-negative", "slope-inf", "value-zero"])
def test_weight_conditions_check_rejects_segments_it_cannot_certify(weights, segments, bad):
    # these gave dt_l1 0.0 (NaN never compares greater), inf <= inf, a pass on a
    # negative height and a ZeroDivisionError
    with pytest.raises(ValueError, match=f"envelope segment {bad} "):
        weight_conditions_check(weights(2, 8.0, 4.0), segments)


def test_weight_conditions_check_rejects_an_overflowing_envelope_slope(weights):
    from mcnls.envelope import parse_envelope_csv

    # the second node lies 5e-324 after the first: the slope overflows to -inf
    env = parse_envelope_csv("# J0=2.0\nt,N\n0,0\n5e-324,-1\n1,-1\n")
    with pytest.raises(ValueError, match="envelope segment 0 has value 0.5 and slope -inf"):
        weight_conditions_check(weights(2, 8.0, 4.0), env)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("M", [4.0, 8.0, 16.0, 32.0, 64.0])
def test_potential_conditions_follow_from_phi_bounded(weights, d, M):
    # sup_a / bound = F_total / (2M) <= max phi, and in 2D
    # dt_l1 / bound = I / ((32/3) M^3) <= max phi / 4, as int_0^{2M} rho^2 phi
    # <= (8/3) M^3 max phi: neither verdict can fail while phi_bounded passes
    w = weights(d, M, 4.0)
    phi_max = weight_family_checks(w)["phi_bounded"][0]
    rep = weight_conditions_check(w, [(1.0, 1.0)])
    assert rep.sup_a / rep.sup_a_bound <= phi_max
    if d == 2:
        assert 0.0 < rep.dt_l1 / rep.dt_l1_bound <= phi_max / 4.0


def test_weight_conditions_check_rejects_a_sup_that_overflows(weights):
    # 2 M R overflows, and the sup used to pass at inf against inf
    with pytest.raises(ValueError, match="potential_sup reads inf against inf"):
        weight_conditions_check(weights(1, 8.0, 1e308), [(1.0, 0.0)])


@pytest.mark.parametrize("segments, message", [
    ([(1.0, 0.0), (1e-110, 1.0)], "envelope segment 1 has |N'|/N^3 = inf"),
    ([(1e-102, 1.0)], "envelope segment 0 has |N'|/N^3 = 1.0000000000000003e+306, "
                      "so potential_dt_l1 reads inf against inf"),
    ([(1.0, 0.0), (5.0, 2.2250738585e-313)], "envelope segment 1 has |N'|/N^3 = 1.780059086e-315"),
    ([(1.0, 0.0), (10.0, 5e-324)], "envelope segment 1 has |N'|/N^3 = 0.0, "),
], ids=["rate-underflow", "value-overflow", "rate-subnormal", "rate-zero"])
def test_weight_conditions_check_rejects_a_rate_it_cannot_certify(weights, segments, message):
    # N^3 underflows to 0 (rate inf), rate R^3 I overflows past a finite rate, or
    # the rate is subnormal or underflows to 0, where the verdict's ratio loses digits
    with pytest.raises(ValueError, match=re.escape(message)):
        weight_conditions_check(weights(2, 8.0, 4.0), segments)


@pytest.mark.parametrize("d_field, d_family", [(2, 1), (1, 2)])
def test_pairings_reject_a_weight_family_of_another_dimension(weights, d_field, d_family):
    # each used to pair one dimension's correlation profile as the other's kernel
    g = make_grid(d_field, 64 if d_field == 2 else 256, 16.0)
    f = smooth_random_field(g, np.random.default_rng(5))
    w = weights(d_family, 8.0, 4.0)
    match = f"a {d_family}D weight family cannot be paired on a {d_field}D grid"
    with pytest.raises(ValueError, match=match):
        interaction_action(f, 1.0, w)
    for Ntilde_prime in (0.0, 0.5):
        with pytest.raises(ValueError, match=match):
            interaction_flux(f, 1.0, Ntilde_prime, -1, w)
