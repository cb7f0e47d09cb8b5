"""Interaction Morawetz weights, actions, analytic fluxes and certificates.

The weight family starts from a trapezoid mollifier varphi (1 on
|x| <= M-1, linear ramp to 0 at |x| = M).  Its normalized
self-correlation phi, the radial average psi(r) = (1/r) int_0^r phi,
and the inner cutoff chi generate every kernel used here:

    action kernel       a_j(z) = psi(|z| Ntilde / R) z_j Ntilde
    drift kernel        phi(|z| Ntilde / R) z_j
    divergence kernel   G(z)   = Ntilde [(d-1) psi + phi](|z| Ntilde / R)

The 1D evaluators integrate products of the piecewise-linear profiles
panel by panel with Simpson nodes, which is exact.  The 2D radial
correlation reduces to incomplete elliptic integrals and is tabulated
once per (M,) into a cubic spline.

A linear ramp rather than a smooth step is deliberate: a C^1 transition
of unit width forces int (varphi')^2 > 1 and with it sup|phi''| > 1/M,
while the ramp attains the bound exactly.

All double integrals with difference kernels run through zero-padded FFT
convolution; a direct O(n^{2d}) evaluation of the action is retained as
a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.signal import fftconvolve

from .grid import Field, laplacian, spectral_derivative
from .observables import energy, kinetic, mass, momentum_density, quad_weight


# ---------------------------------------------------------------------------
# trapezoid profiles and exact 1D correlation machinery
# ---------------------------------------------------------------------------

def _trapezoid(plateau: float, support: float) -> Callable:
    width = support - plateau
    def value(v):
        return np.clip((support - np.abs(np.asarray(v, dtype=float))) / width, 0.0, 1.0)
    return value


def _trapezoid_slope(plateau: float, support: float) -> Callable:
    width = support - plateau
    def slope(v):
        v = np.asarray(v, dtype=float)
        ramp = (np.abs(v) > plateau) & (np.abs(v) < support)
        return np.where(ramp, -np.sign(v) / width, 0.0)
    return slope


def _panel_edges(x: np.ndarray, knots_f: np.ndarray, knots_g: np.ndarray):
    """Sorted per-x s-panel edges for int f(s) g(x-s) ds, clipped to the overlap."""
    lo = np.maximum(knots_f[0], x - knots_g[-1])
    hi = np.minimum(knots_f[-1], x - knots_g[0])
    cand = np.concatenate(
        [np.broadcast_to(knots_f[:, None], (len(knots_f), x.size)),
         x[None, :] - knots_g[::-1][:, None]], axis=0)
    cand = np.clip(cand, lo[None, :], hi[None, :])
    cand.sort(axis=0)
    return cand


def _corr_generic(x, fa, ga, kind: str, knots_f, knots_g):
    """Panelwise Simpson for int f(s) g(x-s) ds; exact for the trapezoid pieces.

    kind selects which factors are slopes (piecewise constant, evaluated
    at the panel midpoint so the interior piece is used): "vv", "sv", "ss".
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = np.atleast_1d(x).reshape(-1)
    edges = _panel_edges(x, knots_f, knots_g)
    total = np.zeros_like(x)
    for i in range(edges.shape[0] - 1):
        a, b = edges[i], edges[i + 1]
        wdt = b - a
        m = 0.5 * (a + b)
        if kind == "vv":
            contrib = wdt / 6.0 * (
                fa(a) * ga(x - a) + 4.0 * fa(m) * ga(x - m) + fa(b) * ga(x - b))
        elif kind == "sv":
            contrib = fa(m) * wdt / 6.0 * (ga(x - a) + 4.0 * ga(x - m) + ga(x - b))
        else:
            contrib = fa(m) * ga(x - m) * wdt
        total += np.where(wdt > 0, contrib, 0.0)
    return total.reshape(shape) if shape else total[0]


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


def _panel_gauss(fn, edges) -> float:
    """Gauss-Legendre integral of fn over consecutive panel edges."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        m, hw = 0.5 * (a + b), 0.5 * (b - a)
        total += hw * float(np.sum(_GAUSS_W * fn(m + hw * _GAUSS_X)))
    return total


# ---------------------------------------------------------------------------
# 2D radial correlation via incomplete elliptic integrals
# ---------------------------------------------------------------------------

def _theta_of_level(r, rho, c):
    """Angle where sqrt(r^2 + rho^2 - 2 r rho cos th) crosses c (0 on [0,pi])."""
    r = np.asarray(r, dtype=float)
    num = r * r + rho * rho - c * c
    den = 2.0 * r * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
    th = np.arccos(np.clip(arg, -1.0, 1.0))
    th = np.where(c <= np.abs(r - rho), 0.0, th)
    th = np.where(c >= r + rho, np.pi, th)
    return th


def _arc_integral(r, rho, th1, th2):
    """int_{th1}^{th2} sqrt(r^2 + rho^2 - 2 r rho cos th) dth."""
    from scipy.special import ellipeinc

    r = np.asarray(r, dtype=float)
    s = r + rho
    m = np.where(s > 0, 4.0 * r * rho / np.where(s > 0, s * s, 1.0), 0.0)
    m = np.clip(m, 0.0, 1.0)
    val = 2.0 * s * (ellipeinc(np.pi / 2 - th1 / 2.0, m)
                     - ellipeinc(np.pi / 2 - th2 / 2.0, m))
    return np.where(s > 0, val, 0.0)


def _varphi_weight(rho, M):
    return np.clip(M - np.asarray(rho, dtype=float), 0.0, 1.0)


def _phi2_profile_points(r_vals: np.ndarray, M: float) -> np.ndarray:
    """phi(r) = (1/(pi M^2)) int varphi(|z - s|) varphi(|s|) ds at radii r (2D)."""
    out = np.empty_like(r_vals)
    norm = 1.0 / (np.pi * M * M)
    for idx, r in enumerate(r_vals):
        if r >= 2.0 * M:
            out[idx] = 0.0
            continue
        if r < 1e-12:
            fn0 = lambda rho: 2.0 * np.pi * rho * _varphi_weight(rho, M) ** 2
            edges0 = [0.0, M - 1.0, M]
            out[idx] = norm * _panel_gauss(fn0, edges0)
            continue
        cand = [0.0, M, M - 1.0, r, M - 1.0 - r, M - r, r - (M - 1.0), r - M,
                r + (M - 1.0), r + M]
        edges = sorted({float(np.clip(c, 0.0, M)) for c in cand})

        def fn(rho, _r=r):
            th1 = _theta_of_level(_r, rho, M - 1.0)
            th2 = _theta_of_level(_r, rho, M)
            arc = _arc_integral(_r, rho, th1, th2)
            theta_int = 2.0 * (th1 + M * (th2 - th1) - arc)
            return rho * _varphi_weight(rho, M) * theta_int

        out[idx] = norm * _panel_gauss(fn, edges)
    return out


_PROFILE_CACHE: dict = {}


def _phi2_spline(M: float):
    """Cubic-spline table of the 2D correlation profile on [0, 2M]."""
    from scipy.interpolate import CubicSpline

    key = round(float(M), 12)
    if key in _PROFILE_CACHE:
        return _PROFILE_CACHE[key]
    knots = [0.0, 1.0, 2.0, 2.0 * M - 3.0, 2.0 * M - 2.0, 2.0 * M - 1.0, 2.0 * M]
    knots = sorted({k for k in knots if 0.0 <= k <= 2.0 * M})
    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        npts = max(16, int(np.ceil((b - a) * 160)))
        pieces.append(np.linspace(a, b, npts, endpoint=False))
    r = np.concatenate(pieces + [np.array([2.0 * M])])
    vals = _phi2_profile_points(r, M)
    spl = CubicSpline(r, vals, bc_type=((1, 0.0), (1, 0.0)))
    _PROFILE_CACHE[key] = spl
    return spl


# ---------------------------------------------------------------------------
# weight family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFamily:
    """Morawetz profiles phi, psi, chi for one (d, M, R)."""

    d: int
    M: float
    R: float
    varphi: Callable
    chi: Callable
    phi: Callable
    dphi: Callable
    d2phi: Optional[Callable]
    F: Callable              # F(r) = int_0^r phi
    F_total: float
    phi0: float
    plateau_overlap: float   # normalized int chi^{2(d+2)/d} varphi

    def psi(self, r):
        """psi(r) = F(|r|)/|r| with the removable singularity psi(0) = phi(0)."""
        r = np.abs(np.asarray(r, dtype=float))
        safe = np.where(r > 1e-14, r, 1.0)
        return np.where(r > 1e-14, self.F(r) / safe, self.phi0)

    def dpsi(self, r):
        """psi'(r) = (phi(r) - psi(r))/r, zero at r = 0."""
        r = np.abs(np.asarray(r, dtype=float))
        safe = np.where(r > 1e-14, r, 1.0)
        return np.where(r > 1e-14, (self.phi(r) - self.psi(r)) / safe, 0.0)

    @property
    def kernel_sup_bound(self) -> float:
        """sup over z of |psi(|z| N/R) z_j N| is at most 2 M R."""
        return 2.0 * self.M * self.R


def build_weights(d: int, M: float, R: float) -> WeightFamily:
    """Construct the weight family; M >= 4 keeps the inner plateau positive."""
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if M < 4:
        raise ValueError("M must be at least 4")
    if not R > 0:
        raise ValueError("R must be positive")
    M = float(M)
    varphi = _trapezoid(M - 1.0, M)
    chi = _trapezoid(M - 2.0, M - 1.0)
    overlap_power = 2 * (d + 2) // d

    if d == 1:
        knots = np.array([-M, -(M - 1.0), M - 1.0, M])
        vslope = _trapezoid_slope(M - 1.0, M)
        norm = 1.0 / (2.0 * M)

        def phi(r):
            return norm * _corr_generic(np.abs(r), varphi, varphi, "vv", knots, knots)

        def dphi(r):
            return norm * _corr_generic(r, vslope, varphi, "sv", knots, knots)

        def d2phi(r):
            return norm * _corr_generic(r, vslope, vslope, "ss", knots, knots)

        fknots = np.array([0.0, 1.0, 2.0 * M - 2.0, 2.0 * M - 1.0, 2.0 * M])
        Fk = np.zeros(len(fknots))
        for i in range(1, len(fknots)):
            a, b = fknots[i - 1], fknots[i]
            m = 0.5 * (a + b)
            Fk[i] = Fk[i - 1] + (b - a) / 6.0 * float(
                phi(a) + 4.0 * phi(m) + phi(b))
        F_total = float(Fk[-1])

        def F(r):
            r = np.abs(np.asarray(r, dtype=float))
            rc = np.clip(r, 0.0, 2.0 * M)
            i = np.clip(np.searchsorted(fknots, rc, side="right") - 1, 0, len(fknots) - 2)
            a = fknots[i]
            m = 0.5 * (a + rc)
            seg = (rc - a) / 6.0 * (phi(a) + 4.0 * phi(m) + phi(rc))
            return Fk[i] + seg

        # normalized int chi^6 varphi over the line
        over_edges = [0.0, M - 2.0, M - 1.0]
        fn = lambda v: chi(v) ** overlap_power * varphi(v)
        plateau_overlap = 2.0 * norm * _panel_gauss(fn, over_edges)
        return WeightFamily(1, M, float(R), varphi, chi, phi, dphi, d2phi,
                            F, F_total, float(phi(0.0)), plateau_overlap)

    spl = _phi2_spline(M)
    antider = spl.antiderivative()
    F_total = float(antider(2.0 * M))
    dspl = spl.derivative()

    def phi(r):
        r = np.abs(np.asarray(r, dtype=float))
        return np.where(r <= 2.0 * M, spl(np.clip(r, 0.0, 2.0 * M)), 0.0)

    def dphi(r):
        r = np.abs(np.asarray(r, dtype=float))
        return np.where(r <= 2.0 * M, dspl(np.clip(r, 0.0, 2.0 * M)), 0.0)

    def F(r):
        r = np.abs(np.asarray(r, dtype=float))
        return np.where(r <= 2.0 * M, antider(np.clip(r, 0.0, 2.0 * M)), F_total)

    # normalized int chi^{2(d+2)/d} varphi over the plane (radial)
    fn = lambda rho: 2.0 * np.pi * rho * chi(rho) ** overlap_power * varphi(rho)
    plateau_overlap = _panel_gauss(fn, [0.0, M - 2.0, M - 1.0]) / (np.pi * M * M)
    return WeightFamily(2, M, float(R), varphi, chi, phi, dphi, None,
                        F, F_total, float(spl(0.0)), plateau_overlap)


# ---------------------------------------------------------------------------
# the centered (one-dimensional) profile with psi = 3/|x| tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenteredWeights:
    """Even profile with psi = 1 on [0,1] and 3/|x| beyond 2.

    The monotone kernel g(x) = x psi(x) interpolates with the cubic
    Hermite -3t^3 + 4t^2 + t + 1 (t = x - 1) on (1, 2), whose derivative
    -(9t+1)(t-1) is nonnegative, so (x psi)' = phi >= 0 holds.
    """

    kernel_sup: float = 3.0

    def _g(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        t = x - 1.0
        mid = -3.0 * t ** 3 + 4.0 * t ** 2 + t + 1.0
        return np.where(x <= 1.0, x, np.where(x >= 2.0, 3.0, mid))

    def psi(self, r):
        r = np.abs(np.asarray(r, dtype=float))
        safe = np.where(r > 1e-14, r, 1.0)
        return np.where(r > 1e-14, self._g(r) / safe, 1.0)

    def phi(self, r):
        """(x psi(x))' = g'(|x|); nonnegative."""
        r = np.abs(np.asarray(r, dtype=float))
        t = r - 1.0
        mid = -9.0 * t ** 2 + 8.0 * t + 1.0
        return np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, mid))


def build_centered_weights() -> CenteredWeights:
    return CenteredWeights()


def centered_action(f: Field, Ntilde: float, R: float, w) -> float:
    """1D action int psi(x N/R) x N Im[conj(f) f_x] dx."""
    if f.grid.d != 1:
        raise ValueError("the centered action is a one-dimensional construction")
    if not Ntilde > 0:
        raise ValueError("Ntilde must be positive")
    x = f.grid.x_mesh()[0]
    p = momentum_density(f)[0]
    kern = w.psi(np.abs(x) * Ntilde / R) * x * Ntilde
    return float(quad_weight(f) * np.sum(kern * p))


# ---------------------------------------------------------------------------
# interaction action and flux
# ---------------------------------------------------------------------------

def _diff_meshes(grid):
    n, h = grid.n, grid.h
    off = (np.arange(2 * n - 1) - (n - 1)) * h
    if grid.d == 1:
        return (off,)
    return tuple(np.meshgrid(off, off, indexing="ij"))


def _conv_same(a: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """C(x_i) = sum_j kern(x_i - x_j) a(x_j) via zero-padded FFT convolution."""
    return fftconvolve(a, kern, mode="same")


def _action_kernels(grid, Ntilde: float, w: WeightFamily):
    zm = _diff_meshes(grid)
    r = np.sqrt(sum(z * z for z in zm))
    psir = w.psi(r * Ntilde / w.R)
    return [psir * z * Ntilde for z in zm]


def interaction_action(f: Field, Ntilde: float, w: WeightFamily) -> float:
    """M(t) = int int psi(|x-y| N/R) (x-y)_j N p_j(x) rho(y) dx dy (FFT path)."""
    if not Ntilde > 0:
        raise ValueError("Ntilde must be positive")
    g = f.grid
    rho = np.abs(f.values) ** 2
    p = momentum_density(f)
    kerns = _action_kernels(g, Ntilde, w)
    w2 = quad_weight(f) ** 2
    return float(w2 * sum(np.sum(pj * _conv_same(rho, kj).real)
                          for pj, kj in zip(p, kerns)))


def interaction_action_direct(f: Field, Ntilde: float, w: WeightFamily) -> float:
    """O(n^{2d}) double-sum oracle for interaction_action (small grids only)."""
    g = f.grid
    if g.npoints > 20000:
        raise ValueError("direct double sum is meant for small grids")
    xm = [ax.reshape(-1) for ax in np.meshgrid(*([g.axis_x] * g.d), indexing="ij")]
    rho = (np.abs(f.values) ** 2).reshape(-1)
    p = [pj.reshape(-1) for pj in momentum_density(f)]
    w2 = quad_weight(f) ** 2
    total = 0.0
    for j in range(g.d):
        zj = xm[j][:, None] - xm[j][None, :]
        r = np.zeros_like(zj)
        for a in range(g.d):
            za = xm[a][:, None] - xm[a][None, :]
            r += za * za
        r = np.sqrt(r)
        kern = w.psi(r * Ntilde / w.R) * zj * Ntilde
        total += float(np.sum(kern * p[j][:, None] * rho[None, :]) * w2)
    return total


@dataclass(frozen=True)
class MorawetzReport:
    """Action, analytic flux and its exact decomposition."""

    action: float
    flux: float
    momentum: float        # pairing of the two momentum densities
    dispersive: float      # psi |grad u|^2 + (phi - psi) |radial grad|^2 part
    nonlinear: float       # signed potential part
    curvature: float       # divergence-kernel pairing with Lap rho (the R^-2 term)
    envelope_drift: float  # proportional to Ntilde'

    @property
    def coercive(self) -> float:
        return self.dispersive + self.nonlinear

    @property
    def tail(self) -> float:
        return self.momentum

    def csv_row(self, t: float) -> str:
        vals = [t, self.action, self.flux, self.coercive, self.tail,
                self.curvature, self.envelope_drift]
        return ",".join(f"{v:.17g}" for v in vals)


MORAWETZ_CSV_HEADER = "t,action,flux,coercive,tail,curvature,envelope_drift"


def interaction_flux(f: Field, Ntilde: float, Ntilde_prime: float, mu: int,
                     w: WeightFamily) -> MorawetzReport:
    """Analytic d/dt of the interaction action along the flow.

    Exact identity for solutions of i u_t + Delta u = mu |u|^{4/d} u:
    the five reported terms sum to the flux.
    """
    if not Ntilde > 0:
        raise ValueError("Ntilde must be positive")
    g = f.grid
    d = g.d
    w2 = quad_weight(f) ** 2
    rho = np.abs(f.values) ** 2
    p = momentum_density(f)
    du = [spectral_derivative(f, j).values for j in range(d)]
    nl = rho ** ((d + 2.0) / d)
    lap_rho = laplacian(Field(g, rho)).values.real

    zm = _diff_meshes(g)
    r = np.sqrt(sum(z * z for z in zm))
    s = r * Ntilde / w.R
    psir = w.psi(s)
    gap = w.phi(s) - psir          # s psi'(s), vanishes at the origin
    with np.errstate(invalid="ignore", divide="ignore"):
        zhat = [np.where(r > 1e-14, z / np.where(r > 1e-14, r, 1.0), 0.0) for z in zm]

    G = Ntilde * ((d - 1) * psir + w.phi(s))
    conv_rho_G = _conv_same(rho, G).real

    t_disp = 0.0
    t_mom = 0.0
    for j in range(d):
        for k in range(d):
            K_jk = Ntilde * (psir * (1.0 if j == k else 0.0) + gap * zhat[j] * zhat[k])
            Wjk = np.real(np.conj(du[j]) * du[k])
            t_disp += 2.0 * w2 * float(np.sum(Wjk * _conv_same(rho, K_jk).real))
            t_mom += -2.0 * w2 * float(np.sum(p[j] * _conv_same(p[k], K_jk).real))

    t_nl = (2.0 * mu / (d + 2.0)) * w2 * float(np.sum(nl * conv_rho_G))
    t_curv = -0.5 * w2 * float(np.sum(lap_rho * conv_rho_G))

    t_env = 0.0
    if Ntilde_prime != 0.0:
        phis = w.phi(s)
        for j in range(d):
            kern = phis * zm[j]
            t_env += Ntilde_prime * w2 * float(np.sum(p[j] * _conv_same(rho, kern).real))

    kerns = _action_kernels(g, Ntilde, w)
    action = float(w2 * sum(np.sum(pj * _conv_same(rho, kj).real)
                            for pj, kj in zip(p, kerns)))
    flux = t_mom + t_disp + t_nl + t_curv + t_env
    return MorawetzReport(action, flux, t_mom, t_disp, t_nl, t_curv, t_env)


def defocusing_gap(f: Field, q) -> float:
    """(1/2) int |grad f|^2 - d/(2(d+2)) int |f|^{2(d+2)/d}.

    Below the ground-state mass this is at least
    (1 - (||f||/||Q||)^{4/d}) times half the gradient term.
    """
    return energy(f, -1)


def defocusing_gap_lower_bound(f: Field, q) -> float:
    d = f.grid.d
    theta = (mass(f) / q.mass_sq) ** (2.0 / d)
    return (1.0 - theta) * 0.5 * kinetic(f)


def defocusing_interaction_action(f: Field) -> float:
    """Classical 1D kernel: int int sgn(x-y) p(x) rho(y) dx dy."""
    if f.grid.d != 1:
        raise ValueError("the classical kernel is one dimensional")
    g = f.grid
    rho = np.abs(f.values) ** 2
    p = momentum_density(f)[0]
    z = _diff_meshes(g)[0]
    kern = np.sign(z)
    return float(quad_weight(f) ** 2 * np.sum(p * _conv_same(rho, kern).real))


def defocusing_interaction_action_direct(f: Field) -> float:
    g = f.grid
    if g.npoints > 20000:
        raise ValueError("direct double sum is meant for small grids")
    x = g.axis_x
    rho = np.abs(f.values) ** 2
    p = momentum_density(f)[0]
    kern = np.sign(x[:, None] - x[None, :])
    return float(quad_weight(f) ** 2 * np.sum(kern * p[:, None] * rho[None, :]))


@dataclass(frozen=True)
class FreezingWindow:
    center: float
    xi: np.ndarray            # window-averaged frequency
    residual_momentum: float  # windowed momentum after the boost (should vanish)
    dispersive: float         # windowed kinetic term of the boosted field


def freezing_diagnostic(f: Field, Ntilde: float, w: WeightFamily,
                        n_centers: int = 17) -> list:
    """Window-by-window Galilean freezing of the momentum density.

    For each window center s on a coarse lattice, the frequency xi(s)
    that zeroes the windowed momentum is the varphi-weighted average
    p/rho; boosting by xi(s) leaves a nonnegative windowed dispersive
    term.  This is a diagnostic only: the action and flux are window
    free.
    """
    if not Ntilde > 0:
        raise ValueError("Ntilde must be positive")
    g = f.grid
    xm = g.x_mesh()
    wq = quad_weight(f)
    rho = np.abs(f.values) ** 2
    p = momentum_density(f)
    du = [spectral_derivative(f, j).values for j in range(g.d)]
    half_span = g.L * Ntilde / w.R + w.M
    centers = np.linspace(-half_span, half_span, n_centers)
    out = []
    for s in centers:
        win = w.varphi(np.sqrt(sum((x * Ntilde / w.R - s * (1 if j == 0 else 0)) ** 2
                                   for j, x in enumerate(xm))))
        wmass = wq * float(np.sum(win * rho))
        if wmass <= 1e-14:
            continue
        xi = np.array([wq * float(np.sum(win * pj)) / wmass for pj in p])
        # boosted momentum p - xi rho integrates to zero against the window
        resid = max(abs(wq * float(np.sum(win * (pj - xij * rho))))
                    for pj, xij in zip(p, xi))
        disp = wq * float(sum(np.sum(win * np.abs(duj - 1j * xij * f.values) ** 2)
                              for duj, xij in zip(du, xi)))
        out.append(FreezingWindow(float(s), xi, resid, disp))
    return out


def weight_family_checks(w: WeightFamily) -> dict:
    """Dense-sampling verification of the weight-family invariants.

    Returns {name: (value, bound, ok)}.  The profile bounds are checked
    on a fine radial grid; the psi identity is checked through the
    exposed evaluators.
    """
    M = w.M
    r = np.linspace(0.0, 3.0 * M, 30001)
    tol = 1e-10
    checks = {}
    phi_vals = w.phi(r)
    checks["phi_bounded"] = (float(np.max(np.abs(phi_vals))), 1.0, None)
    out = np.abs(w.phi(np.linspace(2.0 * M + 1e-9, 3.0 * M, 2001)))
    checks["phi_support"] = (float(out.max()), tol, None)
    kern = np.abs(w.psi(r) * r)
    checks["kernel_bound"] = (float(max(kern.max(), w.F_total)), 2.0 * M, None)
    rod = r[r > 0]
    ode = np.abs(rod * w.dpsi(rod) - (w.phi(rod) - w.psi(rod)))
    checks["psi_ode"] = (float(ode.max()), tol, None)
    if w.d == 1:
        checks["dphi_bound"] = (float(np.max(np.abs(w.dphi(r)))), 1.0 / M, None)
        checks["d2phi_bound"] = (float(np.max(np.abs(w.d2phi(r)))), 1.0 / M, None)
        checks["plateau_overlap"] = (w.plateau_overlap, (M - 2.0) / M, None)
    else:
        decay = w.psi(rod) * rod / (2.0 * M)
        checks["psi_decay"] = (float(decay.max()), 1.0, None)
        mono = float(np.max(np.diff(phi_vals)))
        checks["phi_monotone"] = (mono, tol, None)
        checks["plateau_overlap"] = (w.plateau_overlap, ((M - 2.0) / M) ** w.d, None)
    final = {}
    for name, (value, bound, _) in checks.items():
        if name.startswith("plateau"):
            ok = value >= bound - 1e-12
        else:
            ok = value <= bound + 1e-10
        final[name] = (value, bound, ok)
    return final


# ---------------------------------------------------------------------------
# weight conditions for the Fourier-truncation potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightConditionsReport:
    sup_a: float
    sup_a_bound: float
    sup_a_ok: bool
    sup_xgrad: float
    sup_xgrad_bound: float
    sup_xgrad_ok: bool
    odd_residual: float
    odd_ok: bool
    dt_l1: Optional[float]
    dt_l1_bound: Optional[float]
    dt_l1_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.sup_a_ok and self.sup_xgrad_ok and self.odd_ok and self.dt_l1_ok


def _envelope_segments(env):
    """(value, slope) per linear segment of an envelope-like object."""
    if hasattr(env, "times") and hasattr(env, "heights"):
        t = np.asarray(env.times, dtype=float)
        h = np.asarray(env.heights, dtype=float)
        segs = []
        for i in range(len(t) - 1):
            dt = t[i + 1] - t[i]
            segs.append((0.5 * (h[i] + h[i + 1]), (h[i + 1] - h[i]) / dt))
        return segs
    return [(float(v), float(s)) for v, s in env]


def weight_conditions_check(w: WeightFamily, Ntilde_series,
                            odd_kernel: Optional[Callable] = None) -> WeightConditionsReport:
    """Certify boundedness, decay, oddness and (d=2) L^1 time-derivative
    of the truncation potential a_j(t,x) = psi(|x| Ntilde/R) x_j Ntilde.

    The scale-free profile s -> psi(s) s makes the first three checks
    independent of Ntilde; the time-derivative check runs per envelope
    segment.  `odd_kernel` substitutes a different radial kernel for the
    oddness check (negative-control hook).
    """
    M, R = w.M, w.R
    s = np.linspace(0.0, 4.0 * M, 20001)
    a_prof = w.psi(s) * s                      # |a| = R * a_prof at s = |x| N / R
    sup_a = float(max(a_prof.max(), w.F_total)) * R
    sup_a_bound = 2.0 * M * R

    grow = s * (w.psi(s) + np.abs(w.phi(s) - w.psi(s)))
    sup_xgrad = float(max(grow.max(), 2.0 * w.F_total)) * R
    sup_xgrad_bound = 4.0 * M * R

    kern = odd_kernel if odd_kernel is not None else (lambda x: w.psi(np.abs(x)) * x)
    xs = np.linspace(0.01, 3.0 * M, 500)
    odd_res = float(np.max(np.abs(kern(xs) + kern(-xs))))

    dt_l1 = None
    dt_l1_bound = None
    dt_l1_ok = True
    if w.d == 2:
        # ||phi(|x| N/R) x_j N'||_{L^1(R^2)} = |N'| (R/N)^3 int phi(|w|) |w_1| dw
        fn = lambda rho: rho * rho * w.phi(rho) * 4.0  # angular int of |cos| is 4
        I_phi = _panel_gauss(fn, list(np.linspace(0.0, 2.0 * M, 64)))
        worst = 0.0
        bound = 0.0
        for val, slope in _envelope_segments(Ntilde_series):
            cur = abs(slope) * (R / val) ** 3 * I_phi
            curb = (32.0 / 3.0) * (M * R) ** 3 * abs(slope) / val ** 3
            if cur > worst:
                worst, bound = cur, curb
        dt_l1 = worst
        dt_l1_bound = bound if bound > 0 else (32.0 / 3.0) * (M * R) ** 3
        dt_l1_ok = dt_l1 <= dt_l1_bound * (1.0 + 1e-9) + 1e-30

    return WeightConditionsReport(
        sup_a=sup_a, sup_a_bound=sup_a_bound,
        sup_a_ok=sup_a <= sup_a_bound * (1.0 + 1e-12),
        sup_xgrad=sup_xgrad, sup_xgrad_bound=sup_xgrad_bound,
        sup_xgrad_ok=sup_xgrad <= sup_xgrad_bound * (1.0 + 1e-12),
        odd_residual=odd_res, odd_ok=odd_res <= 1e-10,
        dt_l1=dt_l1, dt_l1_bound=dt_l1_bound, dt_l1_ok=dt_l1_ok,
    )
