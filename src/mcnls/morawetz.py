"""Interaction Morawetz weights, actions, analytic fluxes and certificates.

The weight family starts from a trapezoid mollifier varphi (1 on
|x| <= M-1, linear ramp to 0 at |x| = M).  Its normalized
self-correlation phi and the radial average psi(r) = (1/r) int_0^r phi
generate every kernel used here:

    action kernel       a_j(z) = psi(|z| Ntilde / R) z_j Ntilde
    drift kernel        phi(|z| Ntilde / R) z_j
    divergence kernel   G(z)   = Ntilde [(d-1) psi + phi](|z| Ntilde / R)

In 1D phi is an exact piecewise cubic on the knots {0, 1, 2M-2, 2M-1, 2M}:
phi'' is (hat(r - (2M-1)) - 2 hat(r)) / (2M), and phi', phi and
F = int_0^r phi are its exact antiderivatives.  The 2D radial
correlation is a polar double integral: the angular part is closed form
up to an arc length, which a Gauss-Legendre rule integrates where the
integrand is analytic, and the radial part runs Gauss-Legendre panels.
It is tabulated once per M into a clamped cubic spline, `_PHI2_BLOCK`
radii at a time: bit-equal to one call over all radii, at about a tenth
of its memory.  Both are piecewise polynomials
(`piecewise._PiecewisePoly`), so the two dimensions share one
construction of phi, phi', F and psi.  The 2D moment
int_0^{2M} rho^2 phi of the dt_l1 certificate is exact too: it comes by
parts from the spline's antiderivatives.  The centered profile's x psi
is a piecewise cubic as well.

A linear ramp rather than a smooth step is deliberate: a C^1 transition
of unit width forces int (varphi')^2 > 1 and with it sup|phi''| > 1/M,
while the ramp attains the bound exactly.

Every double integral sum_x sum_y A(x) K(x - y) B(y) is one Fourier
pairing on the doubled grid: the offsets x - y of the n-grid fit a
circle of 2n points per axis without wraparound, so with A and B
zero-padded to 2n (`grid.padded_rfft`), Parseval gives
Re sum conj(A^) K^ B^ / (2n)^d.  Every kernel is even or odd in each
z_j, so it is sampled once, on the quadrant of offsets h {0..n-1}^d, and
unfolded by its parity onto the circle just before its transform; its
spectrum is real or imaginary and is kept as one real array.  For an odd
kernel the pairing is -Im sum conj(A^) (Im K^) B^, in which a momentum
density p = xi rho cancels mode by mode.  The kernel spectra are cached
per (grid, Ntilde, weights); the drift kernels, which only the Ntilde'
term reads, are built the first time that term is nonzero.  A flux
sample runs in three stages (the grad u pairs, the p^ pairs, the
divergence-kernel pairs) and drops each stage's arrays before the next;
one work spectrum takes each other transformed density, and one buffer
each kernel product.
Direct O(n^{2d}) evaluations of the actions are retained as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import (Field, _read_only, _times, apply_multiplier, half_spectrum_weight, k2_symbol,
                   padded_rfft)
from .observables import (_gradient, _momentum_density, _spectrum, energy, kinetic, mass,
                          momentum_density, quad_weight)
from .piecewise import _PiecewisePoly, _clamped_spline


# ---------------------------------------------------------------------------
# trapezoid profiles and the removable singularity at r = 0
# ---------------------------------------------------------------------------

def _trapezoid(plateau: float, support: float) -> Callable:
    width = support - plateau
    def value(v):
        return np.clip((support - np.abs(np.asarray(v, dtype=float))) / width, 0.0, 1.0)
    return value


def _over_r(num, r, at0):
    """num / r for r > 1e-14, `at0` (the removable singularity's value) below."""
    return np.where(r > 1e-14, num / np.where(r > 1e-14, r, 1.0), at0)


# ---------------------------------------------------------------------------
# 2D radial correlation via incomplete elliptic integrals
# ---------------------------------------------------------------------------

# the 16-point Gauss-Legendre rule as exact literals, bit-equal to
# `np.polynomial.legendre.leggauss(16)`: no LAPACK call at import
_GAUSS_X = np.array([-0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
                     -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
                     -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
                     0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
                     0.755404408355003, 0.8656312023878318, 0.9445750230732326,
                     0.9894009349916499])
_GAUSS_W = np.array([0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
                     0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
                     0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
                     0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
                     0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
                     0.027152459411754176])


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
    """int_{th1}^{th2} sqrt(r^2 + rho^2 - 2 r rho cos th) dth; 0 where th2 <= th1.

    16-point Gauss-Legendre in th.  The caller's th1, th2 are the angles
    where the distance crosses M-1 and M, so on [th1, th2] the integrand
    lies in [M-1, M]: analytic and bounded away from zero.  One pass per
    node keeps the memory at a few arrays of the live entries.
    """
    r, rho, th1, th2 = np.broadcast_arrays(r, rho, th1, th2)
    out = np.zeros(th1.shape)
    live = th2 > th1
    mid = 0.5 * (th1[live] + th2[live])
    hw = 0.5 * (th2[live] - th1[live])
    r, rho = r[live], rho[live]
    sq, cross = r * r + rho * rho, 2.0 * r * rho
    acc = np.zeros_like(mid)
    for x, wt in zip(_GAUSS_X, _GAUSS_W):
        acc += wt * np.sqrt(sq - cross * np.cos(mid + hw * x))
    out[live] = hw * acc
    return out


def _phi2_profile_points(r_vals: np.ndarray, M: float) -> np.ndarray:
    """phi(r) = (1/(pi M^2)) int varphi(|z - s|) varphi(|s|) ds at radii r (2D).

    In polar coordinates s = rho e^{i theta} the angular integral is closed
    form up to one arc length (`_arc_integral`); the radial one runs
    Gauss-Legendre on the panels between the radii where a factor changes
    piece, for all radii at once, skipping the panels of zero width.
    """
    r = np.asarray(r_vals, dtype=float)[:, None]
    levels = np.array([M - 1.0, M])
    cand = np.concatenate([np.zeros_like(r) + [0.0, M - 1.0, M], r,
                           levels - r, r - levels, r + levels], axis=1)
    edges = np.sort(np.clip(cand, 0.0, M), axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    keep = hi > lo
    radius = np.nonzero(keep)[0]          # the radius index of each kept panel
    mid = 0.5 * (hi + lo)[keep][:, None]
    hw = 0.5 * (hi - lo)[keep]
    rho = mid + hw[:, None] * _GAUSS_X
    rr = r[radius]
    th1 = _theta_of_level(rr, rho, M - 1.0)
    th2 = _theta_of_level(rr, rho, M)
    theta_int = 2.0 * (th1 + M * (th2 - th1) - _arc_integral(rr, rho, th1, th2))
    vals = rho * _trapezoid(M - 1.0, M)(rho) * theta_int
    panels = hw * np.sum(_GAUSS_W * vals, axis=-1)
    return np.bincount(radius, panels, minlength=r.shape[0]) / (np.pi * M * M)


# radii per `_phi2_profile_points` call: each radius's panels are summed alone,
# so blocks give the one-shot values while bounding the panel temporaries
_PHI2_BLOCK = 192


@lru_cache(maxsize=16)
def _phi2_spline(M: float) -> _PiecewisePoly:
    """Clamped cubic-spline table of the 2D correlation profile on [0, 2M]."""
    knots = [0.0, 1.0, 2.0, 2.0 * M - 3.0, 2.0 * M - 2.0, 2.0 * M - 1.0, 2.0 * M]
    knots = sorted({k for k in knots if 0.0 <= k <= 2.0 * M})
    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        npts = max(16, int(np.ceil((b - a) * 160)))
        pieces.append(np.linspace(a, b, npts, endpoint=False))
    r = np.concatenate(pieces + [np.array([2.0 * M])])
    vals = [_phi2_profile_points(r[i:i + _PHI2_BLOCK], M) for i in range(0, r.size, _PHI2_BLOCK)]
    return _clamped_spline(r, np.concatenate(vals))


def _phi1_profile(M: float) -> tuple:
    """Exact 1D (phi, phi', phi'') as piecewise polynomials on [0, 2M].

    phi'' = (hat(r - (2M-1)) - 2 hat(r)) / (2M) is linear between the knots;
    phi'(0) = 0 and phi(0) = (2M - 4/3)/(2M) fix the antiderivatives.
    """
    knots = [0.0, 1.0, 2.0 * M - 2.0, 2.0 * M - 1.0, 2.0 * M]
    # rows: slope, value at the left knot
    d2phi = _PiecewisePoly(np.array([[2.0, 0.0, 1.0, -1.0], [-2.0, 0.0, 0.0, 1.0]]) / (2.0 * M),
                           knots)
    dphi = d2phi.antiderivative()
    phi = dphi.antiderivative()
    phi.c[-1] += (2.0 * M - 4.0 / 3.0) / (2.0 * M)
    return phi, dphi, d2phi


# ---------------------------------------------------------------------------
# weight family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFamily:
    """Morawetz profiles varphi, phi, psi for one (d, M, R), each a function of |r|."""

    d: int
    M: float
    R: float
    varphi: Callable
    phi: Callable
    dphi: Callable
    d2phi: Optional[Callable]
    F: Callable              # F(r) = int_0^r phi
    F_total: float
    phi0: float

    def psi(self, r):
        """psi(r) = F(|r|)/|r| with the removable singularity psi(0) = phi(0)."""
        r = np.abs(np.asarray(r, dtype=float))
        return _over_r(self.F(r), r, self.phi0)


def build_weights(d: int, M: float, R: float) -> WeightFamily:
    """Construct the weight family; M >= 4 keeps the inner plateau positive."""
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if M < 4:
        raise ValueError("M must be at least 4")
    if not R > 0:
        raise ValueError("R must be positive")
    M = float(M)
    if d == 1:
        phi_pp, dphi_pp, d2phi_pp = _phi1_profile(M)
    else:
        phi_pp = _phi2_spline(M)
        dphi_pp, d2phi_pp = phi_pp.derivative(), None
    F_pp = phi_pp.antiderivative()
    F_total = float(F_pp(2.0 * M))

    def radial(pp, outside):
        """Profile of |r|: the polynomial on [0, 2M], `outside` beyond."""
        def value(r):
            r = np.abs(np.asarray(r, dtype=float))
            return np.where(r <= 2.0 * M, pp(np.minimum(r, 2.0 * M)), outside)
        return value

    return WeightFamily(d, M, float(R), _trapezoid(M - 1.0, M), radial(phi_pp, 0.0),
                        radial(dphi_pp, 0.0),
                        None if d2phi_pp is None else radial(d2phi_pp, 0.0),
                        radial(F_pp, F_total), F_total, float(phi_pp(0.0)))


# ---------------------------------------------------------------------------
# the centered (one-dimensional) profile with psi = 3/|x| tails
# ---------------------------------------------------------------------------

class CenteredWeights:
    """Even profile with psi = 1 on [0,1] and 3/|x| beyond 2.

    The monotone kernel g(x) = x psi(x) is the piecewise cubic x on
    [0, 1], the Hermite -3t^3 + 4t^2 + t + 1 (t = x - 1) on [1, 2] and 3
    beyond.  The Hermite's derivative -(9t+1)(t-1) is nonnegative, so
    phi = (x psi)' = g' >= 0 holds.
    """

    # rows: the coefficients of t^3, t^2, t, 1 on [0, 1], [1, 2], [2, inf),
    # t = x minus the piece's left end
    g = _PiecewisePoly([[0.0, -3.0, 0.0], [0.0, 4.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 3.0]],
                       [0.0, 1.0, 2.0, 3.0])
    dg = g.derivative()

    def psi(self, r):
        r = np.abs(np.asarray(r, dtype=float))
        return _over_r(self.g(r), r, 1.0)

    def phi(self, r):
        """(x psi(x))' = g'(|x|); nonnegative."""
        return self.dg(np.abs(np.asarray(r, dtype=float)))


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

def _quadrant(grid) -> list:
    """Offsets h (0..n-1) per axis, z_j varying along axis j only.

    Every x_i - x_j of the n-grid is one of these up to a sign per axis.
    """
    off = np.arange(grid.n, dtype=float) * grid.h
    return [off.reshape((1,) * j + (-1,) + (1,) * (grid.d - 1 - j)) for j in range(grid.d)]


def _radii(grid, Ntilde: float, w: WeightFamily) -> tuple:
    """(`_quadrant`, |z|, |z| Ntilde / R): where every weight kernel is sampled.

    The family's profiles are those of its own dimension, so a family of
    another dimension than the grid's raises ValueError.
    """
    if w.d != grid.d:
        raise ValueError(f"a {w.d}D weight family cannot be paired on a {grid.d}D grid")
    z = _quadrant(grid)
    r = np.sqrt(sum(zj * zj for zj in z))
    return z, r, r * Ntilde / w.R


def _spectra(grid, kernels) -> tuple:
    """Re K^ (Im K^ if odd) of each (samples on `_quadrant`, odd axes), times the Parseval weight.

    Each kernel is even or odd in each z_j.  It is unfolded onto the 2n
    circle in one reused array: the offset -i h takes the sample at +i h,
    negated once per odd axis.  The offsets +i h and -i h give the same
    |z| bit for bit, so the circle holds what sampling it whole gives.  No
    x_i - x_j reaches the offset -n h, so that sample is 0; the kernel is
    then exactly even (odd) on the circle and its spectrum is real
    (imaginary).  The weight is `half_spectrum_weight` over (2n)^d.
    """
    n, d = grid.n, grid.d
    circle = np.empty((2 * n,) * d)
    spec = np.empty((2 * n,) * (d - 1) + (n + 1,), dtype=np.complex128)
    weight = half_spectrum_weight(2 * n) / (2 * n) ** d
    out = []
    for quad, odd_axes in kernels:
        circle[(slice(n),) * d] = quad
        for axis in range(d):
            at = lambda sl: (slice(None),) * axis + (sl,)
            circle[at(n)] = 0.0
            mirror, image = circle[at(slice(n - 1, 0, -1))], circle[at(slice(n + 1, None))]
            if axis in odd_axes:
                np.negative(mirror, out=image)
            else:
                image[...] = mirror
        np.fft.rfftn(circle, out=spec)
        part = spec.imag if len(odd_axes) % 2 else spec.real
        out.append(_read_only(part * weight))
    return tuple(out)


def _pair(outer_hat: np.ndarray, kern_hat: np.ndarray, inner_hat: np.ndarray,
          out: Optional[np.ndarray] = None) -> float:
    """sum_i outer(x_i) sum_j K(x_i - x_j) inner(x_j) for an even K, by Parseval on the 2n grid.

    The product K^ B^ goes into `out` if given (`_times`).
    """
    return float(np.vdot(outer_hat, _times(kern_hat, inner_hat, out)).real)


def _pair_odd(outer_hat: np.ndarray, kern_hat: np.ndarray, inner_hat: np.ndarray,
              out: Optional[np.ndarray] = None) -> float:
    """The same for an odd K: Re sum conj(A^) i Im(K^) B^ = -Im sum conj(A^) Im(K^) B^."""
    return -float(np.vdot(outer_hat, _times(kern_hat, inner_hat, out)).imag)


class _Kernels(NamedTuple):
    action: tuple   # a_j, one per axis (odd)
    G: np.ndarray   # divergence kernel (even)
    K: tuple        # ((j, k), K_jk) for j <= k; K is symmetric and even


@lru_cache(maxsize=16)
def _pairing_kernels(grid, Ntilde: float, w: WeightFamily) -> _Kernels:
    """Every kernel spectrum of the action and the flux but the drift; cached read-only."""
    d = grid.d
    z, r, s = _radii(grid, Ntilde, w)
    psir = w.psi(s)
    phis = w.phi(s)
    gap = phis - psir          # s psi'(s), vanishes at the origin
    zhat = [_over_r(zj, r, 0.0) for zj in z]
    pairs = [(j, k) for j in range(d) for k in range(j, d)]

    def sampled():
        for j in range(d):
            yield psir * z[j] * Ntilde, (j,)
        yield Ntilde * ((d - 1) * psir + phis), ()
        for j, k in pairs:
            # off the diagonal K_jk is odd in z_j and in z_k, so even
            yield (Ntilde * (psir * (1.0 if j == k else 0.0) + gap * zhat[j] * zhat[k]),
                   () if j == k else (j, k))

    spectra = _spectra(grid, sampled())
    return _Kernels(action=spectra[:d], G=spectra[d], K=tuple(zip(pairs, spectra[d + 1:])))


@lru_cache(maxsize=16)
def _drift_kernels(grid, Ntilde: float, w: WeightFamily) -> tuple:
    """Spectra of the odd drift kernels phi(|z| N/R) z_j, one per axis; cached read-only.

    Only the Ntilde' term of the flux reads them, so a flux at Ntilde' = 0
    never builds them.
    """
    z, _, s = _radii(grid, Ntilde, w)
    phis = w.phi(s)
    return _spectra(grid, ((phis * zj, (j,)) for j, zj in enumerate(z)))


def interaction_action(f: Field, Ntilde: float, w: WeightFamily) -> float:
    """M(t) = int int psi(|x-y| N/R) (x-y)_j N p_j(x) rho(y) dx dy (Fourier pairing):
    the action of `interaction_flux`, which does not depend on mu or Ntilde'."""
    return interaction_flux(f, Ntilde, 0.0, 1, w).action


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


class MorawetzReport(NamedTuple):
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


def interaction_flux(f: Field, Ntilde: float, Ntilde_prime: float, mu: int,
                     w: WeightFamily) -> MorawetzReport:
    """Analytic d/dt of the interaction action along the flow.

    Exact identity for solutions of i u_t + Delta u = mu |u|^{4/d} u:
    the five reported terms sum to the flux.
    """
    return _flux_terms(f.grid, f.values, _spectrum(f), Ntilde, Ntilde_prime, mu, w)[0]


def _flux_terms(g, u: np.ndarray, spec: np.ndarray, Ntilde: float, Ntilde_prime: float,
                mu: int, w: WeightFamily, rho: Optional[np.ndarray] = None) -> tuple:
    """(interaction_flux report, momentum density p) of samples u with raw spectrum spec.

    rho is |u|^2, computed here unless given.  The pairings run in three
    stages, each dropping what the later ones do not read: the dispersive
    pairs with grad u; the momentum, action and drift pairs with the p^_j;
    the divergence-kernel pairs.  One n-grid array takes each
    conj(d_j u) d_k u, one work spectrum each transformed density but rho^
    and p^_1, ..., p^_{d-1}, and one buffer each kernel product.
    """
    if not Ntilde > 0:
        raise ValueError("Ntilde must be positive")
    d = g.d
    w2 = (g.h ** d) ** 2
    kern = _pairing_kernels(g, float(Ntilde), w)
    if rho is None:
        rho = np.abs(u) ** 2
    rho_hat = padded_rfft(rho)
    work = np.empty_like(rho_hat)
    prod = np.empty_like(rho_hat)

    du = _gradient(g, spec)
    p = _momentum_density(u, du)
    t_disp = 0.0
    W = np.empty_like(du[0])
    for (j, k), K_jk in kern.K:
        both = 1.0 if j == k else 2.0   # K_jk = K_kj
        np.multiply(np.conj(du[j], out=W), du[k], out=W)
        W_hat = padded_rfft(W.real, work)
        t_disp += both * 2.0 * w2 * _pair(W_hat, K_jk, rho_hat, prod)
    del du, W

    p_hat = [padded_rfft(pj, work if j == 0 else None) for j, pj in enumerate(p)]
    t_mom = 0.0
    for (j, k), K_jk in kern.K:
        both = 1.0 if j == k else 2.0
        t_mom += both * -2.0 * w2 * _pair(p_hat[j], K_jk, p_hat[k], prod)
    action = w2 * sum(_pair_odd(ph, a, rho_hat, prod) for ph, a in zip(p_hat, kern.action))
    t_env = 0.0
    if Ntilde_prime != 0.0:
        drift = _drift_kernels(g, float(Ntilde), w)
        t_env = Ntilde_prime * w2 * sum(_pair_odd(ph, kd, rho_hat, prod)
                                        for ph, kd in zip(p_hat, drift))
    del p_hat

    G_rho = _times(kern.G, rho_hat, prod)
    nl_hat = padded_rfft(rho ** ((d + 2.0) / d), work)
    t_nl = (2.0 * mu / (d + 2.0)) * w2 * float(np.vdot(nl_hat, G_rho).real)
    lap_hat = padded_rfft(apply_multiplier(rho, -k2_symbol(g)).real, work)
    t_curv = -0.5 * w2 * float(np.vdot(lap_hat, G_rho).real)

    flux = t_mom + t_disp + t_nl + t_curv + t_env
    return MorawetzReport(action, flux, t_mom, t_disp, t_nl, t_curv, t_env), p


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
    kern, = _spectra(g, [(np.sign(_quadrant(g)[0]), (0,))])
    p_hat = padded_rfft(momentum_density(f)[0])
    rho_hat = padded_rfft(np.abs(f.values) ** 2)
    return quad_weight(f) ** 2 * _pair_odd(p_hat, kern, rho_hat)


def defocusing_interaction_action_direct(f: Field) -> float:
    g = f.grid
    if g.npoints > 20000:
        raise ValueError("direct double sum is meant for small grids")
    x = g.axis_x
    rho = np.abs(f.values) ** 2
    p = momentum_density(f)[0]
    kern = np.sign(x[:, None] - x[None, :])
    return float(quad_weight(f) ** 2 * np.sum(kern * p[:, None] * rho[None, :]))


class FreezingWindow(NamedTuple):
    center: float
    xi: np.ndarray            # window-averaged frequency
    residual_momentum: float  # windowed momentum after the boost (should vanish)
    dispersive: float         # windowed kinetic term of the boosted field


FREEZING_CENTERS = 17  # window centers of `freezing_diagnostic`


def freezing_diagnostic(f: Field, Ntilde: float, w: WeightFamily) -> list:
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
    du = _gradient(g, _spectrum(f))
    p = _momentum_density(f.values, du)
    half_span = g.L * Ntilde / w.R + w.M
    centers = np.linspace(-half_span, half_span, FREEZING_CENTERS)
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

    Returns {name: (value, bound, ok)}, ok = value <= bound.  The profile
    bounds are checked on a fine radial grid, each with 1e-10 of slack.
    The support ends at r = 2M, where the last polynomial piece ends, so
    phi and phi' must vanish there.  The bound on psi(r) r is
    `weight_conditions_check`'s.  Every value is an upper bound.
    """
    M = w.M
    r = np.linspace(0.0, 3.0 * M, 30001)
    tol = 1e-10
    upper = lambda value, bound: (value, bound, value <= bound)
    phi_vals = w.phi(r)
    checks = {
        "phi_bounded": upper(float(np.max(np.abs(phi_vals))), 1.0 + tol),
        "phi_support": upper(float(max(abs(w.phi(2.0 * M)), abs(w.dphi(2.0 * M)))), tol),
    }
    if w.d == 1:
        checks["dphi_bound"] = upper(float(np.max(np.abs(w.dphi(r)))), 1.0 / M + tol)
        checks["d2phi_bound"] = upper(float(np.max(np.abs(w.d2phi(r)))), 1.0 / M + tol)
    else:
        checks["phi_monotone"] = upper(float(np.max(np.diff(phi_vals))), tol)
    return checks


# ---------------------------------------------------------------------------
# weight conditions for the Fourier-truncation potential
# ---------------------------------------------------------------------------

class WeightConditionsReport(NamedTuple):
    sup_a: float
    sup_a_bound: float
    sup_a_ok: bool
    dt_l1: Optional[float]
    dt_l1_bound: Optional[float]
    dt_l1_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.sup_a_ok and self.dt_l1_ok


def _envelope_segments(env) -> tuple:
    """(values, slopes) of the linear segments of an envelope-like object.

    The value is the segment's lower height: |N'| / N^3 is largest there.
    A segment whose value is not finite and positive, or whose slope is not
    finite (an overflowing slope included), cannot be certified and raises
    ValueError.
    """
    if hasattr(env, "times") and hasattr(env, "heights"):
        t = np.asarray(env.times, dtype=float)
        h = np.asarray(env.heights, dtype=float)
        with np.errstate(over="ignore"):
            val, slope = np.minimum(h[:-1], h[1:]), np.diff(h) / np.diff(t)
    else:
        val, slope = np.array([(v, s) for v, s in env], dtype=float).reshape(-1, 2).T
    bad = ~((val > 0.0) & (val < np.inf) & np.isfinite(slope))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"envelope segment {i} has value {float(val[i])!r} and slope "
                         f"{float(slope[i])!r}; the value must be finite and positive and "
                         "the slope finite")
    return val, slope


def weight_conditions_check(w: WeightFamily, Ntilde_series) -> WeightConditionsReport:
    """Certify boundedness and (d=2) L^1 time-derivative of the
    truncation potential a_j(t,x) = psi(|x| Ntilde/R) x_j Ntilde.

    The scale-free profile s -> psi(s) s makes the sup bound independent
    of Ntilde; it bounds |x| |grad a| = R (F + |s phi - F|) too, by twice
    itself, as |phi| <= 1.  The time-derivative value and threshold both
    scale with the envelope's worst rate |N'| / N^3, so the verdict
    depends on M alone.  Each bound carries its rounding slack, and each
    verdict is value <= bound.  A sup or bound that is not finite, and a
    rate, value or threshold that is not finite or (when a slope is
    nonzero) is below the normal range, raise ValueError; the latter names
    the segment.  a_j is odd by construction (psi is radial); the parity that
    can break, the unfolding of sampled kernels in `_spectra`, is checked
    against the full circle in the tests.
    """
    M, R = w.M, w.R
    s = np.linspace(0.0, 4.0 * M, 20001)
    a_prof = w.psi(s) * s                      # |a| = R * a_prof at s = |x| N / R
    sup_a = float(max(a_prof.max(), w.F_total)) * R
    sup_a_bound = 2.0 * M * R * (1.0 + 1e-12)
    if not np.isfinite([sup_a, sup_a_bound]).all():
        raise ValueError(f"potential_sup reads {sup_a!r} against {sup_a_bound!r}; "
                         "double precision cannot certify it")

    dt_l1 = dt_l1_bound = None
    if w.d == 2:
        # ||phi(|x| N/R) x_j N'||_{L^1(R^2)} = |N'| (R/N)^3 I with
        # I = int phi(|w|) |w_1| dw = 4 int_0^{2M} rho^2 phi (the angular int of
        # |cos| is 4).  By parts on the antiderivatives F, G, H of the spline phi
        # that vanish at 0: I = 4 (b^2 F(b) - 2 b G(b) + 2 H(b)), b = 2M, exact.
        F = _phi2_spline(M).antiderivative()
        G = F.antiderivative()
        b = 2.0 * M
        I_phi = 4.0 * float(b * b * F(b) - 2.0 * b * G(b) + 2.0 * G.antiderivative()(b))
        val, slope = _envelope_segments(Ntilde_series)
        # in numpy scalars an overflow is inf, which the guard below rejects
        with np.errstate(all="ignore"):
            rates = np.abs(slope) / val ** 3
            rate = rates.max(initial=0.0)
            dt_l1 = rate * np.float64(R) ** 3 * I_phi
            dt_l1_bound = ((32.0 / 3.0) * np.float64(M * R) ** 3 * (rate if rate > 0 else 1.0)
                           * (1.0 + 1e-9))
        # below the normal range (0 included, for a rate that underflowed) their
        # ratio loses the digits the verdict rests on
        vals = np.array([rate, dt_l1, dt_l1_bound])
        if not np.isfinite(vals).all() or slope.any() and vals.min() < np.finfo(float).tiny:
            i = np.argmax(rates) if rate > 0 else np.argmax(slope != 0)
            raise ValueError(f"envelope segment {i} has |N'|/N^3 = "
                             f"{float(rate)!r}, so potential_dt_l1 reads {float(dt_l1)!r} "
                             f"against {float(dt_l1_bound)!r}; double precision cannot "
                             "certify it")
        dt_l1, dt_l1_bound = float(dt_l1), float(dt_l1_bound)

    return WeightConditionsReport(
        sup_a=sup_a, sup_a_bound=sup_a_bound, sup_a_ok=sup_a <= sup_a_bound,
        dt_l1=dt_l1, dt_l1_bound=dt_l1_bound, dt_l1_ok=dt_l1 is None or dt_l1 <= dt_l1_bound,
    )
