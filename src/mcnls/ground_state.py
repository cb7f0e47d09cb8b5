"""Ground state solitons Q of  Delta Q - Q + Q^{1+4/d} = 0.

d = 1 has the closed form 3^{1/4} sech^{1/2}(2x).  For d = 1 and d = 2
(Townes profile) a spectral renormalization fixed-point iteration
(Petviashvili; Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42 (2004))
computes Q on the grid.  Q is real, so the iteration runs on real-FFT
half spectra: three half-size transforms per iteration.  The converged
Q carries its radial profile, a clamped cubic spline.  The sharp
interpolation constant (d+2)/d * ||Q||_2^{-4/d} and two integral
identities obtained by multiplying the equation by Q and by x.grad Q
serve as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Field, GridSpec, apply_multiplier, half_spectrum_weight, k2_symbol, r2_mesh
from .observables import _mass, kinetic, mass, potential
from .piecewise import _clamped_spline


class PetviashviliError(RuntimeError):
    """Fixed-point iteration failed; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class GroundState:
    field: Field
    mass_sq: float
    gn_constant: float
    residual: float
    profile: Optional[Callable] = None  # radial profile Q(|x|), if known

    def __post_init__(self):
        v = self.field.values
        if np.max(np.abs(v.imag)) > 1e-12 or np.min(v.real) < -1e-12:
            raise ValueError("ground state samples must be real and nonnegative")


def _ode_residual(vals: np.ndarray, grid: GridSpec) -> float:
    p = 1 + 4 // grid.d
    lap = apply_multiplier(vals, -k2_symbol(grid))
    res = lap + vals ** p - vals
    return float(np.sqrt(_mass(grid, np.abs(res) ** 2)))


def _make_state(vals: np.ndarray, grid: GridSpec, profile=None) -> GroundState:
    f = Field(grid, vals)
    msq = mass(f)
    gn = (grid.d + 2) / grid.d * msq ** (-2.0 / grid.d)
    return GroundState(f, msq, gn, _ode_residual(vals.real, grid), profile)


def closed_form_profile_1d(r):
    """Q(x) = 3^{1/4} sech^{1/2}(2x)."""
    return 3.0 ** 0.25 / np.cosh(2.0 * np.asarray(r, dtype=float)) ** 0.5


def closed_form_1d(grid: GridSpec) -> GroundState:
    """Sample the 1D closed form on the grid."""
    if grid.d != 1:
        raise ValueError("closed form is one dimensional")
    if grid.L < 10:
        raise ValueError("need L >= 10 so the soliton tails fit the box")
    vals = closed_form_profile_1d(grid.axis_x)
    return _make_state(vals.astype(np.complex128), grid, profile=closed_form_profile_1d)


def _start(grid: GridSpec) -> np.ndarray:
    """The iteration's default start, a Gaussian narrower than Q."""
    return 1.5 * np.exp(-r2_mesh(grid) / 2.0)


def solve_petviashvili(
    grid: GridSpec,
    tol: float = 1e-12,
    max_iter: int = 500,
    initial: Optional[Field] = None,
) -> GroundState:
    """Spectral renormalization iteration for Q on the grid.

    Iterates Q <- gamma^theta (1 - Delta)^{-1} Q^p with the stabilizing
    exponent theta = p/(p-1) for homogeneity p = 1 + 4/d, until the
    successive-iterate L^2 difference falls below tol.  The stabilizing
    factor gamma = <(1 - Delta) Q, Q> / <Q^p, Q> is a Parseval sum over
    the real-FFT half spectra.  The ODE residual is evaluated once, on
    the iterate returned or reported in PetviashviliError.
    """
    if grid.d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if tol < 1e-15:
        raise ValueError("tol too small")
    p = 1 + 4 // grid.d
    theta = p / (p - 1.0)
    sym = 1.0 + k2_symbol(grid)[..., : grid.n // 2 + 1]
    weight = half_spectrum_weight(grid.n)
    sym_weight = sym * weight
    axes = tuple(range(grid.d))

    q = _start(grid) if initial is None else initial.values.real.copy()

    for _ in range(max_iter):
        qhat = np.fft.rfftn(q)
        qphat = np.fft.rfftn(q ** p)
        num = np.vdot(qhat, sym_weight * qhat).real
        den = np.vdot(qhat, weight * qphat).real
        if den <= 0 or not np.isfinite(den):
            raise PetviashviliError("iteration collapsed", _ode_residual(q, grid))
        q_new = np.fft.irfftn(qphat / sym, s=grid.shape, axes=axes) * (num / den) ** theta
        diff = np.sqrt(_mass(grid, (q_new - q) ** 2))
        q = q_new
        if np.sqrt(_mass(grid, q ** 2)) < 1e-10:
            raise PetviashviliError("iterate collapsed to zero", _ode_residual(q, grid))
        if diff < tol:
            q = np.abs(q)  # clip sub-roundoff negative tails
            return _make_state(q.astype(np.complex128), grid, profile=_radial_profile(q, grid))
    raise PetviashviliError(f"no convergence in {max_iter} iterations", _ode_residual(q, grid))


def _radial_profile(q: np.ndarray, grid: GridSpec):
    """Cubic-spline radial interpolant of a centered radial iterate.

    The spline has zero slope at both ends: Q'(0) = 0 is exact, and at
    r_max Q's own slope is about -Q(r_max), the size of its tail there.
    """
    peak = np.unravel_index(int(np.argmax(q)), q.shape)
    # the peak moved to index 0; the half row from it runs along the last axis
    row = np.roll(q, [-i for i in peak], axis=tuple(range(q.ndim))).ravel()[: grid.n // 2]
    r = grid.h * np.arange(row.size)
    spl = _clamped_spline(r, row)
    rmax = r[-1]
    return lambda s, _spl=spl, _m=rmax: np.where(
        np.abs(s) < _m, _spl(np.abs(np.asarray(s, dtype=float))), 0.0
    )


def pohozaev_check(q: GroundState) -> tuple:
    """Relative residuals of the two integral identities satisfied by Q.

    Multiplying the equation by Q gives      -K + P = m,
    multiplying by x.grad Q gives  (d-2)/2 K - d^2/(2d+4) P = -d/2 m,
    with K = int |grad Q|^2, P = int Q^{2+4/d}, m = int Q^2.
    """
    f = q.field
    d = f.grid.d
    K = kinetic(f)
    P = potential(f)
    m = mass(f)
    if m <= 0:
        raise ValueError("zero field")
    r1 = abs(-K + P - m) / m
    r2 = abs((d - 2) / 2.0 * K - d * d / (2.0 * d + 4.0) * P + d / 2.0 * m) / (d / 2.0 * m)
    return (r1, r2)


def gn_ratio(f: Field, q: GroundState) -> float:
    """LHS/RHS of the sharp interpolation inequality; <= 1 up to quadrature slack."""
    m = mass(f)
    if m <= 0:
        raise ValueError("zero field")
    d = f.grid.d
    lhs = potential(f)
    rhs = (d + 2) / d * (m / q.mass_sq) ** (2.0 / d) * kinetic(f)
    return lhs / rhs
