"""Symmetry group of the flow: scaling, translation, Galilean boost,
pseudoconformal sampling, plus a three-point PDE residual checker.

Shifts and boosts act spectrally (exact phase ramps), which restricts
boost frequencies to the lattice (pi/L)Z so the modulation stays
periodic.  Rescaling is exact for dyadic factors via zero padding /
subsampling of the trigonometric interpolant.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, GridSpec, _mass_fraction, apply_multiplier, k2_symbol, r2_mesh, resample
from .ground_state import GroundState
from .observables import _mass, _spectrum, mass


def _dyadic_log(lam: float) -> int:
    k = np.log2(lam)
    kr = round(k)
    if abs(k - kr) > 1e-12:
        raise ValueError(
            f"scale factor {lam} is not a power of two; only dyadic factors are "
            "exactly representable on the grid"
        )
    return int(kr)


def _zoom_out_once(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples of f(2x) on the same grid, treating f as zero outside the box.

    Sample j takes sample 2j - n/2, so the middle half [n/4, 3n/4) of
    each axis holds every other sample and no periodic image is wrapped
    to the edges.
    """
    n = grid.n
    out = np.zeros_like(vals)
    out[(slice(n // 4, 3 * n // 4),) * grid.d] = vals[(slice(None, None, 2),) * grid.d]
    return out


def rescale(f: Field, lam: float) -> Field:
    """lambda^{d/2} f(lambda x); mass preserving, dyadic lambda only.

    Guards: zooming out (lam > 1) stretches the spectrum, so significant
    spectral mass beyond k_max/lam aliases and is rejected; either
    direction requires the field to live in the central half box so no
    mass is wrapped or truncated.
    """
    if not lam > 0:
        raise ValueError("scale factor must be positive")
    k = _dyadic_log(lam)
    g = f.grid
    n, d, vals = g.n, g.d, f.values
    if k > 0:
        kcut = np.pi * n / (2.0 * g.L) / lam
        tail = _mass_fraction(np.abs(_spectrum(f)) ** 2, np.sqrt(k2_symbol(g)) > kcut)
        if tail > 1e-10:
            raise ValueError(
                f"rescale by {lam} would alias: fraction {tail:.2e} of the "
                f"spectrum lies beyond the shrunken Nyquist range"
            )
    # a zoom step loses or wraps the mass outside the central half box |x_j| < L/2
    outside = np.ones(g.shape, dtype=bool)
    outside[(slice(n // 4, 3 * n // 4),) * d] = False
    for _ in range(abs(k)):
        deficit = _mass_fraction(np.abs(vals) ** 2, outside)
        if deficit > 1e-10:
            raise ValueError(
                f"rescale by {lam} needs the field inside the central half "
                f"box; mass fraction {deficit:.2e} lies outside"
            )
        if k > 0:
            vals = _zoom_out_once(vals, g)
        else:  # f(x/2): the central n samples of the interpolant on the 2n grid
            vals = resample(vals, 2 * n)[(slice(n // 2, n // 2 + n),) * d]
    return Field(g, lam ** (d / 2.0) * vals)


def _as_lattice_xi(grid: GridSpec, xi0) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi0, dtype=float))
    if xi.size != grid.d:
        raise ValueError(f"boost frequency needs {grid.d} components")
    dk = grid.dk
    ratio = xi / dk
    if np.max(np.abs(ratio - np.round(ratio))) > 1e-9:
        nearest = np.round(ratio) * dk
        raise ValueError(
            f"boost frequency {xi.tolist()} is off the lattice (pi/L)Z; "
            f"nearest lattice point is {nearest.tolist()}"
        )
    return np.round(ratio) * dk


def translate(f: Field, shift) -> Field:
    """f(x - shift) via the spectral phase ramp; shift has d components (a
    bare number is one, in 1D only)."""
    g = f.grid
    sh = np.atleast_1d(np.asarray(shift, dtype=float))
    if sh.shape != (g.d,):
        raise ValueError(f"shift needs {g.d} components, got {sh.tolist()!r}")
    km = g.k_mesh()
    phase = np.exp(-1j * sum(k * s for k, s in zip(km, sh)))
    return Field(g, apply_multiplier(f.values, phase))


def galilean_boost(f: Field, xi0, t: float = 0.0) -> Field:
    """e^{-it|xi0|^2} e^{ix.xi0} f(x - 2 xi0 t), xi0 on the frequency lattice."""
    g = f.grid
    xi = _as_lattice_xi(g, xi0)
    out = f
    if t != 0.0:
        out = translate(out, 2.0 * xi * t)
    xm = g.x_mesh()
    phase = np.exp(1j * sum(x * c for x, c in zip(xm, xi)))
    vals = np.exp(-1j * t * float(np.dot(xi, xi))) * phase * out.values
    return Field(g, vals)


def pseudoconformal_sample(t: float, grid: GridSpec, q: GroundState) -> Field:
    """|t|^{-d/2} e^{i(|x|^2 - 4)/(4t)} Q(x/t): the threshold-mass blowup solution."""
    if t == 0.0:
        raise ValueError("the sample is singular at t = 0")
    if q.profile is None:
        raise ValueError("ground state carries no radial profile to resample")
    d = grid.d
    r2 = r2_mesh(grid)
    amp = np.abs(t) ** (-d / 2.0) * q.profile(np.sqrt(r2) / t)
    vals = amp * np.exp(1j * (r2 - 4.0) / (4.0 * t))
    return Field(grid, vals)


def equation_residual(f_minus: Field, f0: Field, f_plus: Field, dt: float, mu: int) -> float:
    """|| i (f+ - f-)/(2 dt) + Lap f0 - mu |f0|^{4/d} f0 ||_2 / ||f0||_2."""
    g = f0.grid
    p = 4 // g.d
    lap = apply_multiplier(f0.values, -k2_symbol(g))
    res = (
        1j * (f_plus.values - f_minus.values) / (2.0 * dt)
        + lap
        - mu * np.abs(f0.values) ** p * f0.values
    )
    return float(np.sqrt(_mass(g, np.abs(res) ** 2)) / np.sqrt(mass(f0)))
