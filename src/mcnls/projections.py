"""Littlewood-Paley smooth frequency truncations and the nonlinearity commutator.

The multiplier profile is 1 on [0, 1], 0 on [2, inf) and glues the two
plateaus with the C^1 smooth step exp(1 - 1/(1 - (r-1)^2)) on (1, 2).
Projections act on the Fourier side as radial multipliers phi(|k|/N).
"""

from __future__ import annotations

import numpy as np

from .grid import Field, apply_multiplier, k2_symbol, lp_norm, resample


def _bump_raw(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r > 2.0] = 0.0
    mid = (r > 1.0) & (r <= 2.0)
    s = r[mid] - 1.0
    # exp(1 - 1/(1 - s^2)); at r = 2 the denominator is 0 and exp(-inf) = 0
    den = 1.0 - s * s
    with np.errstate(divide="ignore"):
        out[mid] = np.exp(1.0 - 1.0 / den)
    return out


def _bump_raw_derivative(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mid = (r > 1.0) & (r < 2.0)
    s = r[mid] - 1.0
    den = 1.0 - s * s  # > 0, since r < 2
    out[mid] = np.exp(1.0 - 1.0 / den) * (-2.0 * s / (den * den))
    return out


class BumpProfile:
    """Radial multiplier profile: 1 on [0,1], smooth decrease on (1,2), 0 beyond."""

    def __call__(self, r) -> np.ndarray:
        return _bump_raw(np.abs(np.asarray(r, dtype=float)))

    def derivative(self, r) -> np.ndarray:
        return _bump_raw_derivative(np.abs(np.asarray(r, dtype=float)))


BUMP = BumpProfile()


def low_multiplier(f_or_grid, N: float) -> np.ndarray:
    grid = getattr(f_or_grid, "grid", f_or_grid)
    if not N > 0:
        raise ValueError(f"frequency scale N must be positive, got {N}")
    kabs = np.sqrt(k2_symbol(grid))
    return BUMP(kabs / N)


def project_low(f: Field, N: float) -> Field:
    """P_{<=N}: multiply modes by phi(|k|/N)."""
    return Field(f.grid, apply_multiplier(f.values, low_multiplier(f, N)))


def project_high(f: Field, N: float) -> Field:
    """P_{>N} = Id - P_{<=N}."""
    return Field(f.grid, apply_multiplier(f.values, 1.0 - low_multiplier(f, N)))


def project_band(f: Field, N: float) -> Field:
    """P_N = P_{<=2N} - P_{<=N}."""
    mult = low_multiplier(f, 2.0 * N) - low_multiplier(f, N)
    return Field(f.grid, apply_multiplier(f.values, mult))


def nonlinearity(f: Field, mu: int) -> Field:
    """F(u) = mu |u|^{4/d} u, dealiased.

    The product is formed on a grid zero-padded by a factor of two and
    truncated back, which bounds the aliasing error of the quintic (d=1) /
    cubic (d=2) product.
    """
    g = f.grid
    power = 4 // g.d  # 4 for d=1, 2 for d=2; always an integer here
    ubig = resample(f.values, 2 * g.n)
    return Field(g, resample(mu * np.abs(ubig) ** power * ubig, g.n))


def commutator_error(f: Field, N: float, mu: int) -> float:
    """|| P_{<=N} F(f) - F(P_{<=N} f) ||_{L^2} with dealiased F."""
    if not N > 0:
        raise ValueError(f"frequency scale N must be positive, got {N}")
    a = project_low(nonlinearity(f, mu), N)
    b = nonlinearity(project_low(f, N), mu)
    return lp_norm(Field(f.grid, a.values - b.values), 2)
