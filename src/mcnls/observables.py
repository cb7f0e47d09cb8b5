"""Physical observables of a field: mass, energy, momentum, variance.

Conventions for i u_t + Delta u = mu |u|^{4/d} u:
    mass      M = integral |u|^2
    energy    E = 1/2 integral |grad u|^2 + mu d/(2(d+2)) integral |u|^{2(d+2)/d}
    momentum  P_j = Im integral conj(u) d_j u
    variance  V = integral |x|^2 |u|^2

Each public function wraps a private helper on the grid plus |u|, |u|^2,
the samples or their raw spectrum fftn(u), so a caller holding those reuses them.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, derivative_wavenumbers, k2_symbol, r2_mesh


def quad_weight(f: Field) -> float:
    return f.grid.h ** f.grid.d


def _mass(g, dens: np.ndarray) -> float:
    return float(g.h ** g.d * np.sum(dens))


def _kinetic(g, sdens: np.ndarray) -> float:
    wk = (2.0 * g.L) ** (-g.d) * (g.h ** g.d) ** 2
    return float(wk * np.sum(k2_symbol(g) * sdens))


def _potential(g, amp: np.ndarray) -> float:
    q = 2.0 * (g.d + 2) / g.d
    return float(g.h ** g.d * np.sum(amp ** q))


def _energy(d: int, kin: float, pot: float, mu: int) -> float:
    return 0.5 * kin + mu * d / (2.0 * (d + 2)) * pot


def _variance(g, dens: np.ndarray) -> float:
    return float(g.h ** g.d * np.sum(r2_mesh(g) * dens))


def _momentum_density(g, values: np.ndarray, spec: np.ndarray) -> list:
    ub = np.conj(values)
    out = []
    for k in derivative_wavenumbers(g):
        # named operands: numpy reuses an unnamed temporary in place with the
        # operands swapped, and the complex product is not bitwise commutative
        mult = 1j * k
        du = np.fft.ifftn(mult * spec)
        out.append(np.imag(ub * du))
    return out


def _momentum(g, values: np.ndarray, spec: np.ndarray) -> np.ndarray:
    return np.array([g.h ** g.d * np.sum(p) for p in _momentum_density(g, values, spec)])


def mass(f: Field) -> float:
    return _mass(f.grid, np.abs(f.values) ** 2)


def kinetic(f: Field) -> float:
    """integral |grad u|^2 (without the 1/2), evaluated spectrally; exact for band-limited u."""
    return _kinetic(f.grid, np.abs(np.fft.fftn(f.values)) ** 2)


def potential(f: Field) -> float:
    """integral |u|^{2(d+2)/d}."""
    return _potential(f.grid, np.abs(f.values))


def energy(f: Field, mu: int) -> float:
    return _energy(f.grid.d, kinetic(f), potential(f), mu)


def momentum_density(f: Field) -> list:
    """p_j = Im[conj(u) d_j u], one array per axis."""
    return _momentum_density(f.grid, f.values, np.fft.fftn(f.values))


def momentum(f: Field) -> np.ndarray:
    return _momentum(f.grid, f.values, np.fft.fftn(f.values))


def variance(f: Field) -> float:
    return _variance(f.grid, np.abs(f.values) ** 2)


def variance_rate(f: Field) -> float:
    """d/dt of the variance along the flow: 4 integral x . p dx."""
    xm = f.grid.x_mesh()
    w = quad_weight(f)
    p = momentum_density(f)
    return float(4.0 * w * sum(np.sum(x * pj) for x, pj in zip(xm, p)))
