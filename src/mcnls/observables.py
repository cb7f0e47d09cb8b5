"""Physical observables of a field: mass, energy, momentum, variance.

Conventions for i u_t + Delta u = mu |u|^{4/d} u:
    mass      M = integral |u|^2
    energy    E = 1/2 integral |grad u|^2 + mu d/(2(d+2)) integral |u|^{2(d+2)/d}
    momentum  P_j = Im integral conj(u) d_j u
    variance  V = integral |x|^2 |u|^2

Each public function wraps a private helper on the grid plus |u|^2 or
|fftn(u)|^2, so a caller holding those reuses them.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, _derivative_axis, derivative_wavenumbers, k2_symbol, r2_mesh, transforms


def quad_weight(f: Field) -> float:
    return f.grid.h ** f.grid.d


def _mass(g, dens: np.ndarray) -> float:
    return float(g.h ** g.d * np.sum(dens))


def _spectral_weight(g) -> float:
    """Parseval weight: h^d sum conj(u) v = wk sum conj(fftn u) fftn v."""
    return (2.0 * g.L) ** (-g.d) * (g.h ** g.d) ** 2


def _kinetic(g, sdens: np.ndarray) -> float:
    return float(_spectral_weight(g) * np.sum(k2_symbol(g) * sdens))


def _potential(g, dens: np.ndarray) -> float:
    # |u|^{2(d+2)/d} = dens^{(d+2)/d} as integer powers
    sq = dens * dens
    return float(g.h ** g.d * np.sum(sq if g.d == 2 else sq * dens))


def _energy(d: int, kin: float, pot: float, mu: int) -> float:
    return 0.5 * kin + mu * d / (2.0 * (d + 2)) * pot


def _variance(g, dens: np.ndarray) -> float:
    return float(g.h ** g.d * np.sum(r2_mesh(g) * dens))


def _momentum(g, sdens: np.ndarray) -> np.ndarray:
    # Parseval: Im sum conj(u) ifftn(i k_j uhat) = sum k_j |uhat|^2 / n^d;
    # k_j broadcasts along axis j, bit-equal to the mesh of derivative_wavenumbers
    wk = _spectral_weight(g)
    ak = _derivative_axis(g)
    return np.array([wk * np.sum(ak.reshape((-1,) + (1,) * (g.d - 1 - j)) * sdens)
                     for j in range(g.d)])


def _spectrum(f: Field) -> np.ndarray:
    fwd, _ = transforms(f.grid.d)
    return fwd(f.values, out=np.empty_like(f.values))


def mass(f: Field) -> float:
    return _mass(f.grid, np.abs(f.values) ** 2)


def kinetic(f: Field) -> float:
    """integral |grad u|^2 (without the 1/2), evaluated spectrally; exact for band-limited u."""
    return _kinetic(f.grid, np.abs(_spectrum(f)) ** 2)


def potential(f: Field) -> float:
    """integral |u|^{2(d+2)/d}."""
    return _potential(f.grid, np.abs(f.values) ** 2)


def energy(f: Field, mu: int) -> float:
    return _energy(f.grid.d, kinetic(f), potential(f), mu)


def _gradient(g, spec: np.ndarray) -> list:
    """d_j u, one array per axis, from the raw spectrum: one inverse transform each."""
    _, inv = transforms(g.d)
    out = []
    for k in derivative_wavenumbers(g):
        # named operands: numpy reuses an unnamed temporary in place with the
        # operands swapped, and the complex product is not bitwise commutative
        mult = 1j * k
        du = mult * spec
        out.append(inv(du, out=du))
    return out


def _momentum_density(u: np.ndarray, du: list) -> list:
    # .imag of the product is a view that would keep the complex product alive;
    # each p_j is a copy that owns its memory
    ub = np.conj(u)
    return [(ub * duj).imag.copy() for duj in du]


def momentum_density(f: Field) -> list:
    """p_j = Im[conj(u) d_j u], one array per axis."""
    return _momentum_density(f.values, _gradient(f.grid, _spectrum(f)))


def momentum(f: Field) -> np.ndarray:
    return _momentum(f.grid, np.abs(_spectrum(f)) ** 2)


def variance(f: Field) -> float:
    return _variance(f.grid, np.abs(f.values) ** 2)


def variance_rate(f: Field) -> float:
    """d/dt of the variance along the flow: 4 integral x . p dx."""
    xm = f.grid.x_mesh()
    w = quad_weight(f)
    p = momentum_density(f)
    return float(4.0 * w * sum(np.sum(x * pj) for x, pj in zip(xm, p)))
