"""Physical observables of a field: mass, energy, momentum, variance.

Conventions for i u_t + Delta u = mu |u|^{4/d} u:
    mass      M = integral |u|^2
    energy    E = 1/2 integral |grad u|^2 + mu d/(2(d+2)) integral |u|^{2(d+2)/d}
    momentum  P_j = Im integral conj(u) d_j u
    variance  V = integral |x|^2 |u|^2

Each public function wraps a private helper on the grid plus |u|^2 or
|fftn(u)|^2, so a caller holding those reuses them; the concentration
estimates of a diagnostics sample (`_estimates_from_spec`) are such a
helper too.
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


def _weighted_median(coords: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        return float(coords[len(coords) // 2])
    c = np.cumsum(weights)
    idx = int(np.searchsorted(c, 0.5 * total))
    return float(coords[min(idx, len(coords) - 1)])


def _estimates_from_spec(g, dens, sdens, eta, n_start=None):
    """(N_est, xi_est, x_est) from |u|^2 and |fftn u|^2.

    N_est is the smallest dyadic N in [2^jlo, 2^jhi] whose ball around
    xi_est leaves less than eta of the spectral mass outside (2^jhi if
    none does).  The mass outside is nonincreasing in N, so the search
    starts at the dyadic n_start (the previous sample's N_est; 2^jlo if
    None) and steps down or up from there.
    """
    d = g.d
    # spatial center: mass-weighted median per axis
    x_est = np.empty(d)
    for j in range(d):
        other = tuple(a for a in range(d) if a != j)
        marg = dens.sum(axis=other) if other else dens
        x_est[j] = _weighted_median(g.axis_x, marg)
    # frequency center: spectral mass-weighted median per axis
    korder = np.fft.fftshift(g.axis_k)
    xi_est = np.empty(d)
    for j in range(d):
        other = tuple(a for a in range(d) if a != j)
        marg = sdens.sum(axis=other) if other else sdens
        xi_est[j] = _weighted_median(korder, np.fft.fftshift(marg))
    # concentration scale: smallest dyadic N capturing all but eta of the mass
    sq = [(g.axis_k - c) ** 2 for c in xi_est]
    dist2 = sq[0] if d == 1 else sq[0][:, None] + sq[1][None, :]
    wk = _spectral_weight(g)
    jlo = int(np.floor(np.log2(g.dk))) - 1
    jhi = int(np.ceil(np.log2(2.0 * np.pi * g.n / (2.0 * g.L) * (d + 1)))) + 1

    def captured(j):
        N = 2.0 ** j
        # the mass outside the ball: scaled in place after the selection,
        # the same products as selecting from wk * sdens
        out = sdens[dist2 > N * N]
        out *= wk
        return float(out.sum()) < eta

    j = jlo if n_start is None else min(max(int(np.log2(n_start)), jlo), jhi)
    if captured(j):
        while j > jlo and captured(j - 1):
            j -= 1
    else:
        while j < jhi:
            j += 1
            if captured(j):
                break
    return 2.0 ** j, xi_est, x_est


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
