import numpy as np
import pytest

from mcnls import build_weights, closed_form_1d, make_grid, solve_petviashvili
from mcnls.grid import Field


def smooth_random_field(grid, rng, nmodes=6, kmax_idx=5, width_frac=0.12,
                        normalize_mass=None):
    """Band-limited random field with a boundary-clean Gaussian envelope."""
    xm = grid.x_mesh()
    r2 = sum(x * x for x in xm)
    env = np.exp(-r2 / (2.0 * (width_frac * grid.L) ** 2))
    vals = np.zeros(grid.shape, dtype=complex)
    for _ in range(nmodes):
        k0 = rng.integers(-kmax_idx, kmax_idx + 1, size=grid.d) * grid.dk
        amp = rng.normal() + 1j * rng.normal()
        vals += amp * np.exp(1j * sum(x * kk for x, kk in zip(xm, k0)))
    vals = vals * env
    if normalize_mass is not None:
        cur = grid.h ** grid.d * np.sum(np.abs(vals) ** 2)
        vals = vals * np.sqrt(normalize_mass / cur)
    return Field(grid, vals)


def bump_pair(d):
    """Two fixed complex fields on the d-dim n = 256, L = 16 box: a wide one, band-limited
    within a quarter of the Nyquist range, and a narrow one inside the central quarter box."""
    g = make_grid(d, 256, 16.0)
    xm = g.x_mesh()

    def bump(a, c, k):
        r2 = sum((x - ci) ** 2 for x, ci in zip(xm, c))
        return np.exp(-a * r2 + 1j * sum(ki * x for ki, x in zip(k, xm)))

    c, k = [0.3, -0.2][:d], [0.5, -0.25][:d]
    wide = 0.8 * bump(0.5, c, k) + 0.3j * bump(0.7, [-0.5, 0.4][:d], [0.0, 0.0][:d])
    narrow = 1.1 * bump(2.0, c, k) - 0.2 * bump(3.0, [0.4, 0.1][:d], [1.0, 0.5][:d])
    return Field(g, wide), Field(g, narrow)


def digest(a):
    """First 16 hex digits of the SHA-256 of an array's bytes."""
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.fixture(scope="session")
def grid512():
    return make_grid(1, 512, 16.0)


@pytest.fixture(scope="session")
def q_ref():
    """High-accuracy 1D ground state (boundary images below 1e-10)."""
    return closed_form_1d(make_grid(1, 2048, 24.0))


@pytest.fixture(scope="session")
def q20():
    """1D ground state on the workhorse L = 20 grid."""
    return closed_form_1d(make_grid(1, 1024, 20.0))


@pytest.fixture(scope="session")
def q512(grid512):
    return closed_form_1d(grid512)


@pytest.fixture(scope="session")
def townes():
    return solve_petviashvili(make_grid(2, 512, 16.0))


_WEIGHTS = {}


@pytest.fixture(scope="session")
def weights():
    """Cached weight-family factory."""
    def get(d, M, R):
        key = (d, float(M), float(R))
        if key not in _WEIGHTS:
            _WEIGHTS[key] = build_weights(d, M, R)
        return _WEIGHTS[key]
    return get
