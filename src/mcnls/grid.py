"""Periodic spectral grid standing in for R^d (d = 1 or 2).

The box is [-L, L)^d sampled at n points per axis (n a power of two),
h = 2L/n.  Transforms are numpy's unnormalized FFTs of the raw samples:
h^d fftn(u) approximates the continuum transform integral of
u(x) exp(-i k.x) dx up to the phase (-1)^index per axis, so a Fourier-side
sum of |fftn(u)|^2 with weight (2L)^{-d} h^{2d} approximates the
(2pi)^{-d} integral in k.  All fields carry their grid.

This is the one spectral-operator layer: the complex transform pair
`transforms`, its split into row and column passes pruned to the 2/3
dealias box `boxed_transforms`, the half spectrum of real samples
zero-padded to the 2n grid `padded_rfft` (the padding rows are not
transformed), per-grid symbols cached read-only (|k|^2, Nyquist-zeroed
derivative wavenumbers, the 2/3 dealias mask, |x|^2, the boundary
annulus), the real-multiplier product `_times` and `apply_multiplier`,
the n <-> 2n resampling of the trigonometric interpolant `resample`, and
`_mass_fraction`, the share of a density in an index region (the
boundary annulus, a central box, a spectral tail).
The run outputs' file formats are here too: the MCNLS1 field snapshot
and the run tables' CSV (`write_csv`).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

SNAPSHOT_MAGIC = b"MCNLS1"
SNAPSHOT_VERSION = 1
# magic, version, dimension, points per axis, half-width L
_SNAPSHOT_HEADER = struct.Struct("<6sBBId")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the periodic box: dimension, points per axis, half-width."""

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or not _is_power_of_two(int(self.n)):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"half-width L must be positive, got {self.L}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "L", float(self.L))
        # h, dk, the largest |x|^2 and the largest |k|^2 must all be finite and positive
        L, kmax = self.L, np.pi * self.n / (2.0 * self.L)
        if not all(0.0 < v < np.inf for v in (self.h, self.dk, self.d * L * L, self.d * kmax * kmax)):
            raise ValueError(f"half-width L = {L!r} leaves h, dk, d L^2 or d (pi n / 2L)^2 "
                             f"not finite and positive at n = {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def npoints(self) -> int:
        return self.n ** self.d

    @property
    def axis_x(self) -> np.ndarray:
        """Physical coordinates along one axis: -L + i*h."""
        return -self.L + self.h * np.arange(self.n)

    @property
    def axis_k(self) -> np.ndarray:
        """Wavenumbers along one axis in FFT order, lattice (pi/L)*Z."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.h)

    @property
    def dk(self) -> float:
        return np.pi / self.L

    def _mesh(self, ax: np.ndarray) -> tuple:
        if self.d == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    def x_mesh(self) -> tuple:
        """Tuple of d coordinate arrays with shape (n,)*d."""
        return self._mesh(self.axis_x)

    def k_mesh(self) -> tuple:
        return self._mesh(self.axis_k)


def make_grid(d: int, n: int, L: float) -> GridSpec:
    """Build the periodic spectral grid for the box [-L, L)^d."""
    return GridSpec(d, n, L)


@dataclass(frozen=True)
class Field:
    """Complex samples u(x) on a GridSpec, row-major, shape (n,)*d."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field samples must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def transforms(d: int) -> tuple:
    """The complex transform pair (fwd, inv) over all d axes of a d-dim array.

    Every complex transform in the package goes through this pair, always
    with `out=` (numpy's allocating transform is about twice as slow on
    2D grids).  In 1D it is `fft`/`ifft`, bit-equal to `fftn`/`ifftn`
    without their per-call axis handling.  The Strang loop uses
    `boxed_transforms`, the same pair with the forward half split into a
    row pass and a column pass and, when dealiasing in 2D, the 1D passes
    outside the 2/3 box skipped.
    """
    if d == 1:
        return np.fft.fft, np.fft.ifft
    return np.fft.fftn, np.fft.ifftn


@lru_cache(maxsize=16)
def boxed_transforms(grid: GridSpec, dealias: bool) -> tuple:
    """The pair of `transforms` pruned to the 2/3 dealias box, its forward
    half split into passes: `(rows, cols, inv)`.

    A spectrum masked by `dealias_mask` is zero outside two blocks of
    kept indices per axis.  numpy's 2D transforms run the 1D transform
    along axis 1 and then along axis 0, line by line; the boxed pair
    keeps that order and skips the lines whose result is known or unused:

    - `rows(x, out)` is the forward transform along the last axis, the
      whole transform in 1D.  It runs on any block of rows.
    - `cols(x)` then finishes the forward transform in place along axis 0
      (nothing in 1D), on the kept columns only when dealiasing.  The
      other columns hold the axis-1 pass alone, for a caller that
      multiplies by the mask (or a masked kick) next.
    - `inv(x, out)` takes a masked spectrum.  It transforms along axis 1
      only the kept rows, sets the other rows to 0 (their transform) and
      then transforms along axis 0 in full.

    The kept entries are bit-equal to those of `transforms`.  In 1D, or
    without dealiasing, `inv` is the plain inverse and `cols` runs on
    every column.  Cached per grid.
    """
    fft, ifft = np.fft.fft, np.fft.ifft
    _, inv = transforms(grid.d)
    if grid.d == 1:
        return fft, lambda x: x, inv
    if not dealias:
        return fft, lambda x: fft(x, axis=0, out=x), inv
    keep, n = _dealias_axis(grid), grid.n
    lo, hi = int(keep[:n // 2].sum()), n - int(keep[n // 2:].sum())
    blocks, dropped = (slice(0, lo), slice(hi, n)), slice(lo, hi)

    def cols(x):
        for b in blocks:
            fft(x[:, b], axis=0, out=x[:, b])
        return x

    def inv(x, out):
        for b in blocks:
            ifft(x[b], axis=1, out=out[b])
        out[dropped] = 0.0
        return ifft(out, axis=0, out=out)

    return fft, cols, inv


def padded_rfft(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Half spectrum of real samples on an n-grid zero-padded to 2n per axis.

    Bit-equal to `np.fft.rfftn(a, s=(2n,)*d)`, which runs the real
    transform along the last axis and then the complex one along axis 0.
    In 2D the real pass runs on the n data rows straight into rows [:n] of
    `out`; the n padding rows transform to 0, so they are set to 0 and the
    axis-0 pass runs in place.  `out` has shape (2n,)*(d-1) + (n+1,) and
    may be reused between calls.
    """
    n, d = a.shape[0], a.ndim
    if out is None:
        out = np.empty((2 * n,) * (d - 1) + (n + 1,), dtype=np.complex128)
    if d == 1:
        return np.fft.rfft(a, n=2 * n, out=out)
    np.fft.rfft(a, n=2 * n, axis=1, out=out[:n])
    out[n:] = 0.0
    return np.fft.fft(out, axis=0, out=out)


def lp_norm(f: Field, p: float) -> float:
    """Rectangle-rule L^p norm, (h^d sum |f|^p)^{1/p}; p = inf gives max modulus."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = np.abs(f.values)
    if p == np.inf:
        return float(a.max())
    g = f.grid
    return float((g.h ** g.d * np.sum(a ** p)) ** (1.0 / p))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=16)
def k2_symbol(grid: GridSpec) -> np.ndarray:
    """|k|^2 on the frequency lattice, FFT order; cached read-only per grid."""
    return _read_only(sum(k * k for k in grid.k_mesh()))


@lru_cache(maxsize=16)
def derivative_wavenumbers(grid: GridSpec) -> tuple:
    """Per-axis k_j, unpaired Nyquist mode zeroed (d/dx_j is i k_j); cached read-only."""
    return tuple(_read_only(k) for k in grid._mesh(_derivative_axis(grid)))


@lru_cache(maxsize=16)
def _derivative_axis(grid: GridSpec) -> np.ndarray:
    """The wavenumbers of `derivative_wavenumbers` along one axis; cached read-only."""
    ak = grid.axis_k
    ak[grid.n // 2] = 0.0
    return _read_only(ak)


def _dealias_axis(grid: GridSpec) -> np.ndarray:
    """Per-axis 2/3 rule, FFT order: |k| <= (2/3) kmax."""
    kmax = np.pi * grid.n / (2.0 * grid.L)
    return np.abs(grid.axis_k) <= (2.0 / 3.0) * kmax


@lru_cache(maxsize=16)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule mask: 1 where every |k_j| <= (2/3) kmax, else 0; cached read-only."""
    keep = _dealias_axis(grid)
    if grid.d == 2:
        keep = keep[:, None] & keep[None, :]
    return _read_only(keep.astype(float))


@lru_cache(maxsize=16)
def r2_mesh(grid: GridSpec) -> np.ndarray:
    """|x|^2 on the physical grid; cached read-only."""
    return _read_only(sum(x * x for x in grid.x_mesh()))


@lru_cache(maxsize=16)
def outer_annulus(grid: GridSpec) -> np.ndarray:
    """Boolean mask of the boundary annulus, max_j |x_j| >= L (1 - BOUNDARY_ANNULUS)."""
    return _read_only(np.max(np.abs(grid.x_mesh()), axis=0) >= grid.L * (1.0 - BOUNDARY_ANNULUS))


def _times(kern_hat: np.ndarray, inner_hat: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """kern_hat * inner_hat for a real kern_hat, into `out` (a new array if None).

    The two parts of inner_hat are multiplied apart: a complex product
    would first cast all of kern_hat to complex, a full-size copy.  The
    result equals the complex product's, for finite values, up to the sign
    of its zeros.
    """
    if out is None:
        out = np.empty_like(inner_hat)
    np.multiply(kern_hat, inner_hat.real, out=out.real)
    np.multiply(kern_hat, inner_hat.imag, out=out.imag)
    return out


def apply_multiplier(values: np.ndarray, mult) -> np.ndarray:
    """Fourier multiplier on raw samples: ifftn(mult * fftn(values)).

    The samples are copied into one complex array, and both transforms and
    the product run in place there: numpy would cast real samples, and a
    complex product a real multiplier, to a full complex copy first.  A
    real multiplier goes through `_times`; a complex one keeps the operand
    order mult * spectrum.
    """
    fwd, inv = transforms(np.ndim(values))
    spec = np.empty(np.shape(values), dtype=np.complex128)
    np.copyto(spec, values)
    fwd(spec, out=spec)
    if np.isrealobj(mult):
        _times(mult, spec, spec)
    else:
        np.multiply(mult, spec, out=spec)
    return inv(spec, out=spec)


def half_spectrum_weight(n: int) -> np.ndarray:
    """Parseval weight along the halved axis of a real FFT of length n.

    2 on the modes stored once for a conjugate pair, 1 on the
    self-conjugate first and last, so sum conj(A) B over the full
    spectrum is sum weight conj(a) b over the half spectra.
    """
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    return weight


def resample(vals: np.ndarray, m: int) -> np.ndarray:
    """The trigonometric interpolant of the n-grid samples `vals`, sampled at
    m = 2n or m = n/2 points per axis of the same box.

    The smaller grid's FFT-ordered modes sit inside the larger grid's
    spectrum.  Refining inverts the zero-padded spectrum and then multiplies
    by 2^d; coarsening keeps the m-grid modes, divides by 2^d and then
    inverts.
    """
    n, d = vals.shape[0], vals.ndim
    if m not in (2 * n, n // 2):
        raise ValueError(f"resample goes from n = {n} to 2n or n/2 points per axis, not {m}")
    fwd, inv = transforms(d)
    spec = fwd(vals, out=np.empty(vals.shape, dtype=np.complex128))
    k = min(n, m) // 2
    modes = np.ix_(*(np.r_[0:k, -k:0],) * d)
    if m < n:
        small = spec[modes] / (2 ** d)
        return inv(small, out=small)
    big = np.zeros((m,) * d, dtype=np.complex128)
    big[modes] = spec
    del spec  # else it stays alive beside the two 2n-grid arrays
    return inv(big, out=big) * (2 ** d)


def spectral_derivative(f: Field, axis: int) -> Field:
    """Spectral partial derivative; the odd Nyquist mode is zeroed."""
    k = derivative_wavenumbers(f.grid)[axis]
    return Field(f.grid, apply_multiplier(f.values, 1j * k))


def laplacian(f: Field) -> Field:
    return Field(f.grid, apply_multiplier(f.values, -k2_symbol(f.grid)))


def boundary_mass_fraction(f: Field) -> float:
    """Fraction of the mass in the outermost `BOUNDARY_ANNULUS` of the box."""
    return density_boundary_fraction(f.grid, np.abs(f.values) ** 2)


def density_boundary_fraction(grid: GridSpec, dens: np.ndarray) -> float:
    """boundary_mass_fraction from a precomputed density |u|^2."""
    return _mass_fraction(dens, outer_annulus(grid))


def _mass_fraction(dens: np.ndarray, where) -> float:
    """Share of the total of a density (|u|^2 or |fftn u|^2) that lies in
    dens[where]; 0 for a zero density."""
    total = dens.sum()
    if total == 0.0:
        return 0.0
    return float(dens[where].sum() / total)


BOUNDARY_ANNULUS = 0.05  # the boundary is max_j |x_j| >= 0.95 L
BOUNDARY_MASS_WARN = 1e-8


def write_snapshot(f: Field, path) -> None:
    """Write the bit-exact MCNLS1 binary snapshot."""
    g = f.grid
    # a little-endian complex128 array is the interleaved (re, im) f64 payload;
    # it goes to the file through the buffer protocol, without a bytes copy
    payload = np.ascontiguousarray(f.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.d, g.n, g.L))
        fh.write(payload)


def _snapshot_grid(fh) -> GridSpec:
    """The grid in the header of the MCNLS1 snapshot open in fh, read before any
    payload byte; the file size is checked against it."""
    head = fh.read(_SNAPSHOT_HEADER.size)
    if len(head) < _SNAPSHOT_HEADER.size:
        raise ValueError("snapshot header truncated")
    magic, version, d, n, L = _SNAPSHOT_HEADER.unpack(head)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    grid = make_grid(d, n, L)
    expected = 16 * grid.npoints
    payload = os.fstat(fh.fileno()).st_size - _SNAPSHOT_HEADER.size
    if payload != expected:
        raise ValueError(f"snapshot payload is {payload} bytes, header implies {expected}")
    return grid


def read_snapshot(path) -> Field:
    """Read an MCNLS1 snapshot; the file size is checked against the header first."""
    with open(path, "rb") as fh:
        grid = _snapshot_grid(fh)
        # one view of the interleaved payload: re + 1j*im would turn -0.0 into +0.0
        vals = np.frombuffer(fh.read(16 * grid.npoints), dtype="<c16")
    return Field(grid, vals.reshape(grid.shape))


def write_csv(path, header, rows) -> None:
    """Write a run table: the column names, then one line per row.

    A number is written at 17 significant digits, so it reads back as the
    same float; a text cell is written as it is.  Decimals are '.' and
    every line, the last included, ends in LF.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else f"{c:.17g}" for c in row) + "\n")
