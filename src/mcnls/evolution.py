"""Strang split-step evolution of i u_t + Delta u = mu |u|^{4/d} u
with per-run diagnostics, which one loop, `_Observed`, records.

The kinetic half step is the exact spectral multiplier exp(-i|k|^2 dt/2);
the nonlinear step is the exact pointwise phase rotation
exp(-i mu |u|^{4/d} dt) (|u| is invariant under that sub-flow), so mass
is conserved to roundoff.  The loop holds the state as a spectrum:
between observation points the closing half kick of one step and the
opening half kick of the next merge into one multiplier (FSAL), so a step
is two in-place FFTs and one phase rotation, and a diagnostics sample
reuses the spectrum the loop already holds.  The phase rotation runs one
block of rows at a time, each block followed by its forward row
transform, so its preallocated scratch is one cache-sized block.
With dealiasing in 2D the transforms are the boxed pair of
`grid.boxed_transforms`, which skips the FFT lines outside the 2/3 box,
and on larger grids cos and sin run masked (`where=`) to the points whose
phase angle is not negligible (exp(i a) = 1 + i a to the last bit for
|a| < 2^-27); these and the row blocks leave every output bit-equal.
`_Observed` appends each sample's row to a `DiagnosticsSeries` before the
sample reaches its consumer.  Blowup is detected, never resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple

import numpy as np

from .grid import (
    BOUNDARY_MASS_WARN,
    Field,
    _read_only,
    apply_multiplier,
    boundary_mass_fraction,
    boxed_transforms,
    dealias_mask,
    density_boundary_fraction,
    k2_symbol,
    lp_norm,
    transforms,
    write_csv,
)
from .observables import (
    _energy,
    _estimates_from_spec,
    _kinetic,
    _mass,
    _momentum,
    _potential,
    _spectrum,
    _variance,
)
from .observables import energy, mass, variance, variance_rate

# Blowup is detected, never resolved: the run aborts once the gradient
# energy ||grad u||^2 has grown by GRADIENT_GROWTH_FACTOR (fixed-step
# splitting arrests self-similar collapse at a width ~ max(h, sqrt(dt)),
# which caps the reachable norm growth well below this factor applied to
# the norm itself) or the amplitude reaches AMPLITUDE_LIMIT.
GRADIENT_GROWTH_FACTOR = 1e3
AMPLITUDE_LIMIT = 1e6

# Below this phase angle libm's cos is exactly 1.0 and its sin exactly the
# angle (the Taylor remainders are under half an ulp), so the phase factor
# is 1 + i a to the last bit.
NEGLIGIBLE_ANGLE = 2.0 ** -27
# Grids with fewer points evaluate cos and sin everywhere: there the
# compare and the masked loops save little or nothing.  On a 1D Gaussian
# with 16 % of the angles not negligible, the masked phase alone took
# 1.08-1.20x the full one at 512 points, 0.74-0.83x at 1024, 0.59-0.67x
# at 2048 and 0.56-0.64x at 4096; a whole Strang step took 1.04x, 0.98x,
# 0.96x and 0.98x (medians of 8 alternating pairs; numpy 2.4.6, 2-vCPU
# x86-64 VM).
COMPACT_MIN_POINTS = 4096
# The nonlinear stage runs on blocks of whole rows of at most this many
# points (the whole line in 1D), each followed by its forward row
# transform, so its scratch fits in cache: 32 rows at 256^2, 64 at 128^2.
# A power of two, as n is, so the blocks tile the grid.
BLOCK_POINTS = 8192
# A sample's N_est leaves less than this fraction of its mass outside the
# ball around xi_est (the eta of `_estimates_from_spec`).
ESTIMATE_MASS_FRACTION = 0.05


@dataclass(frozen=True)
class EvolutionConfig:
    """Sign mu of the nonlinearity, step dt, end time t_end, steps between
    samples and the 2/3 dealiasing switch.

    A run takes round(t_end/dt) steps, so its last sample is at that
    multiple of dt, which is t_end only when t_end is a whole number of
    steps (the CLI rejects any other t_end; library callers are not held
    to it).
    """

    mu: int
    dt: float
    t_end: float
    stride: int = 1
    dealias: bool = True

    def __post_init__(self):
        if self.mu not in (-1, 1):
            raise ValueError("mu must be +1 or -1")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and nonnegative")
        if not self.t_end / self.dt < np.inf:
            raise ValueError(f"t_end / dt = {self.t_end!r} / {self.dt!r} overflows: no step count")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass
class DiagnosticsSeries:
    """Per-sample observables of one trajectory; append-only during a run."""

    d: int
    t: List[float] = field(default_factory=list)
    mass: List[float] = field(default_factory=list)
    energy: List[float] = field(default_factory=list)
    variance: List[float] = field(default_factory=list)
    kinetic: List[float] = field(default_factory=list)
    potential: List[float] = field(default_factory=list)
    momentum: List[np.ndarray] = field(default_factory=list)
    scat_accum: List[float] = field(default_factory=list)
    N_est: List[float] = field(default_factory=list)
    xi_est: List[np.ndarray] = field(default_factory=list)
    x_est: List[np.ndarray] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)
    outcome: str = "completed"
    boundary_breach: bool = False

    def to_csv(self, path) -> None:
        """Write the diagnostics CSV with `grid.write_csv`: one row per sample,
        a vector observable as one column per axis (`_x`, and `_y` in 2D)."""
        axes = ("_x", "_y")[:self.d]
        header = ["t", "mass", "energy", "variance", "kinetic", "potential",
                  *("momentum" + a for a in axes), "scat_accum", "N_est",
                  *("xi" + a for a in axes), *("x" + a for a in axes), "flags"]
        rows = zip(*self._columns())
        write_csv(path, header, ([*sc, *p, c, n, *xi, *x, fl] for *sc, p, c, n, xi, x, fl in rows))

    def _columns(self) -> tuple:
        """The per-sample lists in CSV order, a vector observable as one list."""
        return (self.t, self.mass, self.energy, self.variance, self.kinetic, self.potential,
                self.momentum, self.scat_accum, self.N_est, self.xi_est, self.x_est, self.flags)


@lru_cache(maxsize=16)
def _kicks(g, dt: float, dealias: bool):
    """(half, full), cached read-only per (grid, dt, dealias): the half kick
    exp(-i|k|^2 dt/2) and the merged kick between observation points, the
    half kick times the closing one (the half kick times the dealias mask
    when dealiasing, else the half kick itself).  The closing kick is not
    kept: an observation step applies the half kick and then the mask."""
    half = np.exp(-0.5j * k2_symbol(g) * dt)
    full = half * (half * dealias_mask(g) if dealias else half)
    return _read_only(half), _read_only(full)


def step_strang(f: Field, dt: float, mu: int, dealias: bool = False) -> Field:
    """One Strang step: half kinetic, exact nonlinear phase, half kinetic."""
    *_, (_, u, _, _) = _trajectory(f, EvolutionConfig(mu, dt, dt, 1, dealias))
    return Field(f.grid, u)


def _trajectory(f: Field, cfg: EvolutionConfig):
    """Yield (step, samples, spectrum, scat_accum) at step 0, every stride-th
    and the last step; spectrum is the raw forward transform of the samples.

    The state is held as a spectrum in one work array, and adjacent half
    kicks merge into one multiplier between observation points (FSAL), so a
    step buf <- fwd(phase(inv(kick * src))) costs two in-place FFTs and
    allocates nothing.  The transforms are those of `grid.boxed_transforms`:
    when dealiasing in 2D, every kick but step 1's opening one is masked,
    so they skip the lines outside the 2/3 box.  The nonlinear stage runs
    on blocks of at most BLOCK_POINTS points (whole rows; the whole line in
    1D), each followed at once by its forward row pass, and the column
    pass runs after the last block, so the stage's scratch is one block.
    The phase exp(i a) is 1 + i a to the last bit where
    |a| < NEGLIGIBLE_ANGLE; on grids of at least COMPACT_MIN_POINTS points,
    cos and sin run masked (`where=`) on the other points only.
    An observation step closes with the half kick and then the dealias
    mask.  That spectrum equals the one closed by the masked half kick in
    value (half * 1.0 is half); outside the 2/3 box only the sign of its
    zeros can differ, and the samples are bit-equal.
    Yielded arrays are fresh and never modified afterwards, and the loop
    drops its references to them when the consumer resumes it (the next
    step reads the spectrum once, then the work array is the source), so
    the consumer alone decides how long a sample lives.  scat_accum is
    the midpoint-rule integral of |u|^{2(d+2)/d} over space-time so far:
    the integrand at the nonlinear stage is summed element-wise across
    steps and reduced only at observation points.
    """
    g = f.grid
    dt, stride = cfg.dt, cfg.stride
    half, full = _kicks(g, dt, cfg.dealias)
    mask = dealias_mask(g) if cfg.dealias else None
    w = g.h ** g.d
    nsteps = int(round(cfg.t_end / dt))
    fwd, inv = transforms(g.d)
    rows, cols, binv = boxed_transforms(g, cfg.dealias)
    buf = np.empty(g.shape, dtype=complex)
    acc = np.zeros(g.shape)
    # each block's views are built once per run, so a step slices nothing
    r = g.n if g.d == 1 else min(g.n, max(1, BLOCK_POINTS // g.n))
    blocks = []
    for i in range(0, g.n, r):
        v = buf[i:i + r]
        blocks.append((v, v.real, v.imag, acc[i:i + r]))
    shape = (r,) + g.shape[1:]
    ph = np.empty(shape, dtype=complex)
    amp2 = np.empty(shape)
    arg = np.empty(shape)
    ph_re, ph_im = ph.real, ph.imag
    c = -cfg.mu * dt
    quintic = g.d == 1
    multiply, add, cos, sin = np.multiply, np.add, np.cos, np.sin
    masked = g.npoints >= COMPACT_MIN_POINTS
    if masked:
        # the phase argument is c x, x = |u|^4 (d = 1) or |u|^2 (d = 2)
        x_min = NEGLIGIBLE_ANGLE / abs(c)
        big = np.empty(shape, dtype=bool)
    spec = fwd(f.values, out=np.empty_like(buf))
    scat = 0.0
    yield 0, f.values, spec, scat
    # step 1's source spectrum is unmasked, so its inverse is the full one
    kick, src, step_inv = half, spec, inv
    del spec
    for step in range(1, nsteps + 1):
        multiply(kick, src, out=buf)
        # the merged kick on the work array until the next observation
        kick, src = full, buf
        step_inv(buf, out=buf)
        step_inv = binv
        for v, re, im, acc_rows in blocks:
            multiply(re, re, out=amp2)
            multiply(im, im, out=arg)
            add(amp2, arg, out=amp2)
            multiply(amp2, amp2, out=arg)
            if quintic:
                # phase argument c |u|^4; acc gains |u|^6, computed into amp2
                multiply(arg, amp2, out=amp2)
                add(acc_rows, amp2, out=acc_rows)
                x = arg
            else:
                # phase argument c |u|^2; acc gains |u|^4
                add(acc_rows, arg, out=acc_rows)
                x = amp2
            if masked:
                # exp(i a) is 1 + i a except where big
                np.greater_equal(x, x_min, out=big)
                multiply(c, x, out=ph_im)
                ph_re.fill(1.0)
                cos(ph_im, out=ph_re, where=big)
                sin(ph_im, out=ph_im, where=big)
            else:
                multiply(c, x, out=arg)
                cos(arg, out=ph_re)
                sin(arg, out=ph_im)
            multiply(v, ph, out=v)
            rows(v, out=v)
        cols(buf)
        if step % stride == 0 or step == nsteps:
            scat += dt * float(w * acc.sum())
            acc.fill(0.0)
            spec = multiply(half, buf, out=np.empty_like(buf))
            if mask is not None:
                multiply(spec, mask, out=spec)
            u = binv(spec, out=np.empty_like(spec))
            yield step, u, spec, scat
            kick, src = half, spec
            del u, spec


class _Sample(NamedTuple):
    step: int
    u: np.ndarray        # samples
    spec: np.ndarray     # their raw forward transform
    dens: np.ndarray     # |u|^2
    sdens: np.ndarray    # |spec|^2


class _Observed:
    """The one loop that records a trajectory: each sample's row goes into
    `series`, which holds the run's outcome and breach, before it is yielded.

    Raises ValueError for initial data with too much mass at the box
    boundary.  Stops after a sample flagged "blowup" with outcome
    "blowup-suspected", or before a non-finite one with "nan-abort".
    `last` holds the samples of the last recorded field.  |spec|^2 and |u|^2
    are squared in place (after the amplitude maximum is read), and the
    iterator drops its references to a sample once the consumer resumes
    it, so a consumer that drops the sample before taking the next one
    holds one sample at a time, plus `last`.
    """

    def __init__(self, f: Field, cfg: EvolutionConfig):
        if boundary_mass_fraction(f) > BOUNDARY_MASS_WARN:
            raise ValueError("initial data places too much mass at the box boundary")
        self.f, self.cfg, self.last = f, cfg, f.values
        self.series = DiagnosticsSeries(d=f.grid.d)

    def __iter__(self):
        g, cfg, series = self.f.grid, self.cfg, self.series
        grad0 = n_est = None
        for step, u, spec, scat in _trajectory(self.f, cfg):
            if not np.all(np.isfinite(u.view(np.float64))):
                series.outcome = "nan-abort"
                return
            # before the diagnostics, so the previous u is not alive beside their temporaries
            self.last = u
            # squared in place: bit-equal to np.abs(.) ** 2, one array fewer
            sdens = np.abs(spec)
            np.square(sdens, out=sdens)
            kin = _kinetic(g, sdens)
            if grad0 is None:
                grad0 = kin
            dens = np.abs(u)
            blow = (grad0 > 0 and kin >= GRADIENT_GROWTH_FACTOR * grad0) or dens.max() >= AMPLITUDE_LIMIT
            np.square(dens, out=dens)
            fl = []
            if density_boundary_fraction(g, dens) > BOUNDARY_MASS_WARN:
                fl.append("boundary")
                series.boundary_breach = True
            if blow:
                fl.append("blowup")
            m, pot = _mass(g, dens), _potential(g, dens)
            n_est, xi_est, x_est = _estimates_from_spec(g, dens, sdens,
                                                        ESTIMATE_MASS_FRACTION * m, n_est)
            row = (step * cfg.dt, m, _energy(g.d, kin, pot, cfg.mu), _variance(g, dens), kin, pot,
                   _momentum(g, sdens), scat, n_est, xi_est, x_est, "|".join(fl))
            for col, v in zip(series._columns(), row):
                col.append(v)
            yield _Sample(step, u, spec, dens, sdens)
            # the consumer holds the sample from here; `last` keeps u for a nan-abort
            del u, spec, dens, sdens
            if blow:
                series.outcome = "blowup-suspected"
                return


def evolve(f: Field, cfg: EvolutionConfig):
    """Run round(t_end/dt) steps recording diagnostics every `stride` steps.

    The last sample is at round(t_end/dt) * dt, the multiple of dt nearest
    t_end.  Returns (series, final_field).  Aborts with outcome
    "blowup-suspected" when the gradient energy grows by
    GRADIENT_GROWTH_FACTOR or the amplitude reaches AMPLITUDE_LIMIT, and
    with "nan-abort" (returning the last recorded state) if samples stop
    being finite (see `_Observed`, whose series this is).
    """
    run = _Observed(f, cfg)
    for s in run:
        del s
    return run.series, Field(f.grid, run.last)


def concentration_estimates(f: Field, eta: float):
    """Concentration center, frequency center and dyadic scale of a field."""
    m = mass(f)
    if not (0 < eta < m):
        raise ValueError(f"eta must lie in (0, mass), got {eta} with mass {m}")
    sdens = np.abs(_spectrum(f)) ** 2
    return _estimates_from_spec(f.grid, np.abs(f.values) ** 2, sdens, eta)


def virial_check(series: DiagnosticsSeries, abs_floor: float = 0.0) -> float:
    """Max deviation of the centered second difference of the variance from 16 E.

    Deviations are measured relative to max(|16 E|, abs_floor) per sample.
    Requires at least 5 samples at uniform stride.
    """
    t = np.asarray(series.t)
    if len(t) < 5:
        raise ValueError("need at least 5 samples")
    dts = np.diff(t)
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(abs(t[-1]), 1.0):
        raise ValueError("virial check requires a uniform observation stride")
    dt = dts[0]
    V = np.asarray(series.variance)
    E = np.asarray(series.energy)
    fd = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / dt ** 2
    target = 16.0 * E[1:-1]
    scale = np.maximum(np.abs(target), abs_floor)
    scale = np.where(scale == 0.0, 1e-300, scale)
    return float(np.max(np.abs(fd - target) / scale))


def free_pullback(f: Field, t: float) -> Field:
    """Apply exp(-i t Delta) spectrally (exact inverse of the free flow)."""
    g = f.grid
    return Field(g, apply_multiplier(f.values, np.exp(1j * k2_symbol(g) * t)))


def scattering_cauchy_difference(u1: Field, t1: float, u2: Field, t2: float) -> float:
    """L^2 distance of free pullbacks at two times; small iff nearly free."""
    a = free_pullback(u1, t1)
    b = free_pullback(u2, t2)
    return lp_norm(Field(a.grid, a.values - b.values), 2)


def admissible(p: float, q: float, d: int) -> bool:
    """Strichartz admissibility: 2/p = d(1/2 - 1/q) with the dimensional p floor."""
    if p < 1 or q < 1:
        return False
    invq = 0.0 if q == np.inf else 1.0 / q
    invp = 0.0 if p == np.inf else 1.0 / p
    if abs(2.0 * invp - d * (0.5 - invq)) > 1e-12:
        return False
    if d == 1:
        return p >= 4
    if d == 2:
        return p > 2
    return p >= 2


def strichartz_norm(times, fields, p: float, q: float) -> float:
    """Trapezoid-in-time L^p_t L^q_x norm of a sampled trajectory (p = inf: the largest sample)."""
    if p < 1 or q < 1:
        raise ValueError("exponents must be >= 1")
    norms = [lp_norm(f, q) for f in fields]
    if p == np.inf:
        return max(norms)
    return float(np.trapezoid([v ** p for v in norms], np.asarray(times, dtype=float)) ** (1 / p))


def variance_blowup_time(f: Field, mu: int):
    """Earliest positive root of V(0) + V'(0) t + 8 E t^2, or None.

    The variance is exactly quadratic in time along the flow, so a root
    upper-bounds the lifespan of negative-energy data.
    """
    V0 = variance(f)
    V1 = variance_rate(f)
    E = energy(f, mu)
    roots = np.roots([8.0 * E, V1, V0])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0]
    return min(real) if real else None
