"""Piecewise-linear frequency envelopes on a geometric lattice and the
peak-flattening smoothing algorithm.

An envelope stores finite breakpoint times a_0 < ... < a_K and node heights
J0^{e_i} (1 < J0 < inf) with integer exponents e_i <= 0, e_0 = 0, and
consecutive nodes moving by at most one lattice step.  Heights live on the
exact integer lattice so every structural certification is exact; only
the integrals (total variation, cubic mass) use floating point.

One run table decomposes an envelope: a row per maximal constant run of
exponents, with the lattice steps into and out of it (0 at a window end).
A run is a peak when neither flank rises away from it and a valley when
neither flank falls.  A run touching either end of the window has one
flank only and is never flattened, so N(a_0) = 1 survives smoothing.

One smoothing pass lowers every interior peak by one lattice step, which
extends its run across the two adjacent small intervals.  After m passes
every interior peak spans at least 2m small intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

_CERTIFY_SLACK = 1e-12  # rounding allowance of both smoothing inequalities


@dataclass(frozen=True)
class PiecewiseEnvelope:
    times: Tuple[float, ...]
    exponents: Tuple[int, ...]
    j0: float = 2.0

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        x = np.array(self.exponents)
        if len(t) != len(x):
            raise ValueError("times and exponents must have equal length")
        if len(t) < 2:
            raise ValueError("an envelope needs at least one small interval")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(t).all():
            raise ValueError("breakpoint times must be finite")
        if not self.j0 > 1:
            raise ValueError("lattice ratio J0 must exceed 1")
        if not np.isfinite(self.j0):
            raise ValueError("lattice ratio J0 must be finite")
        if x.dtype.kind != "i":  # floats, text or Python ints beyond int64
            if not all(isinstance(v, int) or float(v).is_integer() for v in x.tolist()):
                raise ValueError("lattice exponents must be integers")
            x = np.array([int(v) for v in x.tolist()])
        if x[0] != 0:
            raise ValueError("envelopes are normalized to N = 1 at the left end")
        if (x > 0).any():
            raise ValueError("node heights must not exceed 1")
        if (abs(x[1:] - x[:-1]) > 1).any():
            raise ValueError("consecutive nodes may move by at most one lattice step")
        object.__setattr__(self, "times", tuple(t.tolist()))
        object.__setattr__(self, "exponents", tuple(x.tolist()))
        object.__setattr__(self, "j0", float(self.j0))

    @property
    def heights(self) -> np.ndarray:
        return self.j0 ** np.asarray(self.exponents, dtype=float)

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    def value(self, t) -> np.ndarray:
        return np.interp(np.asarray(t, dtype=float), self.times, self.heights)


class Extremum(NamedTuple):
    kind: str          # "peak" or "valley"
    start: int         # first node index of the maximal run
    end: int           # last node index of the maximal run
    length: int        # number of small intervals spanned (end - start)
    height: float
    boundary: bool     # touches t = a_0 or t = a_K (single flank)


def _runs(exponents: np.ndarray) -> np.ndarray:
    """The run table: one row (first node, last node, step in, step out) per
    maximal constant run; a step is +1 or -1, and 0 at a window end."""
    step = exponents[1:] - exponents[:-1]
    cut = step.nonzero()[0]  # the last node of every run but the final one
    runs = np.zeros((len(cut) + 1, 4), dtype=exponents.dtype)
    runs[1:, 0] = cut + 1
    runs[:, 1] = np.append(cut, len(exponents) - 1)
    runs[1:, 2] = runs[:-1, 3] = step[cut]
    return runs


def detect_extrema(e: PiecewiseEnvelope) -> List[Extremum]:
    """Alternating peaks and valleys, starting with the peak at t = a_0.

    A run is a peak when no flank rises away from it and a valley when no
    flank falls; interior runs with one flank of each kind are shoulders
    and are not extrema.
    """
    exp = e.exponents
    out: List[Extremum] = []
    for start, end, into, leave in _runs(np.array(exp)).tolist():
        if into >= 0 >= leave:
            kind = "peak"
        elif into <= 0 <= leave:
            kind = "valley"
        else:
            continue
        out.append(Extremum(kind, start, end, end - start, e.j0 ** exp[start],
                            into == 0 or leave == 0))
    for a, b in zip(out, out[1:]):
        if a.kind == b.kind:
            raise AssertionError("extrema failed to alternate")
    if out and out[0].kind != "peak":
        raise AssertionError("an envelope must start with a peak")
    return out


def interior_peaks(e: PiecewiseEnvelope) -> List[Extremum]:
    return [x for x in detect_extrema(e) if x.kind == "peak" and not x.boundary]


def smooth_once(e: PiecewiseEnvelope) -> PiecewiseEnvelope:
    """One smoothing pass: `smooth(e, 1)`."""
    return smooth(e, 1)


def smooth(e: PiecewiseEnvelope, m: int) -> PiecewiseEnvelope:
    """m smoothing passes on the exponent array, then one validated envelope
    (`e` itself when m = 0).  A pass lowers each run entered by a rise and
    left by a fall; breakpoints are unchanged.  A pass that lowers nothing
    is a fixed point, so the passes stop there."""
    if m < 0:
        raise ValueError("pass count must be nonnegative")
    if m == 0:
        return e
    exp = np.array(e.exponents)
    for _ in range(m):
        runs = _runs(exp)
        lowered = (runs[:, 2] > 0) & (runs[:, 3] < 0)
        if not lowered.any():
            break
        exp -= np.repeat(lowered, runs[:, 1] - runs[:, 0] + 1)
    return PiecewiseEnvelope(e.times, tuple(exp.tolist()), e.j0)


def total_variation(e: PiecewiseEnvelope) -> float:
    h = e.heights
    return float(np.sum(np.abs(np.diff(h))))


def cubic_mass(e: PiecewiseEnvelope) -> float:
    """Exact integral of N(t)^3 for the piecewise-linear envelope."""
    t = np.asarray(e.times)
    h = e.heights
    a, b = h[:-1], h[1:]
    seg = (a * a + b * b) * (a + b) / 4.0  # mean of a linear ramp cubed
    return float(np.sum(np.diff(t) * seg))


def peak_height_sum(e: PiecewiseEnvelope) -> float:
    """Sum of interior peak heights (boundary runs are excluded)."""
    return float(sum(p.height for p in interior_peaks(e)))


def smallinterval_height_sum(e: PiecewiseEnvelope) -> float:
    """Sum over small intervals of the sup of N (max of the two endpoints)."""
    h = e.heights
    return float(np.sum(np.maximum(h[:-1], h[1:])))


class CertifyResult(NamedTuple):
    variation_m: float
    smallinterval_height_sum: float
    bound_ok: bool


def _certify(e: PiecewiseEnvelope, em: PiecewiseEnvelope, m: int) -> tuple:
    """`certify_ratio`'s two sums and the larger excess of its (a) and (b),
    from `e` and its smoothing em = smooth(e, m), m >= 1."""
    var_m, hsum0, psum = total_variation(em), smallinterval_height_sum(e), peak_height_sum(em)
    half_cubic = cubic_mass(e) / 2.0
    try:
        tail = half_cubic / e.j0 ** m
    except OverflowError:  # J0^m past the float range: the quotient from logarithms
        tail = math.exp(math.log(half_cubic) - m * math.log(e.j0)) if half_cubic > 0 else 0.0
    bound_b = m * (1.0 + psum) - m + tail
    return var_m, hsum0, max(var_m - 2.0 * psum - 2.0, bound_b - hsum0)


def certify_ratio(e: PiecewiseEnvelope, m: int) -> CertifyResult:
    """Certify the two smoothing inequalities after m passes.

    (a) the total variation of N_m is at most twice the interior peak
        height sum of N_m plus 2 (the boundary allowance);
    (b) the small-interval height sum of N_0 dominates
        m * (peak height sum of N_m including the unit-height peak at
        t = a_0) - m + cubic_mass / (2 J0^m).
    A run cut off by the right end of the window is a truncation artifact
    and is excluded from the sum in (b).  Both hold up to 1e-12.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    var_m, hsum0, excess = _certify(e, smooth(e, m), m)
    return CertifyResult(var_m, hsum0, excess <= _CERTIFY_SLACK)


# ---------------------------------------------------------------------------
# generators and serialization
# ---------------------------------------------------------------------------

def standard_durations(exponents, j0: float) -> np.ndarray:
    """Small-interval lengths 1/sup(N)^2, mirroring the unit space-time
    norm windows that define the small intervals."""
    h = j0 ** np.asarray(exponents, dtype=float)
    sup = np.maximum(h[:-1], h[1:])
    return 1.0 / sup ** 2


def _coupled(exponents, j0: float) -> PiecewiseEnvelope:
    """The lattice walk `exponents` with the standard duration coupling."""
    dur = standard_durations(exponents, j0)
    times = np.concatenate([[0.0], np.cumsum(dur)])
    if np.any((np.diff(times) <= 0) & (dur > 0)):  # absorbed by the float cumsum
        raise ValueError("a small interval vanished next to a deep node's duration J0^(-2e) "
                         "in the float sum of breakpoint times; raise min_exponent")
    return PiecewiseEnvelope(tuple(times), tuple(exponents), j0)


def random_envelope(rng: np.random.Generator, n_intervals: int,
                    j0: float = 2.0, min_exponent: int = -40) -> PiecewiseEnvelope:
    """Random lattice walk in [min_exponent, 0] with the standard duration
    coupling.  A node at exponent e lasts up to J0^(-2e) (2^80 by default),
    beside which a later unit interval can vanish in the float sum of the
    breakpoint times; that raises ValueError, and a larger `min_exponent`
    avoids it."""
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    exp = [0]
    for _ in range(n_intervals):
        exp.append(min(0, max(min_exponent, exp[-1] + int(rng.integers(-1, 2)))))
    return _coupled(exp, j0)


def sawtooth_envelope(n_teeth: int, j0: float = 2.0) -> PiecewiseEnvelope:
    """1, 1/J0, 1, 1/J0, ... with the standard duration coupling."""
    if n_teeth < 1:
        raise ValueError("need at least one tooth")
    return _coupled([0, -1] * n_teeth + [0], j0)


def write_envelope_csv(e: PiecewiseEnvelope, path) -> None:
    """Breakpoint CSV with heights stored losslessly as lattice exponents."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# J0={e.j0!r}\nt,N\n")
        for t, ex in zip(e.times, e.exponents):
            fh.write(f"{t:.17g},{ex}\n")


def read_envelope_csv(path) -> PiecewiseEnvelope:
    with open(path) as fh:
        return parse_envelope_csv(fh.read())


def parse_envelope_csv(text: str) -> PiecewiseEnvelope:
    times: List[float] = []
    exps: List[int] = []
    j0 = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line.lstrip("# ").partition("=")
            if key.strip() == "J0":
                j0 = float(val)
            continue
        if line.lower().startswith("t,"):
            continue
        t_str, e_str = line.split(",")
        times.append(float(t_str))
        exps.append(int(e_str))
    if j0 is None:
        raise ValueError("envelope CSV is missing the '# J0=' header line")
    return PiecewiseEnvelope(tuple(times), tuple(exps), j0)


def envelope_from_series(times, scat_accum, n_est, j0: float = 2.0) -> PiecewiseEnvelope:
    """Estimate a lattice envelope from trajectory diagnostics.

    Breakpoints are placed where the accumulated space-time norm crosses
    successive integers, interpolated linearly between the samples around
    each crossing; node heights snap the frequency-scale estimate at the
    later sample, normalized by its largest value over the trajectory
    (N(t) <= 1), down to the lattice, clamped to the one-step-per-interval
    constraint and to N = 1 at the first node.
    """
    t = np.asarray(times, dtype=float)
    acc = np.asarray(scat_accum, dtype=float)
    n = np.asarray(n_est, dtype=float)
    if not len(t) == len(acc) == len(n):
        raise ValueError(f"times, scat_accum and n_est must have one length, "
                         f"got {len(t)}, {len(acc)} and {len(n)}")
    if not np.all((n > 0.0) & (n < np.inf)):
        raise ValueError("frequency-scale estimates must be positive")
    if acc[0] >= 1.0:
        raise ValueError("the space-time norm must start below one unit")
    crossings, bt = [0], [t[0]]
    level = 1.0
    for i in range(1, len(t)):
        while acc[i] >= level:
            # acc[i-1] < level <= acc[i]: the fraction lies in (0, 1]
            frac = (level - acc[i - 1]) / (acc[i] - acc[i - 1])
            crossings.append(i)
            bt.append(t[i - 1] + frac * (t[i] - t[i - 1]))
            level += 1.0
    if len(crossings) < 2:
        raise ValueError("trajectory too short: the space-time norm never "
                         "accumulated one unit")
    exps = [0]
    for i in crossings[1:]:
        # n <= n.max(), so the target and the node stay at or below 0
        target = int(np.floor(np.log(n[i] / n.max()) / np.log(j0) + 1e-9))
        exps.append(max(exps[-1] - 1, min(exps[-1] + 1, target)))
    return PiecewiseEnvelope(tuple(bt), tuple(exps), j0)
