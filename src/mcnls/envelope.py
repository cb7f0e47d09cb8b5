"""Piecewise-linear frequency envelopes on a geometric lattice and the
peak-flattening smoothing algorithm.

An envelope stores breakpoint times a_0 < ... < a_K and node heights
J0^{e_i} with integer exponents e_i <= 0, e_0 = 0, and consecutive nodes
moving by at most one lattice step.  Heights live on the exact integer
lattice so every structural certification is exact; only the integrals
(total variation, cubic mass) use floating point.

Peaks and valleys are maximal constant runs flanked by descending
(resp. ascending) small intervals.  A run touching either end of the
time window has one flank only; it is classified by that flank but never
flattened, so the normalization N(a_0) = 1 survives smoothing.

One smoothing pass lowers every interior peak by one lattice step, which
extends its run across the two adjacent small intervals.  After m passes
every interior peak spans at least 2m small intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np


@dataclass(frozen=True)
class PiecewiseEnvelope:
    times: Tuple[float, ...]
    exponents: Tuple[int, ...]
    j0: float = 2.0

    def __post_init__(self):
        t = tuple(float(v) for v in self.times)
        e = tuple(int(v) for v in self.exponents)
        if len(t) != len(e):
            raise ValueError("times and exponents must have equal length")
        if len(t) < 2:
            raise ValueError("an envelope needs at least one small interval")
        if any(t2 <= t1 for t1, t2 in zip(t, t[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not self.j0 > 1:
            raise ValueError("lattice ratio J0 must exceed 1")
        if e[0] != 0:
            raise ValueError("envelopes are normalized to N = 1 at the left end")
        if any(v > 0 for v in e):
            raise ValueError("node heights must not exceed 1")
        if any(abs(b - a) > 1 for a, b in zip(e, e[1:])):
            raise ValueError("consecutive nodes may move by at most one lattice step")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "exponents", e)
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


def _runs(exponents) -> List[Tuple[int, int]]:
    runs = []
    start = 0
    for i in range(1, len(exponents)):
        if exponents[i] != exponents[start]:
            runs.append((start, i - 1))
            start = i
    runs.append((start, len(exponents) - 1))
    return runs


def detect_extrema(e: PiecewiseEnvelope) -> List[Extremum]:
    """Alternating peaks and valleys, starting with the peak at t = a_0.

    A run is a peak when every existing flank descends away from it and a
    valley when every flank ascends; interior runs with one flank of each
    kind are shoulders and are not extrema.
    """
    exp = e.exponents
    last = len(exp) - 1
    j0 = e.j0
    out: List[Extremum] = []
    for start, end in _runs(exp):
        v = exp[start]
        lv = exp[start - 1] if start > 0 else None
        rv = exp[end + 1] if end < last else None
        boundary = start == 0 or end == last
        if lv is None and rv is None:
            kind = "peak"
        elif lv is None:
            kind = "peak" if rv < v else "valley"
        elif rv is None:
            kind = "peak" if lv < v else "valley"
        elif lv < v and rv < v:
            kind = "peak"
        elif lv > v and rv > v:
            kind = "valley"
        else:
            kind = None
        if kind is not None:
            out.append(Extremum(kind, start, end, end - start,
                                j0 ** v, boundary))
    for a, b in zip(out, out[1:]):
        if a.kind == b.kind:
            raise AssertionError("extrema failed to alternate")
    if out and out[0].kind != "peak":
        raise AssertionError("an envelope must start with a peak")
    return out


def interior_peaks(e: PiecewiseEnvelope) -> List[Extremum]:
    return [x for x in detect_extrema(e) if x.kind == "peak" and not x.boundary]


def smooth_once(e: PiecewiseEnvelope) -> PiecewiseEnvelope:
    """Flatten every interior peak down one lattice step.

    Both flanks of an interior peak already sit one step below, so
    lowering the run's nodes extends the flat stretch across the two
    adjacent small intervals; breakpoints are unchanged.
    """
    exp = list(e.exponents)
    for pk in interior_peaks(e):
        for i in range(pk.start, pk.end + 1):
            exp[i] -= 1
    return PiecewiseEnvelope(e.times, tuple(exp), e.j0)


def smooth(e: PiecewiseEnvelope, m: int) -> PiecewiseEnvelope:
    if m < 0:
        raise ValueError("pass count must be nonnegative")
    for _ in range(m):
        e = smooth_once(e)
    return e


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


def certify_ratio(e: PiecewiseEnvelope, m: int) -> CertifyResult:
    """Certify the two smoothing inequalities after m passes.

    (a) the total variation of N_m is at most twice the interior peak
        height sum of N_m plus 2 (the boundary allowance);
    (b) the small-interval height sum of N_0 dominates
        m * (peak height sum of N_m including the unit-height peak at
        t = a_0) - m + cubic_mass / (2 J0^m).
    A run cut off by the right end of the window is a truncation artifact
    and is excluded from the sum in (b).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    em = smooth(e, m)
    var_m = total_variation(em)
    hsum0 = smallinterval_height_sum(e)
    psum = peak_height_sum(em)
    ok_a = var_m <= 2.0 * psum + 2.0 + 1e-12
    bound_b = m * (1.0 + psum) - m + cubic_mass(e) / (2.0 * e.j0 ** m)
    ok_b = hsum0 >= bound_b - 1e-12
    return CertifyResult(var_m, hsum0, bool(ok_a and ok_b))


# ---------------------------------------------------------------------------
# generators and serialization
# ---------------------------------------------------------------------------

def standard_durations(exponents, j0: float) -> np.ndarray:
    """Small-interval lengths 1/sup(N)^2, mirroring the unit space-time
    norm windows that define the small intervals."""
    h = j0 ** np.asarray(exponents, dtype=float)
    sup = np.maximum(h[:-1], h[1:])
    return 1.0 / sup ** 2


def random_envelope(rng: np.random.Generator, n_intervals: int,
                    j0: float = 2.0, min_exponent: int = -40) -> PiecewiseEnvelope:
    """Random lattice walk with the standard duration coupling."""
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    exp = [0]
    for _ in range(n_intervals):
        step = int(rng.integers(-1, 2))
        nxt = min(0, max(min_exponent, exp[-1] + step))
        exp.append(nxt)
    dur = standard_durations(exp, j0)
    times = np.concatenate([[0.0], np.cumsum(dur)])
    return PiecewiseEnvelope(tuple(times), tuple(exp), j0)


def sawtooth_envelope(n_teeth: int, j0: float = 2.0) -> PiecewiseEnvelope:
    """1, 1/J0, 1, 1/J0, ... with the standard duration coupling."""
    if n_teeth < 1:
        raise ValueError("need at least one tooth")
    exp = []
    for _ in range(n_teeth):
        exp += [0, -1]
    exp.append(0)
    dur = standard_durations(exp, j0)
    times = np.concatenate([[0.0], np.cumsum(dur)])
    return PiecewiseEnvelope(tuple(times), tuple(exp), j0)


def write_envelope_csv(e: PiecewiseEnvelope, path) -> None:
    """Breakpoint CSV with heights stored losslessly as lattice exponents."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# J0={e.j0!r}\n")
        fh.write("t,N\n")
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
    if n[0] <= 0:
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
