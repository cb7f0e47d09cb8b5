import itertools

import numpy as np
import pytest

from mcnls import (
    PiecewiseEnvelope,
    certify_ratio,
    cubic_mass,
    detect_extrema,
    peak_height_sum,
    read_envelope_csv,
    sawtooth_envelope,
    smallinterval_height_sum,
    smooth,
    smooth_once,
    total_variation,
    write_envelope_csv,
)
from mcnls.envelope import (
    Extremum,
    envelope_from_series,
    interior_peaks,
    random_envelope,
    standard_durations,
)


def _walk(exponents, j0=2.0):
    dur = standard_durations(exponents, j0)
    times = tuple(np.concatenate([[0.0], np.cumsum(dur)]))
    return PiecewiseEnvelope(times, tuple(exponents), j0)


def test_envelope_validation():
    with pytest.raises(ValueError):
        PiecewiseEnvelope((0.0,), (0,))                    # too short
    with pytest.raises(ValueError):
        PiecewiseEnvelope((0.0, 0.0), (0, 0))              # not increasing
    with pytest.raises(ValueError):
        PiecewiseEnvelope((0.0, 1.0), (-1, 0))             # must start at 1
    with pytest.raises(ValueError):
        PiecewiseEnvelope((0.0, 1.0), (0, 1))              # above 1
    with pytest.raises(ValueError):
        PiecewiseEnvelope((0.0, 1.0, 2.0), (0, -2, -1))    # two-step jump
    with pytest.raises(ValueError):
        PiecewiseEnvelope((0.0, 1.0), (0, 0), j0=1.0)      # J0 must exceed 1


def test_constant_envelope_single_peak():
    e = PiecewiseEnvelope((0.0, 1.0, 2.0), (0, 0, 0))
    ext = detect_extrema(e)
    assert len(ext) == 1
    assert ext[0].kind == "peak"
    assert ext[0].boundary
    assert (ext[0].start, ext[0].end) == (0, 2)


def test_sawtooth_extrema():
    e = _walk([0, -1, 0, -1, 0])
    ext = detect_extrema(e)
    kinds = [x.kind for x in ext]
    assert kinds == ["peak", "valley", "peak", "valley", "peak"]
    interior = [x for x in ext if not x.boundary]
    assert sum(1 for x in interior if x.kind == "peak") == 1
    assert sum(1 for x in ext if x.kind == "peak") == 3
    assert sum(1 for x in ext if x.kind == "valley") == 2
    assert all(x.length == 0 for x in ext)


def test_staircase_extrema():
    e = _walk([0, -1, -2])
    ext = detect_extrema(e)
    assert [(x.kind, x.boundary) for x in ext] == [("peak", True), ("valley", True)]


def test_peak_flanks_descend_by_one_step():
    e = _walk([0, -1, 0, 0, -1, -1, 0])
    for pk in interior_peaks(e):
        exp = e.exponents
        assert exp[pk.start - 1] == exp[pk.start] - 1
        assert exp[pk.end + 1] == exp[pk.end] - 1


def test_smooth_zero_passes_is_identity():
    e = _walk([0, -1, 0, -1, 0])
    assert smooth(e, 0) is e


def test_smooth_once_sawtooth():
    e = _walk([0, -1, 0, -1, 0])
    e1 = smooth_once(e)
    assert e1.exponents == (0, -1, -1, -1, 0)
    assert e1.times == e.times


def test_smooth_idempotent_without_interior_peaks():
    e = _walk([0, -1, -2, -2, -1, 0])  # single interior valley
    assert smooth_once(e).exponents == e.exponents


def test_smooth_stops_at_its_fixed_point():
    # the parent ran every one of the 10^9 passes, about 30 us each
    from importlib.resources import files

    from mcnls.envelope import parse_envelope_csv

    saw = parse_envelope_csv(files("mcnls").joinpath("data/sawtooth.csv").read_text())
    rng = np.random.default_rng(31)
    for e in [saw] + [random_envelope(rng, 200) for _ in range(10)]:
        assert smooth(e, 10 ** 9) == smooth(e, len(e.exponents))


def test_boundary_peaks_never_flattened():
    e = _walk([0, -1, 0, -1, 0])
    e5 = smooth(e, 5)
    assert e5.exponents[0] == 0
    assert e5.exponents[-1] == 0


def test_smoothing_monotone_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(100):
        e = random_envelope(rng, 150)
        for m in (1, 2, 5):
            em = smooth(e, m)
            h0, hm = e.heights, em.heights
            assert np.all(hm <= h0 + 1e-15)
            assert np.all(hm >= h0 * e.j0 ** (-m) - 1e-15)
            # lattice closure
            d = np.diff(em.exponents)
            assert np.all(np.abs(d) <= 1)
            assert em.exponents[0] == 0


def test_peak_length_growth():
    rng = np.random.default_rng(1)
    e = random_envelope(rng, 10000, min_exponent=-12)
    for m in (1, 3, 5):
        em = smooth(e, m)
        for pk in interior_peaks(em):
            assert pk.length >= 2 * m


def test_parent_containment():
    rng = np.random.default_rng(2)
    for _ in range(50):
        e = random_envelope(rng, 200)
        prev = smooth_once(e)
        for m in range(2, 5):
            cur = smooth_once(prev)
            prev_peaks = interior_peaks(prev)
            for pk in interior_peaks(cur):
                assert any(pp.start >= pk.start and pp.end <= pk.end
                           for pp in prev_peaks)
            prev = cur


def test_lemma_variation_bound():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        e = random_envelope(rng, 100)
        assert total_variation(e) <= 2.0 * peak_height_sum(e) + 2.0 + 1e-12


def test_monotone_total_variation():
    exps = [0] + [-min(i + 1, 10) for i in range(10)]
    e = _walk(exps)
    assert total_variation(e) == pytest.approx(1.0 - 2.0 ** -10, rel=1e-14)
    assert total_variation(e) <= 1.0


def test_cubic_mass_constant():
    e = PiecewiseEnvelope((0.0, 2.0, 5.0), (0, 0, 0))
    assert cubic_mass(e) == pytest.approx(5.0, rel=1e-14)


def test_cubic_mass_linear_segment():
    e = PiecewiseEnvelope((0.0, 1.0), (0, -1), j0=2.0)
    # int of (1 - t/2)^3 over [0, 1]
    exact = (1.0 - (1 - 0.5) ** 4) / (4 * 0.5)
    assert cubic_mass(e) == pytest.approx(exact, rel=1e-14)


def test_height_sums_hand_trace():
    e = _walk([0, -1, 0, -1, 0])
    assert smallinterval_height_sum(e) == pytest.approx(4.0)
    assert peak_height_sum(e) == pytest.approx(1.0)  # single interior peak


def test_certify_hand_trace():
    e = _walk([0, -1, 0, -1, 0])
    res = certify_ratio(e, 1)
    # after one pass the envelope is 1, 1/2, 1/2, 1/2, 1: variation = 1
    assert res.variation_m == pytest.approx(1.0)
    assert res.smallinterval_height_sum == pytest.approx(4.0)
    assert res.bound_ok


def test_certify_rejects_bad_m():
    e = _walk([0, -1, 0])
    with pytest.raises(ValueError):
        certify_ratio(e, 0)


def test_certify_random_suite():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        e = random_envelope(rng, 120)
        for m in range(1, 7):
            assert certify_ratio(e, m).bound_ok


def test_sawtooth_ratio_decay():
    e = sawtooth_envelope(200)
    for m in range(1, 7):
        em = smooth(e, m)
        tv = total_variation(em)
        hm = smallinterval_height_sum(em)
        assert tv <= (2.0 / m) * hm + 2.0 + 1e-9


def test_envelope_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    e = random_envelope(rng, 64, j0=3.0)
    p = tmp_path / "env.csv"
    write_envelope_csv(e, p)
    back = read_envelope_csv(p)
    assert back.times == e.times
    assert back.exponents == e.exponents
    assert back.j0 == e.j0
    text = p.read_text()
    assert text.startswith("# J0=3.0\nt,N\n")


def test_envelope_csv_requires_j0(tmp_path):
    p = tmp_path / "nohdr.csv"
    p.write_text("t,N\n0.0,0\n1.0,-1\n")
    with pytest.raises(ValueError):
        read_envelope_csv(p)


def test_envelope_from_series():
    # synthetic diagnostics: space-time norm accumulating linearly while
    # the frequency scale decays through the lattice
    t = np.linspace(0.0, 10.0, 401)
    acc = 0.8 * t
    n_est = 2.0 ** (-np.minimum(t / 3.0, 3.0).astype(int)) * 4.0
    e = envelope_from_series(t, acc, n_est, j0=2.0)
    assert e.exponents[0] == 0
    assert all(b - a in (-1, 0, 1) for a, b in zip(e.exponents, e.exponents[1:]))
    assert all(v <= 0 for v in e.exponents)
    assert len(e.times) >= 8


def test_envelope_from_series_interpolates_crossings():
    # two integers crossed between the second and third samples
    e = envelope_from_series([0.0, 1.0, 2.0], [0.0, 0.5, 2.5], [1.0, 1.0, 1.0])
    assert e.times == (0.0, 1.25, 1.75)
    with pytest.raises(ValueError):
        envelope_from_series([0.0, 1.0], [1.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize("scat_accum, n_est", [([0.0, 0.5, 2.5], [1.0]), ([0.0, 0.5], [1.0, 1.0, 1.0])],
                         ids=["short-n_est", "short-scat_accum"])
def test_envelope_from_series_requires_one_length(scat_accum, n_est):
    # both raised IndexError
    with pytest.raises(ValueError, match=rf"one length, got 3, {len(scat_accum)} and {len(n_est)}$"):
        envelope_from_series([0.0, 1.0, 2.0], scat_accum, n_est)


@pytest.mark.parametrize("n_est", [[1.0, 1.0, 0.0], [1.0, np.inf, 1.0], [1.0, 1.0, np.nan],
                                   [1.0, 1.0, -2.0]], ids=["zero", "inf", "nan", "negative"])
def test_envelope_from_series_requires_finite_positive_estimates(n_est):
    # only the first estimate was checked: these raised OverflowError or
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="frequency-scale estimates must be positive"):
        envelope_from_series([0.0, 1.0, 2.0], [0.0, 0.5, 2.5], n_est)


def test_envelope_from_concentrating_trajectory():
    # a focusing 1D Gaussian above the ground-state mass crosses several
    # space-time units between samples as it concentrates
    from mcnls import EvolutionConfig, Field, evolve, make_grid

    g = make_grid(1, 1024, 16.0)
    u0 = Field(g, 1.3 * np.exp(-g.axis_x ** 2 / (2.0 * 1.5 ** 2)))
    series, _ = evolve(u0, EvolutionConfig(mu=-1, dt=1e-4, t_end=0.5, stride=200))
    acc = np.asarray(series.scat_accum)
    assert np.max(np.diff(np.floor(acc))) >= 2
    e = envelope_from_series(series.t, series.scat_accum, series.N_est)
    assert all(b > a for a, b in zip(e.times, e.times[1:]))
    assert e.n_intervals == int(np.floor(acc[-1]))
    em = smooth(e, 1)
    assert em.times == e.times
    assert certify_ratio(e, 1).bound_ok


def test_envelope_from_concentrating_trajectory_follows_n_est():
    # node heights are N_est over its largest value, so the envelope dips
    # below 1 while the solution concentrates
    from mcnls import EvolutionConfig, Field, evolve, make_grid

    g = make_grid(1, 1024, 16.0)
    u0 = Field(g, 1.3 * np.exp(-g.axis_x ** 2 / (2.0 * 1.5 ** 2)))
    series, _ = evolve(u0, EvolutionConfig(mu=-1, dt=1e-4, t_end=0.5, stride=200))
    e = envelope_from_series(series.t, series.scat_accum, series.N_est)
    assert min(e.exponents) <= -2


@pytest.mark.parametrize("args, rule", [
    (((0.0, float("nan"), 2.0), (0, -1, 0)), "breakpoint times must be finite"),
    (((0.0, 1.0, float("inf")), (0, -1, 0)), "breakpoint times must be finite"),
    (((0.0, 1.0, 2.0), (0, -1, 0), float("inf")), "lattice ratio J0 must be finite"),
    (((0.0, 1.0, 2.0), (0, -1, 0), float("nan")), "lattice ratio J0 must exceed 1"),
    (((0.0, 1.0), (0, -1.7)), "lattice exponents must be integers"),
    (((0.0, 1.0), (0, float("nan"))), "lattice exponents must be integers"),
    (((0.0, 1.0), (0, float("inf"))), "lattice exponents must be integers"),
], ids=["time-nan", "time-inf", "J0-inf", "J0-nan", "exponent-fraction", "exponent-nan",
        "exponent-inf"])
def test_envelope_validation_needs_finite_times_and_ratio_and_integral_exponents(args, rule):
    # the parent accepted the first three and the fractional exponent (truncated to -1)
    with pytest.raises(ValueError, match=f"^{rule}$"):
        PiecewiseEnvelope(*args)


def test_integral_exponents_of_any_type_are_stored_as_ints():
    for exps in [(0.0, -1.0), np.array([0, -1]), (np.int8(0), np.int8(-1))]:
        e = PiecewiseEnvelope((0, 1), exps)
        assert e.exponents == (0, -1) and all(type(v) is int for v in e.exponents)
        assert e.times == (0.0, 1.0) and all(type(v) is float for v in e.times)
    # an integer beyond float range breaks a lattice rule, not the conversion
    with pytest.raises(ValueError, match="node heights must not exceed 1"):
        PiecewiseEnvelope((0.0, 1.0), (0, 10 ** 400))


def test_random_envelope_names_the_vanished_interval():
    # at min_exponent = -40 a node lasts up to 2^80, and a later unit
    # interval vanished in the float sum of the breakpoint times
    with pytest.raises(ValueError, match="vanished.*min_exponent"):
        random_envelope(np.random.default_rng(2), 1000)
    e = random_envelope(np.random.default_rng(2), 1000, min_exponent=-20)
    assert all(b > a for a, b in zip(e.times, e.times[1:]))


# the per-node extrema and per-pass smoothing that the run table replaced,
# kept as the reference the table is checked against

def _reference_extrema(e):
    exp, last, out = e.exponents, len(e.exponents) - 1, []
    start = 0
    for i in range(1, last + 2):
        if i <= last and exp[i] == exp[start]:
            continue
        end, v = i - 1, exp[start]
        lv = exp[start - 1] if start > 0 else None
        rv = exp[end + 1] if end < last else None
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
            out.append(Extremum(kind, start, end, end - start, e.j0 ** v,
                                start == 0 or end == last))
        start = i
    return out


def _reference_smooth_once(e):
    exp = list(e.exponents)
    for pk in _reference_extrema(e):
        if pk.kind == "peak" and not pk.boundary:
            for i in range(pk.start, pk.end + 1):
                exp[i] -= 1
    return PiecewiseEnvelope(e.times, tuple(exp), e.j0)


def _lattice_walks(max_intervals):
    for n in range(1, max_intervals + 1):
        for steps in itertools.product((-1, 0, 1), repeat=n):
            exps = np.concatenate([[0], np.cumsum(steps)])
            if exps.max() <= 0:
                yield exps.tolist()


def _assert_matches_reference(e):
    assert detect_extrema(e) == _reference_extrema(e)
    ref = e
    for m in range(7):
        em = smooth(e, m)
        assert em.exponents == ref.exponents and em.times == e.times
        assert detect_extrema(em) == _reference_extrema(em)
        ref = _reference_smooth_once(ref)


def test_run_table_matches_the_reference_on_every_short_walk():
    walks = list(_lattice_walks(6))
    assert len(walks) == 418
    for exps in walks:
        _assert_matches_reference(_walk(exps))


def test_run_table_matches_the_reference_on_random_envelopes():
    rng = np.random.default_rng(4)
    for _ in range(200):
        _assert_matches_reference(random_envelope(rng, 120))
    _assert_matches_reference(sawtooth_envelope(50, j0=3.0))


def test_smooth_builds_one_envelope(monkeypatch):
    import mcnls.envelope as envelope

    built = []
    monkeypatch.setattr(envelope.PiecewiseEnvelope, "__post_init__",
                        lambda self, init=envelope.PiecewiseEnvelope.__post_init__:
                        (built.append(1), init(self)))
    e = random_envelope(np.random.default_rng(4), 120)
    for m in range(1, 7):
        built.clear()
        smooth(e, m)
        assert len(built) == 1
    assert smooth_once(e) == smooth(e, 1)


def test_certify_ratio_with_a_huge_j0_does_not_overflow():
    # J0^2 = 1e400 used to raise OverflowError on this valid envelope
    e = PiecewiseEnvelope((0.0, 1.0, 2.0), (0, -1, 0), 1e200)
    assert tuple(certify_ratio(e, 2)) == (2.0, 2.0, True)
    # J0^2 = 1e310 on a window of 2e300 time units: a cubic-mass term of 2.5e-11
    far = PiecewiseEnvelope((0.0, 1e300, 2e300), (0, -1, 0), 1e155)
    assert tuple(certify_ratio(far, 2)) == (2.0, 2.0, True)


def _certify_direct(e, m):
    """certify_ratio with cubic_mass / (2 J0^m) formed as written."""
    em = smooth(e, m)
    var_m, hsum0, psum = total_variation(em), smallinterval_height_sum(e), peak_height_sum(em)
    ok_a = var_m <= 2.0 * psum + 2.0 + 1e-12
    ok_b = hsum0 >= m * (1.0 + psum) - m + cubic_mass(e) / (2.0 * e.j0 ** m) - 1e-12
    return var_m, hsum0, bool(ok_a and ok_b)


def test_certify_ratio_equals_the_direct_bound_on_seeded_suites():
    from importlib.resources import files

    from mcnls.envelope import parse_envelope_csv

    rng = np.random.default_rng(4)
    suite = [random_envelope(rng, 120) for _ in range(100)]
    suite += [random_envelope(rng, 120, j0=3.0, min_exponent=-20) for _ in range(100)]
    suite += [parse_envelope_csv(files("mcnls").joinpath("data/sawtooth.csv").read_text()),
              sawtooth_envelope(50, j0=3.0)]
    for e in suite:
        for m in range(1, 7):
            assert tuple(certify_ratio(e, m)) == _certify_direct(e, m)
