import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcnls import (
    EvolutionConfig,
    Field,
    admissible,
    concentration_estimates,
    evolve,
    free_pullback,
    lp_norm,
    make_grid,
    scattering_cauchy_difference,
    step_strang,
    strichartz_norm,
    variance_blowup_time,
    virial_check,
)
from mcnls.evolution import GRADIENT_GROWTH_FACTOR
from mcnls.observables import energy, mass
from mcnls.symmetries import galilean_boost, rescale


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(mu=0, dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(mu=1, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(mu=1, dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(mu=1, dt=1e-3, t_end=1.0, stride=0)
    # evolve took round(inf) steps and raised OverflowError
    for dt, t_end in [(5e-324, 1.0), (1e-3, 1e306)]:
        with pytest.raises(ValueError, match=r"t_end / dt = .* overflows"):
            EvolutionConfig(mu=1, dt=dt, t_end=t_end)


def test_plane_wave_dispersion_relation(grid512):
    # A e^{i(k0 x + w t)} with w = -k0^2 - mu |A|^4 is an exact solution
    g = grid512
    A, k0, mu = 0.7, 4 * g.dk, -1
    omega = -k0 ** 2 - mu * A ** 4
    u = Field(g, A * np.exp(1j * k0 * g.axis_x))
    dt = 1e-3
    for _ in range(1000):
        u = step_strang(u, dt, mu)
    exact = A * np.exp(1j * (k0 * g.axis_x + omega * 1.0))
    assert lp_norm(Field(g, u.values - exact), 2) < 1e-12 * A


def test_soliton_modulus_stationary(q512):
    f = q512.field
    cfg = EvolutionConfig(mu=-1, dt=1e-4, t_end=1.0, stride=2000)
    series, fin = evolve(f, cfg)
    assert series.outcome == "completed"
    drift = lp_norm(Field(f.grid, np.abs(fin.values) - np.abs(f.values)), 2)
    assert drift < 1e-6


def test_second_order_convergence(grid512):
    g = grid512
    f0 = Field(g, np.exp(-g.axis_x ** 2 / 2))

    def run(dt):
        u = f0
        for _ in range(int(round(0.5 / dt))):
            u = step_strang(u, dt, 1)
        return u

    ref = run(0.5 / 4096)
    e1 = lp_norm(Field(g, run(0.5 / 256).values - ref.values), 2)
    e2 = lp_norm(Field(g, run(0.5 / 512).values - ref.values), 2)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_mass_conserved_small_gaussian(grid512):
    g = grid512
    amp = np.sqrt(0.01 / np.sqrt(np.pi))
    f = Field(g, amp * np.exp(-g.axis_x ** 2 / 2))
    series, _ = evolve(f, EvolutionConfig(mu=1, dt=1e-2, t_end=10.0, stride=100))
    assert series.outcome == "completed"
    m = np.asarray(series.mass)
    assert np.max(np.abs(m - m[0])) / m[0] <= 1e-10


def test_scattering_accumulator_nondecreasing(grid512):
    g = grid512
    f = Field(g, 0.8 * np.exp(-g.axis_x ** 2 / 2))
    series, _ = evolve(f, EvolutionConfig(mu=1, dt=1e-3, t_end=0.3, stride=30))
    acc = np.asarray(series.scat_accum)
    assert np.all(np.diff(acc) >= 0)
    assert acc[-1] > 0


def test_evolve_takes_round_t_end_over_dt_steps():
    # t_end = 0.0104 is not a whole number of steps: evolve takes 10 and says so
    g = make_grid(1, 64, 16.0)
    f = Field(g, np.exp(-g.axis_x ** 2 / 2.0))
    cfg = EvolutionConfig(mu=1, dt=1e-3, t_end=0.0104)
    series, _ = evolve(f, cfg)
    assert series.outcome == "completed"
    assert series.t == [k * cfg.dt for k in range(11)]
    assert series.t[-1] == 0.01
    for doc in (EvolutionConfig.__doc__, evolve.__doc__):
        assert "round(t_end/dt)" in doc


def test_evolve_rejects_boundary_data(grid512):
    g = grid512
    f = Field(g, np.exp(-(np.abs(g.axis_x) - g.L) ** 2))
    with pytest.raises(ValueError):
        evolve(f, EvolutionConfig(mu=1, dt=1e-3, t_end=0.1))


def test_blowup_detection_and_state():
    g = make_grid(1, 1024, 16.0)
    f = Field(g, 1.6 * np.exp(-g.axis_x ** 2 / (2 * 1.0)))
    assert energy(f, -1) < 0
    series, fin = evolve(f, EvolutionConfig(mu=-1, dt=1e-4, t_end=2.0, stride=20,
                                            dealias=False))
    assert series.outcome == "blowup-suspected"
    assert "blowup" in series.flags[-1]
    assert series.kinetic[-1] >= GRADIENT_GROWTH_FACTOR * series.kinetic[0]
    assert np.all(np.isfinite(fin.values.view(np.float64)))


def test_variance_blowup_time(grid512):
    g = grid512
    f = Field(g, 1.4 * np.exp(-g.axis_x ** 2 / 2))
    E = energy(f, -1)
    assert E < 0
    T0 = variance_blowup_time(f, -1)
    from mcnls.observables import variance

    assert T0 == pytest.approx(np.sqrt(variance(f) / (-8 * E)), rel=1e-12)
    assert variance_blowup_time(Field(g, 0.1 * np.exp(-g.axis_x ** 2 / 2)), -1) is None


def test_virial_forced_and_free(grid512):
    g = grid512
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    series, _ = evolve(f, EvolutionConfig(mu=1, dt=1e-3, t_end=0.5, stride=50))
    assert virial_check(series) <= 0.01
    tiny = Field(g, 1e-6 * np.exp(-g.axis_x ** 2 / 2))
    series2, _ = evolve(tiny, EvolutionConfig(mu=1, dt=1e-3, t_end=0.5, stride=50))
    assert virial_check(series2) <= 0.01


def test_virial_soliton_absolute(q512):
    series, _ = evolve(q512.field,
                       EvolutionConfig(mu=-1, dt=1e-4, t_end=0.5, stride=250))
    assert virial_check(series, abs_floor=1.0) <= 1e-6


def test_virial_rejects_nonuniform(q512):
    series, _ = evolve(q512.field, EvolutionConfig(mu=-1, dt=1e-3, t_end=0.02, stride=4))
    series.t[2] += 1e-3
    with pytest.raises(ValueError):
        virial_check(series)


def test_free_pullback_of_free_flow(grid512):
    g = grid512
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    # evolve freely by spectral multiplication, then pull back
    u1 = free_pullback(f, -1.3)   # e^{і 1.3 Delta} f
    u2 = free_pullback(f, -2.6)
    d = scattering_cauchy_difference(u1, 1.3, u2, 2.6)
    assert d < 1e-10


def test_small_data_scatters_soliton_does_not(grid512):
    g = grid512
    amp = np.sqrt(0.1 * np.sqrt(3) * np.pi / 2 / np.sqrt(np.pi))
    f = Field(g, amp * np.exp(-g.axis_x ** 2 / 2))
    u, u5 = f, None
    for i in range(10000):
        u = step_strang(u, 1e-3, -1, dealias=True)
        if i == 4999:
            u5 = u
    small = scattering_cauchy_difference(u5, 5.0, u, 10.0)
    assert small < 1e-3  # frozen regression threshold

    from mcnls import closed_form_1d

    q = closed_form_1d(g)
    u, u5 = q.field, None
    for i in range(10000):
        u = step_strang(u, 1e-3, -1, dealias=True)
        if i == 4999:
            u5 = u
    sol = scattering_cauchy_difference(u5, 5.0, u, 10.0)
    assert sol > 10 * small  # non-scattering witness


def test_admissible_pairs():
    assert admissible(4, np.inf, 1)
    assert admissible(8, 4, 1)
    assert admissible(6, 6, 1)
    assert not admissible(2, np.inf, 2)  # p > 2 required when d = 2
    assert admissible(4, 4, 2)
    assert admissible(3, 6, 2)
    assert not admissible(3, 6, 1)  # scaling relation fails
    assert not admissible(3.5, np.inf, 1)  # p floor fails


def test_strichartz_soliton_growth(q512):
    g = q512.field.grid
    times = np.linspace(0.0, 4.0, 81)
    fields = [Field(g, np.exp(1j * t) * q512.field.values) for t in times]
    half = strichartz_norm(times[:41], fields[:41], 6, 6)
    full = strichartz_norm(times, fields, 6, 6)
    slope = np.log(full / half) / np.log(2.0)
    assert slope == pytest.approx(1.0 / 6.0, rel=0.02)


def test_strichartz_norm_at_p_inf_is_the_largest_sampled_norm(grid512):
    # |a|^inf is inf or 0 and its 1/inf-th power 1.0, whatever the trajectory
    g = grid512
    u = Field(g, 3.0 * np.exp(-g.axis_x ** 2 / 2.0))
    fields = [u]
    for _ in range(4):
        fields.append(step_strang(fields[-1], 1e-2, 1))
    norm = strichartz_norm(np.arange(5) * 1e-2, fields, np.inf, 2)
    assert norm == pytest.approx(max(np.sqrt(mass(f)) for f in fields), rel=1e-14)
    assert norm > 3.0


def test_concentration_estimates_symmetry(q20):
    f = q20.field
    for frac in (0.01, 0.05, 0.1):
        N, xi, x = concentration_estimates(f, frac * mass(f))
        assert abs(x[0]) <= f.grid.h
        assert abs(xi[0]) <= f.grid.dk
        assert 0.5 <= N <= 8.0


def test_concentration_estimates_boost_shift(q20):
    f = q20.field
    g = f.grid
    eta = 0.05 * mass(f)
    _, xi0, _ = concentration_estimates(f, eta)
    shift = 8 * g.dk
    _, xi1, _ = concentration_estimates(galilean_boost(f, [shift], 0.0), eta)
    assert abs(xi1[0] - xi0[0] - shift) <= g.dk


def test_concentration_estimates_scaling(q_ref):
    f = q_ref.field
    eta = 0.05 * mass(f)
    N0, _, x0 = concentration_estimates(f, eta)
    f4 = rescale(f, 4.0)
    N4, _, x4 = concentration_estimates(f4, 0.05 * mass(f4))
    assert N4 / N0 == pytest.approx(4.0, rel=0.5)
    assert abs(x4[0]) <= f.grid.h


def test_concentration_estimates_rejects_eta(q20):
    with pytest.raises(ValueError):
        concentration_estimates(q20.field, 0.0)
    with pytest.raises(ValueError):
        concentration_estimates(q20.field, 10 * mass(q20.field))


def test_galilean_covariance_of_flow(grid512):
    g = grid512
    f0 = Field(g, np.exp(-g.axis_x ** 2 / 2))
    xi0 = 8 * g.dk
    cfg = EvolutionConfig(mu=-1, dt=1e-3, t_end=0.5, stride=10 ** 9)
    _, ua = evolve(galilean_boost(f0, [xi0], 0.0), cfg)
    _, ub = evolve(f0, cfg)
    diff = lp_norm(Field(g, ua.values - galilean_boost(ub, [xi0], 0.5).values), 2)
    assert diff < 1e-8


def test_scaling_covariance_of_flow(grid512):
    g = grid512
    f0 = Field(g, np.exp(-g.axis_x ** 2 / 2))
    lam = 2.0
    cfg_fast = EvolutionConfig(mu=-1, dt=2e-4 / lam ** 2, t_end=0.5 / lam ** 2,
                               stride=10 ** 9)
    cfg_slow = EvolutionConfig(mu=-1, dt=2e-4, t_end=0.5, stride=10 ** 9)
    _, ua = evolve(rescale(f0, lam), cfg_fast)
    _, ub = evolve(f0, cfg_slow)
    diff = lp_norm(Field(g, ua.values - rescale(ub, lam).values), 2)
    assert diff < 1e-8


def test_diagnostics_csv_header(tmp_path, grid512):
    g = grid512
    f = Field(g, 0.3 * np.exp(-g.axis_x ** 2 / 2))
    series, _ = evolve(f, EvolutionConfig(mu=1, dt=1e-3, t_end=0.01, stride=5))
    p = tmp_path / "diag.csv"
    series.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == ("t,mass,energy,variance,kinetic,potential,momentum_x,"
                        "scat_accum,N_est,xi_x,x_x,flags")
    assert len(lines) == 1 + len(series.t)


def test_pseudoconformal_gradient_growth_under_evolution(q20):
    from mcnls import pseudoconformal_sample

    g = q20.field.grid
    v = pseudoconformal_sample(-1.0, g, q20)
    series, _ = evolve(v, EvolutionConfig(mu=-1, dt=1e-4, t_end=0.9, stride=1000))
    assert series.kinetic[-1] / series.kinetic[0] > 20.0


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64)])
def test_step_strang_iterates_to_evolve_final_field(d, n):
    g = make_grid(d, n, 16.0)
    xm = g.x_mesh()
    r2 = sum(x * x for x in xm)
    u0 = Field(g, 1.2 * np.exp(-r2 / 2.0) * np.exp(1j * 0.6 * xm[0]))
    cfg = EvolutionConfig(mu=-1, dt=1e-3, t_end=0.05, stride=50, dealias=True)
    series, final = evolve(u0, cfg)
    assert series.outcome == "completed" and len(series.t) == 2
    u = u0
    for _ in range(50):
        u = step_strang(u, cfg.dt, cfg.mu, dealias=True)
    scale = np.max(np.abs(final.values))
    assert np.max(np.abs(u.values - final.values)) <= 1e-13 * scale


def test_trajectory_yields_are_never_overwritten():
    from mcnls.evolution import _trajectory

    g = make_grid(2, 64, 16.0)
    xm = g.x_mesh()
    u0 = Field(g, 1.2 * np.exp(-(xm[0] ** 2 + xm[1] ** 2) / 2.0) * np.exp(1j * 0.6 * xm[0]))
    cfg = EvolutionConfig(mu=-1, dt=1e-3, t_end=0.02, stride=3, dealias=True)
    kept, copies = [], []
    for step, u, spec, _ in _trajectory(u0, cfg):
        kept.append((u, spec))
        copies.append((u.copy(), spec.copy()))
    assert len(kept) == 8
    for (u, spec), (u_c, spec_c) in zip(kept, copies):
        assert np.array_equal(u, u_c) and np.array_equal(spec, spec_c)
    # the yielded spectrum is the raw fftn of the yielded samples
    for u, spec in kept:
        assert np.max(np.abs(np.fft.fftn(u) - spec)) <= 1e-13 * np.max(np.abs(spec))


def _chirped_offcentre_gaussian(d):
    g = make_grid(d, 512 if d == 1 else 128, 16.0)
    xm = g.x_mesh()
    centre = (1.3, -0.7)[:d]
    r2 = sum((x - c) ** 2 for x, c in zip(xm, centre))
    phase = 0.3 * r2 + sum(k * x for k, x in zip((0.8, -0.5), xm))
    return Field(g, 1.1 * np.exp(-r2 / (2.0 * 1.4 ** 2)) * np.exp(1j * phase))


@pytest.mark.parametrize("d", [1, 2])
def test_spectral_momentum_matches_momentum_density(d):
    from mcnls.observables import kinetic, momentum, momentum_density

    f = _chirped_offcentre_gaussian(d)
    h_d = f.grid.h ** d
    direct = np.array([h_d * np.sum(p) for p in momentum_density(f)])
    got = momentum(f)
    assert np.max(np.abs(got)) > 0.1
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sqrt(mass(f) * kinetic(f))


@pytest.mark.parametrize("d", [1, 2])
def test_potential_matches_generic_power(d):
    from mcnls.observables import potential

    f = _chirped_offcentre_gaussian(d)
    q = 2.0 * (d + 2) / d
    ref = f.grid.h ** d * np.sum(np.abs(f.values) ** q)
    assert abs(potential(f) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64)])
def test_scat_accum_matches_per_step_reference(d, n):
    # the loop sums |u|^{2(d+2)/d} element-wise across steps and reduces it at
    # observation points; the reference sums dt h^d sum |u|^q after every step
    from mcnls.evolution import _kicks, _trajectory
    from mcnls.grid import dealias_mask

    g = make_grid(d, n, 16.0)
    xm = g.x_mesh()
    r2 = sum(x * x for x in xm)
    u0 = Field(g, 1.2 * np.exp(-r2 / 2.0) * np.exp(1j * 0.6 * xm[0]))
    cfg = EvolutionConfig(mu=-1, dt=1e-3, t_end=0.2, stride=7, dealias=True)
    half, _ = _kicks(g, cfg.dt, cfg.dealias)
    close = half * dealias_mask(g)
    q = 2.0 * (d + 2) / d
    w = g.h ** d
    u, ref, refs = u0.values, 0.0, [0.0]
    for _ in range(200):
        v = np.fft.ifftn(half * np.fft.fftn(u))
        amp = np.abs(v)
        ref += cfg.dt * w * np.sum(amp ** q)
        v = v * np.exp(-1j * cfg.mu * cfg.dt * amp ** (4.0 / d))
        u = np.fft.ifftn(close * np.fft.fftn(v))
        refs.append(ref)
    got = {step: scat for step, _, _, scat in _trajectory(u0, cfg)}
    assert sorted(got) == [0, *range(7, 200, 7), 200]
    for step, scat in got.items():
        assert abs(scat - refs[step]) <= 1e-13 * refs[-1]
    assert abs(got[200] - refs[200]) <= 1e-13 * refs[200]


def _linear_scan_n_est(g, sdens, xi_est, eta):
    # the search as first written: every dyadic N from 2^jlo up
    from mcnls.observables import _spectral_weight

    sq = [(g.axis_k - c) ** 2 for c in xi_est]
    dist2 = sq[0] if g.d == 1 else sq[0][:, None] + sq[1][None, :]
    smass = _spectral_weight(g) * sdens
    jlo = int(np.floor(np.log2(g.dk))) - 1
    jhi = int(np.ceil(np.log2(2.0 * np.pi * g.n / (2.0 * g.L) * (g.d + 1)))) + 1
    for j in range(jlo, jhi + 1):
        N = 2.0 ** j
        if float(smass[dist2 > N * N].sum()) < eta:
            return N, jlo, jhi
    return 2.0 ** jhi, jlo, jhi


def _check_warm_start(f, eta, n_start=None):
    from mcnls.evolution import _estimates_from_spec

    g = f.grid
    dens = np.abs(f.values) ** 2
    sdens = np.abs(np.fft.fftn(f.values)) ** 2
    cold = _estimates_from_spec(g, dens, sdens, eta)
    ref, jlo, jhi = _linear_scan_n_est(g, sdens, cold[1], eta)
    assert cold[0] == ref
    for start in [2.0 ** j for j in range(jlo - 2, jhi + 3)]:
        warm = _estimates_from_spec(g, dens, sdens, eta, start)
        assert warm[0] == ref
        assert np.array_equal(warm[1], cold[1]) and np.array_equal(warm[2], cold[2])
    if n_start is not None:
        assert _estimates_from_spec(g, dens, sdens, eta, n_start)[0] == ref
    return ref


@pytest.mark.parametrize("d, n", [(1, 512), (2, 128)])
def test_warm_started_scale_search_matches_linear_scan(d, n):
    from conftest import smooth_random_field

    g = make_grid(d, n, 16.0)
    rng = np.random.default_rng(15)
    for trial in range(4):
        f = smooth_random_field(g, rng, kmax_idx=5 + 20 * trial, width_frac=0.05 + 0.03 * trial)
        m = mass(f)
        for frac in (1e-6, 1e-3, 0.05, 0.5):
            _check_warm_start(f, frac * m)
    xm = g.x_mesh()
    # a lattice plane wave has all its mass at xi_est: the lowest level
    wave = Field(g, np.exp(1j * 5 * g.dk * xm[0]))
    assert _check_warm_start(wave, 0.05 * mass(wave)) == 2.0 ** (int(np.floor(np.log2(g.dk))) - 1)
    # a concentrating Gaussian sequence, each search started at the last scale
    r2 = sum(x * x for x in xm)
    prev, scales = None, []
    for width in (2.0, 1.0, 0.5, 0.25, 0.125, 0.25, 1.0):
        f = Field(g, np.exp(-r2 / (2.0 * width ** 2)) * np.exp(1j * 3 * g.dk * xm[0]))
        prev = _check_warm_start(f, 0.05 * mass(f), prev)
        scales.append(prev)
    assert scales[4] > scales[0] and scales[6] < scales[4]


def _reference_trajectory(f, cfg):
    # the loop before the boxed transform pair and the masked phase:
    # numpy's full n-d transforms, and cos and sin on every point
    from mcnls.grid import dealias_mask, k2_symbol

    g = f.grid
    half = np.exp(-0.5j * k2_symbol(g) * cfg.dt)
    close = half * dealias_mask(g) if cfg.dealias else half
    full = half * close
    nsteps = int(round(cfg.t_end / cfg.dt))
    w, c = g.h ** g.d, -cfg.mu * cfg.dt
    acc, scat = np.zeros(g.shape), 0.0
    spec = np.fft.fftn(f.values)
    yield 0, f.values, spec, scat
    kick, src = half, spec
    for step in range(1, nsteps + 1):
        v = np.fft.ifftn(kick * src)
        amp2 = v.real * v.real + v.imag * v.imag
        arg = amp2 * amp2
        if g.d == 1:
            acc += arg * amp2
            arg = c * arg
        else:
            acc += arg
            arg = c * amp2
        ph = np.empty(g.shape, dtype=complex)
        ph.real, ph.imag = np.cos(arg), np.sin(arg)
        buf = np.fft.fftn(v * ph)
        if step % cfg.stride == 0 or step == nsteps:
            scat += cfg.dt * float(w * acc.sum())
            acc[...] = 0.0
            spec = close * buf
            yield step, np.fft.ifftn(spec), spec, scat
            kick, src = half, spec
        else:
            kick, src = full, buf


def _non_negligible_fraction(f, cfg):
    from mcnls.evolution import NEGLIGIBLE_ANGLE

    amp2 = np.abs(f.values) ** 2
    angle = cfg.dt * (amp2 * amp2 if f.grid.d == 1 else amp2)
    return np.count_nonzero(angle >= NEGLIGIBLE_ANGLE) / angle.size


def _gaussian(d, n, amplitude=1.2, L=16.0):
    g = make_grid(d, n, L)
    xm = g.x_mesh()
    r2 = sum((x - 0.7) ** 2 for x in xm)
    return Field(g, amplitude * np.exp(-r2 / 2.0) * np.exp(1j * 0.6 * xm[0]))


def _box_filling(d, n):
    # a plane wave over a smooth random field: almost no angle is negligible
    from conftest import smooth_random_field

    g = make_grid(d, n, 16.0)
    f = smooth_random_field(g, np.random.default_rng(17), width_frac=0.3)
    return Field(g, f.values + 0.8 * np.exp(1j * 2 * g.dk * g.x_mesh()[-1]))


@pytest.mark.parametrize("case, dealias, mu, compacted", [
    ("gaussian-2d", True, 1, True),       # boxed pair and masked phase
    ("box-filling-2d", True, -1, True),   # boxed pair, dense mask
    ("gaussian-2d", False, -1, True),     # plain pair, masked phase
    ("gaussian-1d-8192", True, -1, True),  # masked phase
    ("box-filling-1d-8192", True, -1, True),  # masked phase, dense mask
    ("gaussian-1d-512", True, -1, False),  # neither
])
def test_trajectory_bit_equal_to_full_transform_reference(case, dealias, mu, compacted):
    from mcnls.evolution import COMPACT_MIN_POINTS, _trajectory

    f = {"gaussian-2d": lambda: _gaussian(2, 128),
         "box-filling-2d": lambda: _box_filling(2, 64),
         "gaussian-1d-8192": lambda: _gaussian(1, 8192),
         "box-filling-1d-8192": lambda: _box_filling(1, 8192),
         "gaussian-1d-512": lambda: _gaussian(1, 512)}[case]()
    cfg = EvolutionConfig(mu=mu, dt=1e-3, t_end=0.023, stride=5, dealias=dealias)
    if case.startswith("box-filling"):
        assert _non_negligible_fraction(f, cfg) > 0.9
    engaged = f.grid.npoints >= COMPACT_MIN_POINTS
    assert engaged == compacted
    got = list(_trajectory(f, cfg))
    ref = list(_reference_trajectory(f, cfg))
    assert [s[0] for s in got] == [s[0] for s in ref] == [0, 5, 10, 15, 20, 23]
    for (_, u, spec, scat), (_, u_ref, spec_ref, scat_ref) in zip(got, ref):
        assert np.array_equal(u, u_ref)
        assert np.array_equal(spec, spec_ref)
        assert scat == scat_ref


@pytest.mark.parametrize("case, dealias, mu, masked, block", [
    ("gaussian-2d-64", True, 1, True, 512),         # 8 blocks of 8 rows
    ("box-filling-2d-64", True, -1, False, 2048),   # 2 blocks, full phase
    ("gaussian-2d-64", False, -1, False, 1024),     # 4 blocks, plain pair
    ("gaussian-2d-128", True, -1, True, 4096),      # 4 blocks of 32 rows
    ("box-filling-2d-128", False, 1, True, 8192),   # 2 blocks, dense mask
    ("gaussian-1d-512", True, 1, True, 64),         # the whole line, masked
    ("box-filling-1d-512", False, -1, False, 64),   # the whole line
])
def test_row_blocked_trajectory_bit_equal_to_reference(monkeypatch, case, dealias, mu,
                                                       masked, block):
    # the nonlinear stage and the forward row pass run block by block, then
    # the column pass: every sample stays bit-equal to the full transforms
    from mcnls import evolution

    kind, d, n = case.rsplit("-", 2)
    f = (_gaussian if kind == "gaussian" else _box_filling)(int(d[0]), int(n))
    g = f.grid
    monkeypatch.setattr(evolution, "BLOCK_POINTS", block)
    monkeypatch.setattr(evolution, "COMPACT_MIN_POINTS", 0 if masked else g.npoints + 1)
    boxed, blocks = evolution.boxed_transforms, []

    def counted(grid, dealias):
        rows, cols, inv = boxed(grid, dealias)
        return lambda x, out: (blocks.append(x.shape[0]), rows(x, out=out))[1], cols, inv

    monkeypatch.setattr(evolution, "boxed_transforms", counted)
    cfg = EvolutionConfig(mu=mu, dt=1e-3, t_end=0.023, stride=5, dealias=dealias)
    got = list(evolution._trajectory(f, cfg))
    ref = list(_reference_trajectory(f, cfg))
    per_step = g.n if g.d == 1 else block // g.n
    assert set(blocks) == {per_step}
    assert len(blocks) == 23 * (g.n // per_step)
    assert [s[0] for s in got] == [s[0] for s in ref] == [0, 5, 10, 15, 20, 23]
    for (_, u, spec, scat), (_, u_ref, spec_ref, scat_ref) in zip(got, ref):
        assert np.array_equal(u, u_ref)
        assert np.array_equal(spec, spec_ref)
        assert scat == scat_ref


def test_negligible_phase_angles_give_exact_cos_and_sin():
    # below NEGLIGIBLE_ANGLE libm's cos is 1.0 and its sin the angle itself,
    # which the masked phase relies on to stay bit-equal
    from mcnls.evolution import NEGLIGIBLE_ANGLE

    rng = np.random.default_rng(18)
    tiny = np.finfo(float).smallest_subnormal
    mags = np.exp(rng.uniform(np.log(tiny), np.log(NEGLIGIBLE_ANGLE), 20000))
    mags = np.concatenate([mags, [0.0, tiny, np.finfo(float).tiny,
                                  np.nextafter(NEGLIGIBLE_ANGLE, 0.0)]])
    a = np.concatenate([mags, -mags])
    assert np.all(np.cos(a) == 1.0)
    assert np.array_equal(np.sin(a), a)
    assert np.array_equal(np.signbit(np.sin(a)), np.signbit(a))
    # the loop writes cos and sin into the strided halves of a complex array
    ph = np.empty(a.shape, dtype=complex)
    np.cos(a, out=ph.real)
    np.sin(a, out=ph.imag)
    assert np.all(ph.real == 1.0) and np.array_equal(ph.imag, a)
    # the loop calls an angle negligible when x < NEGLIGIBLE_ANGLE / |c| for
    # the angle c x; the largest such x gives an angle still below the bound
    for dt in (1e-5, 1e-4, 3e-4, 1e-3, 2.5e-3, 1e-2, 0.1):
        for c in (dt, -dt):
            x = np.nextafter(NEGLIGIBLE_ANGLE / abs(c), 0.0)
            assert abs(c * x) < NEGLIGIBLE_ANGLE


@settings(max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 700),
       density=st.floats(0.0, 1.0))
def test_masked_phase_equals_full_cos_and_sin_bitwise(seed, size, density):
    # the loop's masked phase: cos and sin with where= on the angles at or
    # above NEGLIGIBLE_ANGLE (and on a random share of the others), 1 + i a
    # elsewhere, written into the strided halves of a complex array
    from mcnls.evolution import NEGLIGIBLE_ANGLE

    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(1e-12), np.log(10.0), size)) * rng.choice([-1.0, 1.0], size)
    big = (np.abs(a) >= NEGLIGIBLE_ANGLE) | (rng.random(size) < density)
    ph = np.empty(size, dtype=complex)
    ph.imag = a
    ph.real.fill(1.0)
    np.cos(ph.imag, out=ph.real, where=big)
    np.sin(ph.imag, out=ph.imag, where=big)
    assert np.array_equal(ph.real, np.cos(a))
    assert np.array_equal(ph.imag, np.sin(a))
    assert np.array_equal(np.signbit(ph.imag), np.signbit(np.sin(a)))


def test_concentrating_2d_boxed_trajectory_stays_exact_and_finite():
    # a focusing Gaussian above the Townes mass, dealiased at n = 128: the
    # boxed pair carries the collapse until the 2/3 box arrests it, without
    # raising, with a finite final field and the reference loop's samples.
    # At this size the box caps the gradient growth far below
    # GRADIENT_GROWTH_FACTOR, so the run may complete.
    from mcnls.evolution import _Observed

    g = make_grid(2, 128, 8.0)
    xm = g.x_mesh()
    f = Field(g, 3.0 * np.exp(-(xm[0] ** 2 + xm[1] ** 2) / 2.0))
    assert mass(f) > 2.0 * 11.70  # twice the Townes mass 2 pi 1.8622
    cfg = EvolutionConfig(mu=-1, dt=1e-3, t_end=0.4, stride=50, dealias=True)
    series, final = evolve(f, cfg)
    assert series.outcome in ("completed", "blowup-suspected", "nan-abort")
    assert np.all(np.isfinite(final.values.view(np.float64)))
    assert max(series.kinetic) > 5.0 * series.kinetic[0]
    ref = [u for _, u, _, _ in _reference_trajectory(f, cfg)]
    run = _Observed(f, cfg)
    got = [s.u for s in run]
    assert len(got) == len(ref) == 9 and run.series.outcome == series.outcome
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    # a consumer that keeps every sample records the series evolve returns
    assert run.series.mass == series.mass and run.series.flags == series.flags


def test_trajectory_propagates_an_overflowing_phase_on_the_boxed_path():
    # |u|^2 overflows at the first nonlinear stage: the phase is NaN there,
    # and the boxed forward and inverse transforms spread it to every
    # sample, as the full transforms do (NaN * 0 = NaN in the dropped block)
    from mcnls.evolution import _trajectory

    g = make_grid(2, 64, 16.0)
    xm = g.x_mesh()
    f = Field(g, 1e160 * np.exp(-(xm[0] ** 2 + xm[1] ** 2)))
    cfg = EvolutionConfig(mu=-1, dt=1e-3, t_end=0.004, stride=2, dealias=True)
    with np.errstate(all="ignore"):
        got = list(_trajectory(f, cfg))
        ref = list(_reference_trajectory(f, cfg))
    assert len(got) == len(ref) == 3
    for (_, u, *_), (_, u_ref, *_) in zip(got[1:], ref[1:]):
        assert np.all(np.isnan(u)) and np.all(np.isnan(u_ref))


def test_kicks_cached_read_only_per_grid_dt_and_dealias():
    from mcnls.evolution import _kicks
    from mcnls.grid import dealias_mask

    g = make_grid(2, 64, 16.0)
    half, full = _kicks(g, 1e-3, True)
    close = half * dealias_mask(g)
    assert _kicks(g, 1e-3, True)[1] is full
    assert _kicks(g, 1e-3, False)[1] is not full
    assert not any(k.flags.writeable for k in (half, full))
    assert np.array_equal(full, half * close)


def _traced_peak_in_fields(run, f):
    # run once to fill the per-grid caches, empty the kick cache, then trace
    import tracemalloc

    from mcnls.evolution import _kicks

    run()
    _kicks.cache_clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / f.values.nbytes


def test_evolve_live_set_is_one_sample_and_two_kicks():
    # in field units (one n^2 complex array): two kicks, the work spectrum,
    # the scat_accum integrand, one block of scratch and one sample (u, spec,
    # |u|^2, |spec|^2) read 8.7 in evolve, the peak being the estimates'
    # temporaries, and 6.6 for the loop alone when the consumer drops each
    # sample (at 128^2 a block is half the grid).  With the full-grid phase
    # and three real scratch arrays they read 10.2 and 7.6.  Caching a third
    # kick and holding the previous sample while the next is built read 12.1
    # and 9.6; keeping only the observer's previous densities reads 10.6,
    # only the loop's previous u and spec 8.6.
    from mcnls.evolution import _trajectory

    f = _gaussian(2, 128)
    cfg = EvolutionConfig(mu=1, dt=1e-3, t_end=0.02, stride=5, dealias=True)

    def loop_alone():
        for s in _trajectory(f, cfg):
            del s

    assert _traced_peak_in_fields(lambda: evolve(f, cfg), f) < 10.4
    assert _traced_peak_in_fields(loop_alone, f) < 8.0


def test_256_squared_step_scratch_is_one_row_block():
    # at 256^2 a block is an eighth of the grid: evolve reads 7.8 field units
    # and the loop alone 5.8; with the full-grid phase, |u|^2, phase argument
    # and cos/sin mask they read 10.1 and 7.6
    from mcnls.evolution import _trajectory

    f = _gaussian(2, 256)
    cfg = EvolutionConfig(mu=1, dt=1e-3, t_end=0.02, stride=5, dealias=True)

    def loop_alone():
        for s in _trajectory(f, cfg):
            del s

    assert _traced_peak_in_fields(lambda: evolve(f, cfg), f) < 8.6
    assert _traced_peak_in_fields(loop_alone, f) < 6.5


def test_previous_sample_is_released_once_the_next_is_taken():
    import weakref

    from mcnls.evolution import _Observed, _trajectory

    f = _gaussian(2, 64)
    cfg = EvolutionConfig(mu=1, dt=1e-3, t_end=0.005, stride=1, dealias=True)
    traj = _trajectory(f, cfg)
    next(traj)
    _, u, spec, _ = next(traj)
    refs = [weakref.ref(a) for a in (u, spec)]
    del u, spec
    next(traj)
    assert all(r() is None for r in refs)

    run = _Observed(f, cfg)
    samples = iter(run)
    next(samples)
    s = next(samples)
    # the sample's row is in the series before the sample is yielded
    assert run.series.t == [0.0, cfg.dt]
    refs = [weakref.ref(a) for a in (s.u, s.spec, s.dens, s.sdens)]
    del s
    next(samples)
    assert all(r() is None for r in refs) and len(run.series.t) == 3
