import ast
from pathlib import Path

import numpy as np
import pytest

from mcnls import (
    Field,
    boundary_mass_fraction,
    gradient_norm_sq,
    lp_norm,
    make_grid,
    read_snapshot,
    write_snapshot,
)
from mcnls.grid import transforms
from mcnls.observables import _spectral_weight

from conftest import smooth_random_field


def test_make_grid_small_box():
    g = make_grid(1, 8, 4.0)
    assert g.h == 1.0
    assert np.allclose(g.axis_x, np.arange(-4, 4))
    assert np.allclose(sorted(g.axis_k), (np.pi / 4) * np.arange(-4, 4))


def test_make_grid_2d():
    g = make_grid(2, 256, 16.0)
    assert g.npoints == 65536
    assert g.h == 0.125
    assert g.h * g.n == 2 * g.L


# the last four L leave h, dk, L^2 or kmax^2 not finite and positive
@pytest.mark.parametrize("args", [(1, 7, 4.0), (1, 4, 4.0), (3, 8, 4.0),
                                  (1, 8, 0.0), (1, 8, -1.0), (1, 96, 4.0),
                                  (1, 64, 1e308), (1, 64, 1e-160), (1, 64, 1e300),
                                  (1, 64, 5e-324)])
def test_make_grid_rejects(args):
    with pytest.raises(ValueError):
        make_grid(*args)


def test_snapshot_rejects_an_infinite_half_width(tmp_path):
    # its Field used to read back with infinite mass
    import struct

    p = tmp_path / "s.mcnls"
    p.write_bytes(b"MCNLS1" + struct.pack("<BBId", 1, 1, 8, np.inf) + bytes(16 * 8))
    with pytest.raises(ValueError, match=r"half-width L = inf"):
        read_snapshot(p)


def test_field_rejects_nonfinite():
    g = make_grid(1, 8, 4.0)
    bad = np.ones(8, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)
    with pytest.raises(ValueError):
        Field(g, np.ones(7, dtype=complex))


@pytest.mark.parametrize("shape", [(64,), (1, 64), (64, 1)])
def test_field_rejects_right_size_in_the_wrong_shape(shape):
    # an 8 x 8 grid takes (8, 8) samples only: flat input of the right size is not reshaped
    with pytest.raises(ValueError, match="shape"):
        Field(make_grid(2, 8, 4.0), np.ones(shape, dtype=complex))


def _parseval_l2_sq(f):
    """(2pi)^{-d} integral |uhat|^2 dk as the Parseval sum the observables use."""
    fwd, _ = transforms(f.grid.d)
    return float(_spectral_weight(f.grid) * np.sum(np.abs(fwd(f.values)) ** 2))


def test_plancherel_many_fields():
    rng = np.random.default_rng(1)
    worst = 0.0
    g = make_grid(1, 128, 8.0)
    for _ in range(1000):
        vals = rng.normal(size=128) + 1j * rng.normal(size=128)
        f = Field(g, vals)
        a = lp_norm(f, 2) ** 2
        b = _parseval_l2_sq(f)
        worst = max(worst, abs(a - b) / a)
    assert worst < 1e-10


def test_lp_norm_indicator():
    g = make_grid(1, 64, 8.0)
    vals = np.zeros(64)
    vals[10:15] = 1.0  # 5 points of height 1
    f = Field(g, vals)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(f, p) == pytest.approx((5 * g.h) ** (1.0 / p), rel=1e-14)
    assert lp_norm(f, np.inf) == 1.0


def test_lp_norm_rejects_small_p():
    g = make_grid(1, 8, 4.0)
    with pytest.raises(ValueError):
        lp_norm(Field(g, np.ones(8)), 0.5)


def test_ground_state_mass(q_ref):
    # quadrature of the closed form against the known integral
    assert lp_norm(q_ref.field, 2) ** 2 == pytest.approx(np.sqrt(3) * np.pi / 2, abs=1e-6)


def test_gradient_norm_plane_wave():
    g = make_grid(1, 64, 8.0)
    k0 = 5 * g.dk
    f = Field(g, np.exp(1j * k0 * g.axis_x))
    assert gradient_norm_sq(f) == pytest.approx(k0 ** 2 * 2 * g.L, rel=1e-12)


def test_gradient_norm_gaussian():
    g = make_grid(1, 512, 16.0)
    f = Field(g, np.exp(-g.axis_x ** 2 / 2))
    assert gradient_norm_sq(f) == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-8)


def test_gradient_norm_constant():
    g = make_grid(1, 64, 8.0)
    assert gradient_norm_sq(Field(g, np.full(64, 2.0 + 1j))) < 1e-20


def test_quadrature_consistency_physical_vs_spectral():
    rng = np.random.default_rng(3)
    g = make_grid(1, 256, 16.0)
    f = smooth_random_field(g, rng)
    assert lp_norm(f, 2) ** 2 == pytest.approx(_parseval_l2_sq(f), rel=1e-10)


def test_boundary_mass_fraction():
    g = make_grid(1, 512, 16.0)
    center = Field(g, np.exp(-g.axis_x ** 2))
    assert boundary_mass_fraction(center) < 1e-10
    edge = Field(g, np.exp(-(np.abs(g.axis_x) - 16.0) ** 2))
    assert boundary_mass_fraction(edge) > 0.1


def test_snapshot_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    for d, n in ((1, 64), (2, 16)):
        g = make_grid(d, n, 8.0)
        f = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        p = tmp_path / f"snap{d}.mcnls"
        write_snapshot(f, p)
        back = read_snapshot(p)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)


def test_snapshot_keeps_signed_zeros_and_rewrites_byte_identical(tmp_path):
    g = make_grid(1, 8, 4.0)
    vals = np.arange(8) + 1j
    vals[2], vals[5] = complex(-0.0, 1.0), complex(2.0, -0.0)
    a, b = tmp_path / "a.mcnls", tmp_path / "b.mcnls"
    write_snapshot(Field(g, vals), a)
    back = read_snapshot(a)
    assert np.signbit(back.values[2].real) and np.signbit(back.values[5].imag)
    assert np.array_equal(np.signbit(back.values.view(np.float64)), np.signbit(vals.view(np.float64)))
    write_snapshot(back, b)
    assert b.read_bytes() == a.read_bytes()


def test_snapshot_layout(tmp_path):
    g = make_grid(1, 8, 4.0)
    f = Field(g, np.arange(8) + 1j)
    p = tmp_path / "s.mcnls"
    write_snapshot(f, p)
    raw = p.read_bytes()
    assert raw[:6] == b"MCNLS1"
    assert raw[6] == 1
    assert raw[7] == 1
    assert int.from_bytes(raw[8:12], "little") == 8
    assert len(raw) == 6 + 1 + 1 + 4 + 8 + 16 * 8


def test_snapshot_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.mcnls"
    p.write_bytes(b"NOTMAG" + bytes(20))
    with pytest.raises(ValueError):
        read_snapshot(p)


def test_cached_symbols_read_only_and_shared():
    from mcnls.grid import _derivative_axis, dealias_mask, k2_symbol, outer_annulus, r2_mesh

    for d in (1, 2):
        g = make_grid(d, 32, 8.0)
        same = make_grid(d, 32, 8.0)
        symbols = {
            "k2": k2_symbol,
            "dealias": dealias_mask,
            "r2": r2_mesh,
            "annulus": outer_annulus,
            "k": _derivative_axis,
        }
        for name, build in symbols.items():
            arr = build(g)
            assert build(same) is arr, name
            assert arr.shape == (g.shape if name != "k" else (g.n,)), name
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
        # the unpaired Nyquist mode (index n/2) is the only zeroed nonzero wavenumber
        line = _derivative_axis(g)
        assert line[16] == 0.0
        np.testing.assert_array_equal(np.delete(line, 16), np.delete(g.axis_k, 16))
    assert k2_symbol(make_grid(1, 32, 8.0)) is not k2_symbol(make_grid(1, 32, 4.0))


def test_snapshot_rejects_truncated_payload(tmp_path):
    g = make_grid(1, 16, 4.0)
    p = tmp_path / "s.mcnls"
    write_snapshot(Field(g, np.ones(16)), p)
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(p)


def test_snapshot_rejects_trailing_bytes(tmp_path):
    g = make_grid(2, 8, 4.0)
    p = tmp_path / "s.mcnls"
    write_snapshot(Field(g, np.ones(g.shape)), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(p)


def test_snapshot_header_size_checked_before_reading(tmp_path):
    # a 20-byte file whose header claims 2^40 complex samples (16 TiB)
    import struct

    p = tmp_path / "huge.mcnls"
    p.write_bytes(b"MCNLS1" + struct.pack("<BBId", 1, 2, 2 ** 20, 4.0))
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(p)


@pytest.mark.parametrize("shape", [(512,), (256, 256)])
def test_in_place_fft_matches_allocating_fft(shape):
    # the Strang loop transforms its work array in place (out= the input)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for transform in (np.fft.fftn, np.fft.ifftn):
        ref = transform(x)
        y = x.copy()
        out = transform(y, out=y)
        assert out is y
        assert np.array_equal(y, ref)


def _derivative_mesh(g):
    """Per-axis k_j on the full grid, unpaired Nyquist mode zeroed: the reference
    that the derivatives' broadcast axis vector must match."""
    ak = g.axis_k
    ak[g.n // 2] = 0.0
    return g._mesh(ak)


@pytest.mark.parametrize("d, n", [(1, 64), (1, 128), (2, 64), (2, 128)])
def test_derivatives_are_bit_equal_to_the_mesh_formula(d, n):
    # _gradient and spectral_derivative broadcast the wavenumber axis; the
    # products are those of the full k_j mesh, element by element
    from mcnls.grid import spectral_derivative
    from mcnls.observables import _gradient

    g = make_grid(d, n, 16.0)
    rng = np.random.default_rng(16)
    u = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    spec = np.fft.fftn(u)
    du = _gradient(g, spec)
    for j, k in enumerate(_derivative_mesh(g)):
        mult = 1j * k
        ref = np.fft.ifftn(mult * spec)
        assert np.array_equal(du[j].view(np.int64), ref.view(np.int64))
        ref = np.fft.ifftn(mult * np.fft.fftn(u))
        assert np.array_equal(spectral_derivative(Field(g, u), j).values.view(np.int64),
                              ref.view(np.int64))
    # axes index as they did into the tuple of meshes
    last = spectral_derivative(Field(g, u), d - 1).values
    assert np.array_equal(spectral_derivative(Field(g, u), -1).values, last)
    with pytest.raises(IndexError):
        spectral_derivative(Field(g, u), d)


def test_gradient_keeps_no_wavenumber_mesh_alive():
    # a full k_j mesh per axis would keep one more array alive (1.56 results)
    import tracemalloc

    from mcnls.observables import _gradient

    g = make_grid(2, 256, 16.0)
    spec = np.fft.fftn(smooth_random_field(g, np.random.default_rng(17)).values)
    _gradient(g, spec)
    tracemalloc.start()
    try:
        du = _gradient(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sum(a.nbytes for a in du)


@pytest.mark.parametrize("shape", [(512,), (64, 64), (256, 256)])
def test_preallocated_transforms_match_allocating_transforms(shape):
    # apply_multiplier and momentum_density transform into preallocated
    # arrays; the results stay bit-equal to the allocating form
    from mcnls.observables import momentum_density
    from mcnls.grid import apply_multiplier, k2_symbol

    g = make_grid(len(shape), shape[0], 16.0)
    rng = np.random.default_rng(12)
    real = rng.standard_normal(shape)
    cplx = real + 1j * rng.standard_normal(shape)
    mults = [-k2_symbol(g)] + [1j * k for k in _derivative_mesh(g)]
    for v in (real, cplx):
        for mult in mults:
            ref = np.fft.ifftn(mult * np.fft.fftn(v))
            assert np.array_equal(apply_multiplier(v, mult), ref)
    # a general complex multiplier keeps the operand order mult * spectrum
    phase = np.exp(1j * rng.standard_normal(shape))
    ref = np.fft.ifftn(np.multiply(phase, np.fft.fftn(cplx)))
    assert np.array_equal(apply_multiplier(cplx, phase), ref)

    f = Field(g, cplx)
    spec = np.fft.fftn(cplx)
    for pj, k in zip(momentum_density(f), _derivative_mesh(g)):
        mult = 1j * k
        du = np.fft.ifftn(mult * spec)
        assert np.array_equal(pj, np.imag(np.conj(cplx) * du))


_COMPLEX_TRANSFORMS = {"fft", "ifft", "fftn", "ifftn"}


def _complex_transform_uses(tree):
    """Line numbers naming numpy's complex transforms or its private ufuncs."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            on_fft = (isinstance(base, ast.Attribute) and base.attr == "fft"
                      and isinstance(base.value, ast.Name) and base.value.id in ("np", "numpy"))
            if (on_fft and node.attr in _COMPLEX_TRANSFORMS) or node.attr.startswith("_pocketfft"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            if any(a.name in _COMPLEX_TRANSFORMS or a.name.startswith("_pocketfft")
                   for a in node.names):
                lines.append(node.lineno)
    return lines


def test_complex_transforms_only_through_grid_entry_point():
    # every complex FFT goes through grid.transforms; real FFTs are free to use
    import mcnls

    src = Path(mcnls.__file__).parent
    offenders = {}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = _complex_transform_uses(ast.parse(text, filename=str(path)))
        if path.name == "grid.py":
            # grid may name the public transforms, never the private ufuncs
            assert "_pocketfft" not in text
            assert lines, "grid.transforms should name numpy's complex transforms"
        elif lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_transform_pair_is_named_by_grid_observables_and_evolution_only():
    # projections and symmetries resample through grid.resample
    import mcnls

    users = set()
    for path in sorted(Path(mcnls.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Name) and node.id == "transforms"
                    or isinstance(node, ast.alias) and node.name == "transforms"):
                users.add(path.name)
    assert users == {"grid.py", "observables.py", "evolution.py"}


def test_transform_guard_catches_direct_calls():
    src = ("import numpy as np\nfrom numpy.fft import ifftn\n"
           "a = np.fft.fftn(x)\nb = np.fft.rfftn(x)\nc = np.fft._pocketfft_umath.fft\n")
    assert _complex_transform_uses(ast.parse(src)) == [2, 3, 5]


@pytest.mark.parametrize("shape", [(512,), (128, 128)])
def test_transforms_entry_point_is_bit_equal_to_nd_forms(shape):
    from mcnls.grid import transforms

    fwd, inv = transforms(len(shape))
    rng = np.random.default_rng(13)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for mine, ref in ((fwd, np.fft.fftn), (inv, np.fft.ifftn)):
        y = x.copy()
        assert mine(y, out=y) is y
        assert np.array_equal(y, ref(x))
    out = np.empty(shape, dtype=complex)
    assert np.array_equal(fwd(x.real, out=out), np.fft.fftn(x.real))


def _n_grid_modes(n, d):
    """Positions of an n-grid's FFT-ordered modes inside its 2n-grid spectrum."""
    return np.ix_(*(np.r_[0:n // 2, -(n // 2):0],) * d)


def _pad_spectrum(spec):
    """The zero padding to the 2n grid that `resample` replaced, kept as its reference."""
    big = np.zeros((2 * spec.shape[0],) * spec.ndim, dtype=np.complex128)
    big[_n_grid_modes(spec.shape[0], spec.ndim)] = spec
    return big


def _truncate_spectrum(spec_big):
    """The truncation to the n grid that `resample` replaced, kept as its reference."""
    return spec_big[_n_grid_modes(spec_big.shape[0] // 2, spec_big.ndim)]


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64)])
def test_resample_is_bit_equal_to_padding_and_truncation(d, n):
    # both ways, against the pad/truncate formulas through numpy's allocating
    # n-d transforms; the dealiased nonlinearity and the zoom-in of rescale
    # resample the same way
    from mcnls.grid import resample
    from mcnls.projections import nonlinearity
    from mcnls.symmetries import rescale

    g = make_grid(d, n, 16.0)
    f = smooth_random_field(g, np.random.default_rng(14), width_frac=0.06)
    fine = np.fft.ifftn(_pad_spectrum(np.fft.fftn(f.values))) * (2 ** d)
    assert np.array_equal(resample(f.values, 2 * n), fine)
    power = 4 // d
    fbig = -1 * np.abs(fine) ** power * fine
    ref = np.fft.ifftn(_truncate_spectrum(np.fft.fftn(fbig)) / (2 ** d))
    assert np.array_equal(resample(fbig, n), ref)
    assert np.array_equal(nonlinearity(f, -1).values, ref)

    zoomed = 0.5 ** (d / 2.0) * fine[(slice(n // 2, n // 2 + n),) * d]
    assert np.array_equal(rescale(f, 0.5).values, zoomed)
    # the input is not written to, and a real input resamples as a complex one
    vals = f.values.real.copy()
    assert np.array_equal(resample(vals, n // 2), resample(vals + 0j, n // 2))
    assert np.array_equal(vals, f.values.real)


def test_resample_to_2n_keeps_two_fine_grid_arrays_alive():
    # the n-grid spectrum is dropped once it is embedded (it was 2.25 results)
    import tracemalloc

    from mcnls.grid import resample

    vals = smooth_random_field(make_grid(2, 256, 16.0), np.random.default_rng(15)).values
    resample(vals, 512)
    tracemalloc.start()
    try:
        out = resample(vals, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * out.nbytes


@pytest.mark.parametrize("m", [128, 32, 8, 0])
def test_resample_goes_to_twice_or_half_the_points_only(m):
    from mcnls.grid import resample

    with pytest.raises(ValueError, match=f"from n = 32 to 2n or n/2 points per axis, not {m}"):
        resample(np.ones(32, dtype=complex), m)


def test_mass_fraction_is_the_share_in_the_region():
    from mcnls.grid import _mass_fraction

    dens = np.array([1.0, 2.0, 3.0, 4.0])
    assert _mass_fraction(dens, slice(1, 3)) == 0.5
    assert _mass_fraction(dens, dens > 2.5) == 0.7
    assert _mass_fraction(np.zeros((4, 4)), (slice(1, 3),) * 2) == 0.0


@pytest.mark.parametrize("n", [8, 64, 256])
def test_boxed_transforms_match_plain_pair_inside_the_box(n):
    from mcnls.grid import boxed_transforms, dealias_mask

    g = make_grid(2, n, 16.0)
    keep = dealias_mask(g).astype(bool)
    rows, cols, inv = boxed_transforms(g, True)
    rng = np.random.default_rng(16)
    x = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    ref = np.fft.fftn(x)
    y = x.copy()
    assert rows(y, out=y) is y
    assert cols(y) is y
    assert np.array_equal(y[keep], ref[keep])
    # the row pass runs on any block of rows
    y, b = np.empty_like(x), n // 4
    for i in range(0, n, b):
        rows(x[i:i + b], out=y[i:i + b])
    assert np.array_equal(cols(y)[keep], ref[keep])
    # the inverse takes a masked spectrum and is bit-equal everywhere
    spec = dealias_mask(g) * x
    ref = np.fft.ifftn(spec)
    assert np.array_equal(inv(spec, out=np.full_like(spec, np.nan)), ref)
    assert inv(spec, out=spec) is spec
    assert np.array_equal(spec, ref)


def test_boxed_transforms_are_the_plain_pair_in_1d_or_without_dealiasing():
    from mcnls.grid import boxed_transforms, transforms

    rows, cols, inv = boxed_transforms(make_grid(1, 512, 16.0), True)
    assert (rows, inv) == transforms(1)
    x = np.random.default_rng(16).standard_normal(512) + 0j
    assert cols(x) is x
    g = make_grid(2, 64, 16.0)
    rows, cols, inv = boxed_transforms(g, False)
    assert inv is transforms(2)[1]
    x = np.random.default_rng(16).standard_normal(g.shape) + 0j
    y = rows(x, out=np.empty_like(x))
    assert cols(y) is y
    assert np.array_equal(y, np.fft.fftn(x))


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (2, 128)])
def test_padded_rfft_is_bit_equal_to_zero_padded_rfftn(d, n):
    from mcnls.grid import padded_rfft

    ref = lambda x: np.fft.rfftn(x, s=(2 * n,) * d, axes=tuple(range(d)))
    a, b = np.random.default_rng(17).standard_normal((2,) + (n,) * d)
    assert np.array_equal(padded_rfft(a), ref(a))
    out = np.full_like(ref(a), np.nan)
    assert padded_rfft(a, out) is out
    assert np.array_equal(out, ref(a))
    # a reused work array holds the previous spectrum, zero rows included
    assert np.array_equal(padded_rfft(b, out), ref(b))


def test_padded_rfft_2d_working_memory_is_its_output():
    # the 2n x (n+1) output is 516 KiB at n = 128; the allocating rfftn peaks at 776 KiB
    import tracemalloc

    from mcnls.grid import padded_rfft

    a = np.random.default_rng(19).standard_normal((128, 128))
    padded_rfft(a)
    tracemalloc.start()
    try:
        padded_rfft(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 * 1024


@pytest.mark.parametrize("dtype", [float, complex])
def test_real_multiplier_working_memory_is_its_result(dtype):
    # numpy casts real samples, and a real multiplier in a complex product, to a
    # full complex copy: the parent peaked at 2.0 results on real samples
    import tracemalloc

    from mcnls.grid import _times, apply_multiplier, k2_symbol

    g = make_grid(2, 256, 16.0)
    rng = np.random.default_rng(23)
    v = rng.standard_normal(g.shape).astype(dtype)
    if dtype is complex:
        v += 1j * rng.standard_normal(g.shape)
    mult = -k2_symbol(g)
    ref = np.fft.ifftn(mult * np.fft.fftn(v))
    assert np.array_equal(apply_multiplier(v, mult), ref)
    tracemalloc.start()
    try:
        out = apply_multiplier(v, mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes
    spec = np.fft.fftn(v)
    assert np.array_equal(_times(mult, spec), mult * spec)


def test_momentum_density_arrays_own_their_memory():
    # an np.imag view would keep the whole complex product alive
    from mcnls.observables import _gradient, _momentum_density, _spectrum

    g = make_grid(2, 64, 8.0)
    u = smooth_random_field(g, np.random.default_rng(29)).values
    du = _gradient(g, _spectrum(Field(g, u)))
    for pj, duj in zip(_momentum_density(u, du), du):
        assert pj.base is None and pj.dtype == np.float64
        assert np.array_equal(pj.view(np.int64), np.imag(np.conj(u) * duj).view(np.int64))


def test_write_csv_keeps_text_and_round_trips_numbers(tmp_path):
    from mcnls.grid import write_csv

    numbers = [1.0 / 3.0, 0.1, -2.5e-300, 5e-324, 1.7976931348623157e308, -0.0, 7,
               np.float64(np.pi), np.nextafter(1.0, 2.0)]
    texts = ["boundary", "", "1e5", "nan", "a b;c"]
    rows = [[v, texts[i % len(texts)]] for i, v in enumerate(numbers)]
    p = tmp_path / "table.csv"
    write_csv(p, ("value", "flags"), rows)
    data = p.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().split("\n")
    assert lines[0] == "value,flags" and lines[-1] == ""
    assert len(lines) == len(rows) + 2
    for (v, text), line in zip(rows, lines[1:]):
        cell, written = line.split(",", 1)
        assert written == text
        assert cell == format(float(v), ".17g")
        back = float(cell)
        assert back == v and np.signbit(back) == np.signbit(v)
    # 17 significant digits, not the shortest repr
    assert lines[1].split(",")[0] == "0.33333333333333331"
    assert lines[2].split(",")[0] == "0.10000000000000001"
