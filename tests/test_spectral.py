import numpy as np
import pytest
from scipy.fft import dctn
from scipy.interpolate import CubicSpline

from borndisp import spectral
from borndisp.spectral import (
    Domain,
    DomainMismatchError,
    Field,
    RadialProfile,
    TransformDirection,
    bessel_weight_radius,
    field_from_function,
    fourier,
    make_grid,
    orthant_forward,
    orthant_inverse,
    row_slabs,
    slab_buffer,
)


def test_make_grid_metadata():
    g = make_grid(2, 256, 16.0)
    assert g.spacing == pytest.approx(0.125)
    assert g.freq_spacing == pytest.approx(np.pi / 16)
    assert g.nyquist_radius == pytest.approx(8 * np.pi)
    g3 = make_grid(3, 64, 8.0)
    assert g3.spacing == pytest.approx(0.25)
    assert g3.freq_spacing == pytest.approx(np.pi / 8)
    assert g3.nyquist_radius == pytest.approx(4 * np.pi)


@pytest.mark.parametrize("bad", [(2, 255, 16.0), (4, 64, 8.0), (2, 64, -1.0), (2, 6, 8.0)])
def test_make_grid_rejects(bad):
    with pytest.raises(ValueError):
        make_grid(*bad)


def test_gaussian_fourier_pair(grid2):
    f = field_from_function(grid2, lambda x: np.exp(-np.sum(x**2, axis=-1) / 2))
    fh = fourier(f, TransformDirection.FORWARD)
    rho = grid2.freq_radius()
    exact = 2 * np.pi * np.exp(-(rho**2) / 2)
    mask = rho <= 4.0
    rel = np.abs(fh.samples[mask] - exact[mask]) / exact[mask]
    assert rel.max() < 1e-8


def test_round_trip(grid2):
    rng = np.random.default_rng(0)
    f = Field(grid2, rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256)),
              Domain.SPACE)
    back = fourier(fourier(f, TransformDirection.FORWARD), TransformDirection.INVERSE)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-10 * np.max(np.abs(f.samples))


def _orthant_block(grid, samples):
    """Samples 0..N/2 per axis of a centred lattice array, in ifftshift order."""
    block = slice(0, grid.samples_per_axis // 2 + 1)
    return np.fft.ifftshift(samples)[(block,) * grid.dimension]


@pytest.mark.parametrize("n, N", [(2, 256), (3, 48)])
def test_orthant_transforms_match_full_lattice(n, N):
    grid = make_grid(n, N, 16.0)
    f = field_from_function(grid, lambda x: np.exp(-np.sum(x**2, axis=-1) / 2))
    fh = fourier(f, TransformDirection.FORWARD)
    x = np.exp(-grid.orthant_space_radius() ** 2 / 2)
    xh = orthant_forward(grid, x)()
    assert np.max(np.abs(xh - _orthant_block(grid, fh.samples))) < 1e-12 * np.max(np.abs(xh))
    back = orthant_inverse(grid, xh)
    assert np.max(np.abs(back - x)) < 1e-12
    # a slab of the forward output, and an input given as a function of a
    # row range, are made from the same slabs as the whole block
    rows = row_slabs(N // 2 + 1)[1]
    np.testing.assert_array_equal(orthant_forward(grid, x)(rows), xh[rows])
    np.testing.assert_array_equal(orthant_inverse(grid, lambda rows: xh[rows]), back)
    # each orthant point stands for its mirror images, N^n points in all
    assert grid.orthant_multiplicity(slice(None)).sum() == N**n


# slabs of one row, of a height that divides neither N/2 + 1 = 65 nor 49,
# and of the default height
@pytest.mark.parametrize("rows", [1, 6, None])
@pytest.mark.parametrize("n, N", [(2, 128), (3, 96)])
def test_forward_rows_into_a_buffer_equal_the_allocating_read(n, N, rows, monkeypatch):
    # the buffer takes the same products with the same row counts as the
    # read that allocates, so each slab is bit-equal to it
    if rows is not None:
        monkeypatch.setattr(spectral, "SLAB_ROWS", rows)
    grid, m = make_grid(n, N, 16.0), N // 2 + 1
    read = orthant_forward(grid, np.exp(-grid.orthant_space_radius(20) ** 2 / 2))
    buffer = slab_buffer(m, (m,) * (n - 1))
    for r in row_slabs(m):
        out = buffer(r)
        assert read(r, out=out) is out
        np.testing.assert_array_equal(out, read(r))
    whole = np.empty((m,) * n)
    assert read(out=whole) is whole
    np.testing.assert_array_equal(whole, read())


def test_readers_into_a_buffer_equal_the_allocating_reads():
    grid = make_grid(3, 48, 16.0)
    rows = row_slabs(25)[1]
    radius = grid.orthant_freq_radius(rows)
    out = np.empty_like(radius)
    assert grid.orthant_freq_radius(rows, out=out) is out
    np.testing.assert_array_equal(out, radius)
    # -1 and 2 are exponents that numpy's power takes by a shortcut
    for alpha in (-2.5, -2.0, 4.0, 0.7):
        ref = bessel_weight_radius(radius, alpha)
        assert bessel_weight_radius(out, alpha, out=out) is out
        np.testing.assert_array_equal(out, ref)
        out[...] = radius
    first, rest = grid.orthant_multiplicity_factors(7)
    assert first.shape == (7, 1, 1) and rest.shape == (7, 7)
    np.testing.assert_array_equal(first * rest, grid.orthant_multiplicity(slice(None), 7))


# block lengths N/2 + 1 = 9 and 10: odd and even
@pytest.mark.parametrize("n, N", [(2, 16), (2, 18), (3, 16), (3, 18)])
def test_orthant_transforms_match_scipy_dct1(n, N):
    grid = make_grid(n, N, 4.0)
    x = np.random.default_rng(N + n).normal(size=(N // 2 + 1,) * n)
    ref = dctn(x, type=1)
    h = grid.spacing
    fwd = orthant_forward(grid, x)()
    assert np.max(np.abs(fwd - ref * h**n)) <= 1e-13 * np.max(np.abs(fwd))
    inv = orthant_inverse(grid, x)
    assert np.max(np.abs(inv - ref / (N * h) ** n)) <= 1e-13 * np.max(np.abs(inv))


def _longdouble_dct1(x):
    """DCT-I on every axis as a direct cosine sum in extended precision, with
    the angle reduced as the integer j k mod 2m - 2."""
    m = x.shape[0]
    jk = np.multiply.outer(np.arange(m), np.arange(m)) % (2 * m - 2)
    pi = 4 * np.arctan(np.longdouble(1))
    C = np.cos(pi * jk.astype(np.longdouble) / (m - 1))
    C[:, 1:-1] *= 2
    y = x.astype(np.longdouble)
    for axis in range(x.ndim):
        y = np.moveaxis(np.tensordot(C, y, axes=([1], [axis])), 0, axis)
    return y


# b_in samples per axis in, b_out out: the whole block (m -> m), a corner
# with zeros beyond it (b < m -> m) and the first outputs only (m -> b), at
# odd and even m
@pytest.mark.parametrize("n, m, b_in, b_out", [
    pytest.param(3, 65, 65, 65, id="3-65"),
    pytest.param(2, 129, 129, 129, id="2-129"),
    pytest.param(3, 65, 12, 65, id="3-65-in12"),
    pytest.param(3, 64, 29, 64, id="3-64-in29"),
    pytest.param(2, 129, 40, 129, id="2-129-in40"),
    pytest.param(2, 128, 17, 128, id="2-128-in17"),
    pytest.param(3, 65, 65, 29, id="3-65-out29"),
    pytest.param(3, 64, 64, 12, id="3-64-out12"),
    pytest.param(2, 129, 129, 33, id="2-129-out33"),
    pytest.param(2, 128, 128, 40, id="2-128-out40"),
])
def test_orthant_transforms_match_longdouble_dct1(n, m, b_in, b_out):
    grid = make_grid(n, 2 * (m - 1), 16.0)
    x = np.zeros((m,) * n)
    corner = (slice(0, b_in),) * n
    x[corner] = np.random.default_rng(m + n).normal(size=(b_in,) * n)
    ref = _longdouble_dct1(x)[(slice(0, b_out),) * n]
    scale = np.max(np.abs(ref))
    fwd = orthant_forward(grid, x[corner])()[(slice(0, b_out),) * n] / grid.spacing**n
    assert fwd.shape == ref.shape
    assert np.max(np.abs(fwd - ref)) <= 1e-14 * scale
    inv = orthant_inverse(grid, x[corner], b_out) * (grid.samples_per_axis * grid.spacing) ** n
    assert inv.shape == ref.shape
    assert np.max(np.abs(inv - ref)) <= 1e-14 * scale


@pytest.mark.parametrize("shape, size", [((66,) * 3, None), ((10, 12), None),
                                         ((10,) * 2, 66), ((10,) * 2, 0)])
def test_orthant_transforms_refuse_blocks_past_the_orthant(shape, size):
    # N = 128: the orthant has m = 65 samples per axis
    grid = make_grid(len(shape), 128, 16.0)
    with pytest.raises(ValueError):
        orthant_inverse(grid, np.ones(shape), size)


@pytest.mark.parametrize("n, N, L", [(2, 256, 16.0), (3, 48, 16.0), (3, 18, 4.0)])
def test_radius_equals_meshgrid_formula(n, N, L):
    grid = make_grid(n, N, L)

    def meshgrid_radius(axis):
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        return np.sqrt(sum(m**2 for m in mesh))

    orthant = np.arange(N // 2 + 1)
    np.testing.assert_array_equal(grid.freq_radius(), meshgrid_radius(grid.freq_axis()))
    np.testing.assert_array_equal(grid.orthant_space_radius(),
                                  meshgrid_radius(grid.spacing * orthant))
    whole = grid.orthant_freq_radius(slice(None))
    np.testing.assert_array_equal(whole, meshgrid_radius(grid.freq_spacing * orthant))
    # a corner, or a slab of first-axis rows, of the orthant has the values
    # of the whole block there
    corner = (slice(0, 5),) * n
    np.testing.assert_array_equal(grid.orthant_space_radius(5),
                                  grid.orthant_space_radius()[corner])
    np.testing.assert_array_equal(grid.orthant_multiplicity(slice(None), 5),
                                  grid.orthant_multiplicity(slice(None))[corner])
    rows = slice(3, 7)
    np.testing.assert_array_equal(grid.orthant_freq_radius(rows), whole[rows])
    np.testing.assert_array_equal(grid.orthant_multiplicity(rows),
                                  grid.orthant_multiplicity(slice(None))[rows])


def test_impulse_has_flat_spectrum():
    g = make_grid(2, 32, 8.0)
    s = np.zeros((32, 32), dtype=complex)
    s[16, 16] = 1.0
    fh = fourier(Field(g, s, Domain.SPACE), TransformDirection.FORWARD)
    mags = np.abs(fh.samples)
    assert np.allclose(mags, mags[0, 0])


def test_domain_mismatch(grid2):
    f = field_from_function(grid2, lambda x: np.exp(-np.sum(x**2, axis=-1)))
    fh = fourier(f, TransformDirection.FORWARD)
    with pytest.raises(DomainMismatchError):
        fourier(fh, TransformDirection.FORWARD)
    with pytest.raises(DomainMismatchError):
        fourier(f, TransformDirection.INVERSE)


def test_plancherel(grid2):
    rng = np.random.default_rng(1)
    f = Field(grid2, (rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))),
              Domain.SPACE)
    fh = fourier(f, TransformDirection.FORWARD)
    space = np.sum(np.abs(f.samples) ** 2) * grid2.spacing**2
    freq = np.sum(np.abs(fh.samples) ** 2) * grid2.freq_spacing**2 / (2 * np.pi) ** 2
    assert space == pytest.approx(freq, rel=1e-9)


def test_bessel_weight_values():
    assert bessel_weight_radius(0.0, 7.0) == pytest.approx(1.0)
    assert bessel_weight_radius(np.sqrt(3.0), -5.0) == pytest.approx(2.0**-5)
    assert bessel_weight_radius(1.0, 2.0) == pytest.approx(2.0)
    rs = np.linspace(0, 10, 50)
    assert np.all(np.diff(bessel_weight_radius(rs, -2.5)) < 0)


def test_radial_profile_tail_extrapolation():
    r = np.linspace(0.0, 10.0, 201)
    vals = (1.0 + r**2) ** -1.25
    prof = RadialProfile(r, vals)
    prof.fit_tail()
    assert prof.tail_exponent == pytest.approx(2.5, abs=1e-6)
    assert prof(20.0) == pytest.approx((1 + 400.0) ** -1.25, rel=1e-3)
    # vectorized call mixing interior and tail radii
    mixed = prof(np.array([1.0, 5.0, 15.0, 30.0]))
    assert mixed.shape == (4,)
    assert np.all(mixed > 0)
    # below the first radius the profile takes the first value
    inner = RadialProfile(r[10:], vals[10:])
    assert inner(0.0) == vals[10]
    assert np.all(inner(np.array([0.0, 0.2, r[10]])) == vals[10])


def _spline_reference(prof, rho):
    """The profile read through scipy's not-a-knot CubicSpline, with the
    same first value below and the same tail past the table."""
    r0, r1 = prof.radii[0], prof.radii[-1]
    inside = CubicSpline(prof.radii, prof.values)(np.clip(rho, r0, r1))
    if prof.tail_exponent is None:
        tail = 0.0
    else:
        tail = prof.tail_coefficient * bessel_weight_radius(rho, -prof.tail_exponent)
    return np.where(rho > r1, tail, inside)


def test_radial_profile_matches_cubic_spline_on_random_knots():
    rng = np.random.default_rng(3)
    tables = []
    for m in (4, 5, 17, 160):
        radii = np.cumsum(rng.uniform(0.05, 1.0, m))
        tables.append((radii, rng.normal(size=m)))
    # a knot gap 1e-9 of the span, off the even spacing of the others
    squeezed = np.sort(np.concatenate([np.linspace(0.0, 10.0, 30), [5.0, 5.0 + 1e-8]]))
    tables.append((squeezed, np.cos(squeezed)))
    for radii, values in tables:
        prof = RadialProfile(radii, values)
        rho = np.concatenate([
            rng.uniform(0.0, radii[-1] + 2.0, 4000), radii,
            np.nextafter(radii, -np.inf), np.nextafter(radii, np.inf),
            radii[0] - rng.uniform(0.0, 5.0, 50),    # below the table
            radii[-1] + rng.uniform(0.0, 50.0, 50),  # past it
        ])
        ref = _spline_reference(prof, rho)
        assert np.max(np.abs(prof(rho) - ref)) <= 1e-13 * np.max(np.abs(values))


def test_radial_profile_matches_cubic_spline_on_gbeta_table(gbeta3):
    prof = gbeta3.fourier_profile
    rng = np.random.default_rng(4)
    rho = np.concatenate([
        [0.0, 0.5 * prof.radii[0]],                    # below the table
        rng.uniform(prof.radii[0], prof.radii[-1], 4000), prof.radii,
        rng.uniform(prof.radii[-1], 3.0 * prof.radii[-1], 100),  # past it
    ])
    ref = _spline_reference(prof, rho)
    assert np.all(ref > 0)
    assert np.max(np.abs(prof(rho) / ref - 1.0)) <= 1e-13


def test_radial_profile_short_tables():
    # two knots give the line and three the parabola, as in CubicSpline
    for radii, values in (([1.0, 3.0], [2.0, -1.0]), ([0.5, 1.0, 2.5], [1.0, -2.0, 3.0])):
        prof = RadialProfile(radii, values)
        rho = np.linspace(radii[0], radii[-1], 41)
        ref = CubicSpline(radii, values)(rho)
        assert np.max(np.abs(prof(rho) - ref)) <= 1e-13 * np.max(np.abs(values))
    with pytest.raises(ValueError, match="at least 2 radii, got 1"):
        RadialProfile([1.0], [2.0])


def test_radial_profile_array_read_equals_scalar_reads(gbeta3):
    r = np.linspace(0.0, 10.0, 201)
    with_tail = RadialProfile(r, (1.0 + r**2) ** -1.25)
    with_tail.fit_tail()
    for prof in (gbeta3.fourier_profile, with_tail, RadialProfile(r, np.cos(r))):
        edge = prof.radii[-1]
        rho = np.concatenate([[0.0, edge, np.nextafter(edge, np.inf)],
                              np.linspace(0.0, 3.0 * edge, 301)])
        rho = np.random.default_rng(7).permutation(rho)
        values = prof(rho)
        assert np.any(rho > edge) and np.any(rho <= edge)
        np.testing.assert_array_equal(values, [prof(float(x)) for x in rho])
        if prof.tail_exponent is None:
            assert np.all(values[rho > edge] == 0.0)
