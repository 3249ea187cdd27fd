import json
import tracemalloc

import numpy as np
import pytest

from borndisp import spectral
from borndisp.dispersion import CutoffSpec
from borndisp.geometry import Direction
from borndisp.potentials import (
    GBetaSpec,
    GridTooCoarseError,
    gaussian_potential,
    make_gbeta,
    standard_mollifier,
)
from borndisp.spectral import (
    Domain,
    Field,
    RadialProfile,
    TransformDirection,
    bessel_weight_radius,
    fourier,
    make_grid,
    orthant_forward,
    orthant_inverse,
)


def test_gaussian_potential(grid2):
    q = gaussian_potential(0.5, grid2)
    assert q.fourier_eval(np.zeros(2)) == pytest.approx(2 * np.pi)
    assert q.analytic_fourier and q.fourier_profile is None
    assert q.spatial_eval(np.array([1.0, 0.0])) == pytest.approx(np.exp(-0.5))
    with pytest.raises(ValueError):
        gaussian_potential(-1.0, grid2)


@pytest.mark.parametrize("case", ["gauss3", "gbeta3"])
def test_fourier_radial_in_place_equals_allocating(case, request):
    # the kernel reads q_hat into its own squared radii; that read must give
    # the allocating read's values bit for bit, below, inside and past the
    # table, and on a 0-d array
    q = request.getfixturevalue(case)
    f = q.fourier_radial
    edges = request.getfixturevalue("gbeta3").fourier_profile.radii
    rho = np.concatenate([
        [0.0, 0.5 * edges[0], edges[0]],
        np.random.default_rng(4).uniform(edges[0], edges[-1], 61),
        edges[1:-1:7], [edges[-1], np.nextafter(edges[-1], np.inf)],
        edges[-1] * np.array([1.5, 4.0, 40.0]),
    ])
    s = np.tile(rho**2, (3, 1))
    fresh = f(s)
    buf = s.copy()
    assert f(buf, out=buf) is buf
    assert buf.tobytes() == fresh.tobytes()
    for x in s.ravel():
        cell = np.array(x)
        f(cell, out=cell)
        assert cell.tobytes() == np.float64(f(x)).tobytes()
        assert cell.tobytes() == np.float64(f(np.array(x))).tobytes()


def test_bump_radius_guard(grid2):
    # the bump phi = psi * psi has support 2 bump_radius, which must fit the grid
    with pytest.raises(ValueError):
        GBetaSpec(beta=1.0, bump_radius=5.0, grid=grid2)


@pytest.mark.parametrize("bump", [0.05, 0.25])
def test_bump_below_lattice_spacing_refused(bump):
    # at h = 0.25 the mollifier keeps only its origin sample, and a lattice
    # delta has a flat transform; a bump just past h is resolved
    grid = make_grid(3, 128, 16.0)
    with pytest.raises(ValueError, match="h = 0.25"):
        GBetaSpec(beta=1.0, bump_radius=bump, grid=grid)
    GBetaSpec(beta=1.0, bump_radius=0.3, grid=grid)


@pytest.mark.parametrize("make, why", [
    (lambda: Direction(np.array([np.nan, 0.0])), "unit length"),
    (lambda: CutoffSpec(C0=np.nan), "C0 must exceed 1"),
    (lambda: GBetaSpec(beta=np.nan, bump_radius=2.0, grid=make_grid(3, 128, 16.0)),
     "beta must be positive"),
    (lambda: gaussian_potential(np.nan, make_grid(3, 64, 16.0)), "a must be positive"),
    (lambda: make_grid(3, 64, np.nan), "half_extent must be positive"),
], ids=["Direction", "CutoffSpec", "GBetaSpec", "gaussian_potential", "make_grid"])
def test_library_checks_refuse_nan(make, why):
    # NaN fails every comparison, so a check written as "refuse if x <= 0"
    # lets it through
    with pytest.raises(ValueError, match=why):
        make()


@pytest.mark.parametrize("n, N, L, bump", [(3, 128, 16.0, 2.0), (3, 96, 16.0, 4.0),
                                           (2, 256, 16.0, 2.3)])
def test_phi_vanishes_outside_its_support_box(n, N, L, bump):
    # make_gbeta computes phi = psi * psi only on the corner of 2 b_psi - 1
    # samples per axis; the full-orthant phi is rounding noise outside it
    grid = make_grid(n, N, L)
    m = N // 2 + 1
    b_psi = 1 + np.flatnonzero(standard_mollifier(grid.spacing * np.arange(m), bump))[-1]
    psi_hat = orthant_forward(grid, standard_mollifier(grid.orthant_space_radius(), bump))()
    phi = orthant_inverse(grid, psi_hat**2)
    outside = np.ones(phi.shape, dtype=bool)
    outside[(slice(0, 2 * b_psi - 1),) * n] = False
    assert np.max(np.abs(phi[outside])) <= 1e-15 * np.max(np.abs(phi))


def test_gbeta_flags_and_positivity(gbeta3):
    q = gbeta3
    assert not q.analytic_fourier and q.fourier_profile is not None
    assert q.support_radius == pytest.approx(4.0)
    assert q.meta["ghat_zero"] > 0
    assert q.meta["ghat_min"] >= -1e-8 * q.meta["ghat_zero"]


def test_gbeta_rotation_invariance(gbeta3):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    R, _ = np.linalg.qr(a)
    xi = np.array([3.0, 1.0, -2.0])
    assert abs(gbeta3.fourier_eval(R @ xi) - gbeta3.fourier_eval(xi)) <= 1e-8


def test_gbeta_lower_bound_estimate(gbeta3):
    # ghat >= C <xi>^{-n/2-beta} for |xi| beyond a small radius, with C > 0
    prof = gbeta3.fourier_profile
    mask = prof.radii > 2.0
    ratio = prof.values[mask] * (1 + prof.radii[mask] ** 2) ** 1.25
    assert np.min(ratio) > 0


def test_gbeta_grid_too_coarse():
    with pytest.raises(GridTooCoarseError):
        make_gbeta(GBetaSpec(beta=0.2, bump_radius=1.0, grid=make_grid(3, 16, 16.0)))


def _full_lattice_gbeta(spec):
    """Reference synthesis of g_beta with four complex ``fourier`` calls on
    the full N^n lattice and unweighted shell averages."""
    grid, n, beta = spec.grid, spec.grid.dimension, spec.beta
    N = grid.samples_per_axis

    def shell_average(r, v, width):
        idx = np.floor(r.ravel() / width).astype(int)
        count = np.bincount(idx)
        return (np.bincount(idx, weights=r.ravel()) / count,
                np.bincount(idx, weights=v.ravel()) / count)

    freq_r = grid.freq_radius()
    # |x| = h |m| from the lattice index, so that mirror images share one
    # value; -L + h j rounds them apart when h is not a power of two
    mesh = np.meshgrid(*([grid.spacing * (np.arange(N) - N // 2)] * n), indexing="ij")
    space_r = np.sqrt(sum(m**2 for m in mesh))

    kernel = bessel_weight_radius(freq_r, -(n / 2.0 + beta)).astype(complex)
    G = fourier(Field(grid, kernel, Domain.FREQUENCY), TransformDirection.INVERSE).samples.real
    psi = Field(grid, standard_mollifier(space_r, spec.bump_radius).astype(complex),
                Domain.SPACE)
    psi_hat = fourier(psi, TransformDirection.FORWARD).samples.real
    phi = fourier(Field(grid, (psi_hat**2).astype(complex), Domain.FREQUENCY),
                  TransformDirection.INVERSE).samples.real
    g = phi * G
    ghat = fourier(Field(grid, g.astype(complex), Domain.SPACE),
                   TransformDirection.FORWARD).samples.real

    radii, values = shell_average(freq_r, ghat, grid.freq_spacing)
    keep = radii <= 0.98 * np.sqrt(n) * grid.nyquist_radius
    profile = RadialProfile(radii[keep], values[keep])
    profile.fit_tail()
    sp_radii, sp_values = shell_average(space_r, g, grid.spacing)
    sp_keep = sp_radii <= 2.0 * spec.bump_radius + 2.0 * grid.spacing
    return profile, RadialProfile(sp_radii[sp_keep], sp_values[sp_keep]), ghat.min()


# the bump at the guard limit 2 bump = L/2 gives the largest support box;
# at bump 2.3 the spatial cut 2 bump + 2h is no multiple of h
@pytest.mark.parametrize("n, N, L, bump", [
    pytest.param(2, 256, 16.0, 2.0, id="2-256"),
    pytest.param(3, 96, 16.0, 2.0, id="3-96"),
    pytest.param(3, 96, 16.0, 4.0, id="3-96-16.0-4.0"),
    pytest.param(2, 256, 16.0, 2.3, id="2-256-16.0-2.3"),
])
def test_gbeta_matches_full_lattice_synthesis(n, N, L, bump):
    spec = GBetaSpec(beta=1.0, bump_radius=bump, grid=make_grid(n, N, L))
    ref, ref_spatial, ref_min = _full_lattice_gbeta(spec)
    q = make_gbeta(spec)
    prof, spatial = q.fourier_profile, q.spatial_radial.profile

    def close(a, b, scale=None):
        # relative to the largest reference value, or to the given scale
        scale = np.max(np.abs(b)) if scale is None else scale
        assert np.max(np.abs(np.asarray(a) - b)) <= 1e-11 * scale

    close(prof.radii, ref.radii)
    close(prof.values, ref.values)
    close(prof.tail_exponent, ref.tail_exponent)
    close(prof.tail_coefficient, ref.tail_coefficient)
    close(q.meta["ghat_zero"], ref(0.0))
    close(q.meta["ghat_min"], ref_min, scale=ref(0.0))
    close(spatial.radii, ref_spatial.radii)
    close(spatial.values, ref_spatial.values)


def test_gbeta_memory():
    # the four transforms on the (N/2 + 1)^3 orthant, not on N^3 complex
    # arrays, phi, G and g only on the corner that holds phi's support, and
    # the frequency side streamed in slabs of first-axis rows, so that no
    # (N/2 + 1)^3 array is held; N = 192 is the synth-n3 benchmark's grid
    for N, limit in [(128, 6e6), (192, 14e6)]:
        spec = GBetaSpec(beta=1.0, bump_radius=2.0, grid=make_grid(3, N, 16.0))
        tracemalloc.start()
        try:
            make_gbeta(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, N


def _whole_orthant_gbeta(spec):
    """Reference synthesis on whole first-orthant arrays: the transforms of
    full (N/2 + 1)^n blocks and weighted bincount shell averages."""
    grid, n, beta, bump = spec.grid, spec.grid.dimension, spec.beta, spec.bump_radius
    h, m = grid.spacing, grid.samples_per_axis // 2 + 1
    b_psi = 1 + int(np.flatnonzero(standard_mollifier(h * np.arange(m), bump))[-1])
    cut = 2.0 * bump + 2.0 * h
    b = min(m, max(2 * b_psi - 1, int(cut / h) + 3))

    def shell_average(r, v, w, width):
        idx = np.floor(r.ravel() / width).astype(int)
        count = np.bincount(idx, weights=w.ravel())
        return (np.bincount(idx, weights=(w * r).ravel()) / count,
                np.bincount(idx, weights=(w * v).ravel()) / count)

    freq_r = grid.orthant_freq_radius(slice(None))
    G = orthant_inverse(grid, bessel_weight_radius(freq_r, -(n / 2.0 + beta)), b)
    psi_hat = orthant_forward(grid, standard_mollifier(grid.orthant_space_radius(b_psi), bump))()
    g = orthant_inverse(grid, psi_hat**2, b) * G
    ghat = orthant_forward(grid, g)()
    radii, values = shell_average(freq_r, ghat, grid.orthant_multiplicity(slice(None)),
                                  grid.freq_spacing)
    keep = radii <= 0.98 * grid.corner_radius
    profile = RadialProfile(radii[keep], values[keep])
    profile.fit_tail()
    sp_radii, _ = shell_average(grid.orthant_space_radius(b), g,
                                grid.orthant_multiplicity(slice(None), b), h)
    return profile, sp_radii[sp_radii <= cut], float(ghat.min())


# slabs of one row, of a height that divides none of N/2 + 1 = 129, 49 and
# 65, and of the default height
@pytest.mark.parametrize("rows", [1, 6, None])
@pytest.mark.parametrize("n, N", [(2, 256), (3, 96), (3, 128)])
def test_gbeta_streamed_equals_whole_orthant(n, N, rows, monkeypatch):
    # the whole-block transforms are made from the same row slabs as the
    # streamed reads, so both sides run the same BLAS products at every slab
    # height, and the running shell sums add the points in bincount's order
    if rows is not None:
        monkeypatch.setattr(spectral, "SLAB_ROWS", rows)
    spec = GBetaSpec(beta=1.0, bump_radius=2.0, grid=make_grid(n, N, 16.0))
    ref, ref_sp_radii, ref_min = _whole_orthant_gbeta(spec)
    q = make_gbeta(spec)
    prof = q.fourier_profile
    np.testing.assert_array_equal(prof.radii, ref.radii)
    np.testing.assert_array_equal(q.spatial_radial.profile.radii, ref_sp_radii)
    assert q.meta["ghat_min"] == ref_min
    assert np.max(np.abs(prof.values - ref.values) / np.abs(ref.values)) <= 1e-15
    assert abs(prof.tail_exponent - ref.tail_exponent) <= 1e-15 * abs(ref.tail_exponent)


def test_gbeta_back_to_back_calls_agree():
    # each synthesis makes its own slab buffers, so a call at another N
    # leaves nothing that the next one reads
    specs = [GBetaSpec(beta=1.0, bump_radius=2.0, grid=make_grid(n, N, 16.0))
             for n, N in ((3, 96), (3, 128), (2, 256))]
    first = [make_gbeta(spec) for spec in specs]
    for spec, q in zip(specs[::-1], first[::-1]):
        again = make_gbeta(spec)
        for a, b in ((q.fourier_profile, again.fourier_profile),
                     (q.spatial_radial.profile, again.spatial_radial.profile)):
            np.testing.assert_array_equal(a.radii, b.radii)
            np.testing.assert_array_equal(a.values, b.values)
            assert a.tail_exponent == b.tail_exponent
        assert q.meta == again.meta


def test_gbeta_tail_agrees_with_doubled_grid(gbeta3, gbeta3_fine):
    """Tail extrapolation vs direct synthesis on a doubled grid (<= 5%)."""
    rho = 2.0 * gbeta3.fourier_profile.radii[-1]
    xi = np.array([rho, 0.0, 0.0])
    coarse = gbeta3.fourier_eval(xi)
    fine = gbeta3_fine.fourier_eval(xi)
    assert coarse == pytest.approx(fine, rel=0.3)
    # inside the tabulated range agreement is much tighter
    xi_in = np.array([6.0, 0.0, 0.0])
    assert gbeta3.fourier_eval(xi_in) == pytest.approx(
        gbeta3_fine.fourier_eval(xi_in), rel=0.05
    )


def test_gbeta_spatial_support(gbeta3):
    pts = np.array([[4.5, 0.0, 0.0], [0.0, 5.0, 0.0], [3.0, 3.0, 3.0]])
    assert np.all(gbeta3.spatial_eval(pts) == 0.0)
    assert gbeta3.spatial_eval(np.zeros(3)) != 0.0


def test_gbeta_sobolev_refinement_trend():
    """W^{gamma,2} norms from the g_beta_hat table, integral of
    <rho>^{2 gamma} g_hat^2 rho^{n-1}: doubling N doubles the table's reach,
    which leaves the norm stable for gamma < beta and grows it for
    gamma > beta."""
    norms = {}
    for N in (256, 512):
        q = make_gbeta(GBetaSpec(beta=1.0, bump_radius=2.0, grid=make_grid(2, N, 16.0)))
        rho, ghat = q.fourier_profile.radii, q.fourier_profile.values
        for gamma in (0.5, 2.0):
            dens = bessel_weight_radius(rho, 2.0 * gamma) * ghat**2 * rho
            norms[(N, gamma)] = np.sqrt(np.trapezoid(dens, rho))
    stable = norms[(512, 0.5)] / norms[(256, 0.5)]
    growing = norms[(512, 2.0)] / norms[(256, 2.0)]
    assert 0.9 <= stable <= 1.1
    assert growing > 1.1


def test_gbeta_artifacts(tmp_path):
    # the gbeta3 fixture's potential, written by the CLI
    from borndisp.cli import run

    out = tmp_path / "out"
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({
        "experiment": "gbeta", "n": 3, "beta": 1.0, "bump_radius": 2.0,
        "grid": {"N": 128, "L": 16.0}, "out_dir": str(out),
    }))
    assert run(str(cfg)) == 0
    desc = json.loads((out / "gbeta.json").read_text())
    assert desc["is_radial"] and desc["fourier_nonneg"]
    assert desc["meta"]["beta"] == 1.0
    lines = (out / "gbeta_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "radius,value"
    assert len(lines) > 50
