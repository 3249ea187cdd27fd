import numpy as np
import pytest
from scipy import special

from borndisp import oracle
from borndisp.dispersion import b_theta2
from borndisp.geometry import sphere_rule
from borndisp.potentials import gaussian_potential
from borndisp.spectral import TransformDirection, field_from_function, fourier, make_grid


def test_exp1_series_against_scipy():
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert oracle.exp1_series(x) == pytest.approx(special.exp1(x), abs=1e-12)
    with pytest.raises(ValueError):
        oracle.exp1_series(-1.0)


def test_pv_1d_odd_integrand():
    assert oracle.pv_1d(lambda s: 1.0 / s, 0.0, (-1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_pv_1d_log_value():
    assert oracle.pv_1d(lambda s: 1.0 / s, 0.0, (-1.0, 2.0)) == pytest.approx(np.log(2.0), abs=1e-9)


def test_pv_1d_gaussian_identity():
    val = oracle.pv_1d(lambda r: np.exp(-((1 - r) ** 2)) / (1 - r), 1.0, (0.0, np.inf))
    assert val == pytest.approx(-0.5 * oracle.exp1_series(1.0), abs=1e-9)


def test_brute_b_agrees_with_dispersion(gauss2, theta2):
    for t in (3.0, 5.0, 8.0):
        eta = np.array([t, 0.0])
        ref = oracle.brute_b_theta2(gauss2, theta2, eta)
        lib = b_theta2(gauss2, theta2, eta, 4)
        assert abs(lib - ref) <= 0.05 * abs(ref)


def test_brute_b_amplitude_bilinearity(gauss2, theta2):
    from dataclasses import replace

    eta = np.array([4.0, 0.0])
    one = oracle.brute_b_theta2(gauss2, theta2, eta, resolution=512)
    doubled = replace(
        gauss2,
        fourier_radial=lambda s: 2.0 * gauss2.fourier_radial(s),
        spatial_radial=lambda s: 2.0 * gauss2.spatial_radial(s),
    )
    four = oracle.brute_b_theta2(doubled, theta2, eta, resolution=512)
    assert four == pytest.approx(4.0 * one, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_s_matches_spherical_op(n):
    from borndisp.dispersion import spherical_op
    from borndisp.geometry import Direction

    q = gaussian_potential(0.5, make_grid(n, 16, 16.0))
    theta = Direction.normalized([-1.0, 0.3, 0.2][:n])
    rule = sphere_rule(n, 6)
    radii = np.array([0.2, 0.7, 1.0, 1.3, 2.5])
    for e, k in ((1.0, 0.6), (2.0, 1.5), (4.0, 3.0), (4.0, 10.0), (8.0, 20.0)):
        # |eta| = e at the angle to -theta whose cosine is e / 2k
        c = e / (2.0 * k)
        perp = np.eye(n)[1] - (np.eye(n)[1] @ theta.components) * theta.components
        eta = e * (-c * theta.components + np.sqrt(1 - c * c) * perp / np.linalg.norm(perp))
        ref = oracle.gaussian_s(0.5, theta, eta, radii)
        got = spherical_op(q, theta, radii, eta, rule)
        assert np.all(np.abs(got - ref) <= 1e-11 * np.max(ref))
    # theta' = -theta, where kappa = 0: the sphere area times the prefactor
    eta = -4.0 * theta.components
    assert oracle.gaussian_s(0.5, theta, eta, 1.0) == pytest.approx(
        spherical_op(q, theta, 1.0, eta, rule).real, rel=1e-12)


def test_gaussian_b_theta2_n2_at_large_k(gauss2, theta2):
    # from k ~ 600 in n = 2 the PV's far tail reaches kappa ~ 2e9, where
    # ive(0, kappa) is NaN; S is 0 there. The brute-force reference needs a
    # fine circle rule to resolve the short arc of the sphere that q_hat
    # reaches, and its PV window limits its real part
    for k in (917.0, 2400.0):
        c = 4.0 / (2.0 * k)
        eta = 4.0 * np.array([c, np.sqrt(1.0 - c * c)])
        ref = oracle.gaussian_b_theta2(0.5, theta2, eta)
        brute = oracle.brute_b_theta2(gauss2, theta2, eta, resolution=2**15)
        assert np.isfinite(ref)
        assert ref.imag == pytest.approx(brute.imag, rel=1e-12)
        assert abs(ref - brute) <= 1e-5 * abs(ref)


def test_brute_b_requires_analytic(gbeta2, theta2):
    with pytest.raises(ValueError):
        oracle.brute_b_theta2(gbeta2, theta2, np.array([4.0, 0.0]))


def test_trace_ratio_gaussian_closed_form():
    q = gaussian_potential(0.5, make_grid(3, 64, 16.0))
    ratio = oracle.trace_ratio(q, 1.0)
    expect = (4 * np.pi / np.e) / (2.5 * np.pi**1.5)
    assert ratio == pytest.approx(expect, abs=1e-3)
    assert ratio <= 1.0


def test_gaussian_mixture_h1_matches_lattice_plancherel():
    # integral (1 + |xi|^2) |f_hat|^2 / (2 pi)^n as a lattice sum, which is
    # spectrally accurate for Gaussians resolved by the lattice
    rng = np.random.default_rng(3)
    for n, N in ((2, 128), (3, 96)):
        grid = make_grid(n, N, 12.0)
        for _ in range(3):
            centers = rng.normal(scale=1.0, size=(3, n))
            amps = rng.uniform(0.3, 1.5, size=3)
            widths = rng.uniform(0.5, 2.0, size=3)

            def f(x):
                return sum(a * np.exp(-w * np.sum((x - c) ** 2, axis=-1))
                           for a, c, w in zip(amps, centers, widths))

            fhat = fourier(field_from_function(grid, f), TransformDirection.FORWARD)
            lattice = (np.sum((1.0 + grid.freq_radius() ** 2) * np.abs(fhat.samples) ** 2)
                       * (grid.freq_spacing / (2.0 * np.pi)) ** n)
            exact = oracle.gaussian_mixture_h1(amps, centers, widths)
            assert exact == pytest.approx(lattice, rel=1e-12)


def test_sphere_kernel_trivial_cases():
    # exponent zero: integrand identically 1
    assert oracle.sphere_kernel_bound([0.3, 0.2, 2.0], 1.0, 1.0, 3, 3) == pytest.approx(
        4 * np.pi, abs=1e-10
    )
    # x at the center: constant distance rho
    assert oracle.sphere_kernel_bound([0.0, 0.0, 0.0], 2.0, 0.5, 3, 3) == pytest.approx(
        4 * np.pi, abs=1e-10
    )
    with pytest.raises(ValueError):
        oracle.sphere_kernel_bound([1.0, 0.0, 0.0], 1.0, 1.5, 3, 3)


def test_sphere_kernel_on_sphere_stable():
    vals = [
        oracle.sphere_kernel_bound([1.0, 0.0, 0.0], 1.0, 0.25, 3, lev)
        for lev in (3, 4)
    ]
    assert abs(vals[1] - vals[0]) <= 0.02 * vals[0]
    vals2 = [
        oracle.sphere_kernel_bound([0.0, 1.0], 1.0, 0.25, 2, lev)
        for lev in (3, 4)
    ]
    assert abs(vals2[1] - vals2[0]) <= 0.02 * vals2[0]
