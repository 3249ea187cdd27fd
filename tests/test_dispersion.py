import io

import numpy as np
import pytest

from borndisp.dispersion import (
    CutoffSpec,
    PVParams,
    b_theta2,
    bilinear_K,
    cutoff_chi,
    dispersion_batch,
    ds_dr,
    principal_value_op,
    q_full2_hat,
    q_theta2_hat,
    spherical_op,
    write_samples_csv,
)
from borndisp.geometry import Direction, sphere_rule


def test_cutoff_profile():
    spec = CutoffSpec(C0=2.0)
    assert cutoff_chi(np.array([1.0, 0.0]), spec) == 0.0
    assert cutoff_chi(np.array([6.0, 0.0]), spec) == 1.0
    assert cutoff_chi(np.array([3.0, 0.0]), spec) == pytest.approx(0.5)
    rs = np.linspace(0, 8, 400)
    vals = cutoff_chi(np.stack([rs, np.zeros_like(rs)], axis=-1), spec)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(np.diff(vals) >= -1e-12)
    with pytest.raises(ValueError):
        CutoffSpec(C0=0.5)


def test_pv_params_guards():
    with pytest.raises(ValueError):
        PVParams(delta=1.5)
    with pytest.raises(ValueError):
        PVParams(inner_nodes=1)
    # the integral runs to infinity: there is no cut-off radius to set
    with pytest.raises(TypeError, match="r_max"):
        PVParams(r_max=8.0)


def test_spherical_op_positive_and_zero(gauss2, theta2, rule2):
    eta = np.array([4.0, 0.0])
    S = spherical_op(gauss2, theta2, 1.0, eta, rule2)
    assert S.imag == pytest.approx(0.0, abs=1e-14)
    assert S.real > 0  # nonnegative q_hat gives a nonnegative integrand


def test_spherical_op_matches_dense_trapezoid(gauss2, theta2, rule2):
    from borndisp.geometry import chart

    eta = np.array([4.0, 0.0])
    k = chart(eta, theta2).k
    M = 8192
    phi = 2 * np.pi * np.arange(M) / M
    om = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    xi = k * om - k * theta2.components
    F = gauss2.fourier_eval(xi) * gauss2.fourier_eval(eta - xi)
    dense = (2 * np.pi / M) * np.sum(F) * k / (2.0 * k)
    assert spherical_op(gauss2, theta2, 1.0, eta, rule2) == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("case", ["gauss2", "gbeta3"])
def test_spherical_op_radius_array_matches_loop(case, request):
    q = request.getfixturevalue(case)
    n = q.dimension
    theta = Direction(np.eye(n)[0] * -1.0)
    eta = np.array([6.0, 2.0, 1.0][:n])
    rule = sphere_rule(n, 4 if n == 2 else 3)
    radii = np.array([0.3, 0.9, 1.0, 1.2, 3.0, 40.0])
    batch = spherical_op(q, theta, radii, eta, rule)
    loop = np.array([spherical_op(q, theta, r, eta, rule) for r in radii])
    assert batch.shape == radii.shape and batch.dtype == complex
    np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0.0)


def test_spherical_op_blocks_of_radii(gauss2, monkeypatch):
    from borndisp import dispersion

    class Recording:
        def __init__(self, q):
            self.q, self.shapes = q, []

        def fourier_eval(self, xi):
            self.shapes.append(xi.shape)
            return self.q.fourier_eval(xi)

    theta = Direction(np.array([-1.0, 0.0]))
    eta = np.array([6.0, 2.0])
    rule = sphere_rule(2, 4)
    radii = np.linspace(0.2, 5.0, 7)
    whole = spherical_op(gauss2, theta, radii, eta, rule)
    monkeypatch.setattr(dispersion, "BLOCK_POINTS", 2 * rule.weights.size)
    q = Recording(gauss2)
    blocked = spherical_op(q, theta, radii, eta, rule)
    np.testing.assert_array_equal(blocked, whole)
    assert [s[0] for s in q.shapes] == [2, 2, 2, 2, 2, 2, 1, 1]


def test_bilinear_K_relations(gauss2, theta2, rule2):
    eta = np.array([4.0, 0.0])
    for r in (0.7, 1.0, 1.6):
        K = bilinear_K(gauss2.fourier_eval, gauss2.fourier_eval, theta2, r, eta, rule2)
        S = spherical_op(gauss2, theta2, r, eta, rule2)
        assert K == pytest.approx((1 + r) * abs(S), rel=1e-10)
    assert bilinear_K(lambda x: np.zeros(x.shape[:-1]), gauss2.fourier_eval,
                      theta2, 1.0, eta, rule2) == 0.0


def test_ds_dr_finite_difference(gauss2, gbeta2, theta2):
    rule = sphere_rule(2, 5)
    eta = np.array([4.0, 0.0])
    h = 1e-5
    # g_beta: the r = 1 sphere passes through xi = 0, where the tabulated
    # q_hat has a kink (the shell-averaged spline's slope at rho = 0 is not 0)
    for q, rel in ((gauss2, 1e-5), (gbeta2, 1e-4)):
        for r in (0.6, 1.0, 1.8):
            fd = (spherical_op(q, theta2, r + h, eta, rule)
                  - spherical_op(q, theta2, r - h, eta, rule)) / (2 * h)
            assert ds_dr(q, theta2, r, eta, rule) == pytest.approx(fd, rel=rel)


def test_mean_value_inequality(gauss2, theta2, rule2):
    eta = np.array([4.0, 0.0])
    rs = np.linspace(0.9, 1.1, 9)
    dmax = max(abs(ds_dr(gauss2, theta2, r, eta, rule2)) for r in rs)
    for r1, r2 in [(0.9, 1.1), (0.95, 1.05), (1.0, 1.08)]:
        diff = abs(spherical_op(gauss2, theta2, r1, eta, rule2)
                   - spherical_op(gauss2, theta2, r2, eta, rule2))
        assert diff <= dmax * abs(r1 - r2) * (1 + 1e-8)


def test_pv_even_provider_vanishes():
    params = PVParams(delta=0.5)
    value = principal_value_op(lambda r: np.where(np.abs(1 - r) < 0.5, 1.0, 0.0),
                               params)
    # constant S on the window integrates to zero against the odd kernel;
    # outside the window the provider is zero
    assert abs(value) < 1e-12


def test_pv_gaussian_shift_identity():
    params = PVParams(delta=0.5, inner_nodes=64)
    value = principal_value_op(lambda r: np.exp(-((1 - r) ** 2)), params)
    from borndisp.oracle import exp1_series

    assert value.real == pytest.approx(-0.5 * exp1_series(1.0), abs=1e-6)


def test_pv_zero_provider():
    assert principal_value_op(np.zeros_like, PVParams()) == 0.0


def test_pv_power_law_to_infinity():
    from borndisp.oracle import pv_1d

    # decays like r^-3, so a cut at any finite radius leaves a visible tail
    def S(r):
        return (1.0 + r) ** -3

    ref = pv_1d(lambda r: S(r) / (1.0 - r), 1.0, (0.0, np.inf))
    assert abs(principal_value_op(S, PVParams()) - ref) <= 1e-8


def test_b_theta2_structure(gauss2, theta2, rule2):
    pv = PVParams()
    # outside the half space: exactly zero
    assert b_theta2(gauss2, theta2, np.array([-3.0, 0.0]), rule2, pv) == 0.0
    eta = np.array([4.0, 0.0])
    B = b_theta2(gauss2, theta2, eta, rule2, pv)
    S = spherical_op(gauss2, theta2, 1.0, eta, rule2)
    # no cancellation: imag(B) = pi S >= 0 and real(B) = P
    assert B.imag == pytest.approx(np.pi * S.real, rel=1e-12)
    assert B.imag >= 0


def test_b_theta2_grazing_theta_node(gauss2):
    from borndisp.oracle import brute_b_theta2

    # a level-3 theta-rule node 1.40625 degrees off the hyperplane
    # eta.theta = 0, where k = 81.5: the PV window must resolve S there
    theta = Direction(sphere_rule(2, 3).nodes[33])
    a = np.deg2rad(1.40625)
    eta = 4.0 * np.array([np.cos(a), np.sin(a)])
    ref = brute_b_theta2(gauss2, theta, eta)
    B = b_theta2(gauss2, theta, eta, sphere_rule(2, 6), PVParams())
    assert abs(B - ref) <= 1e-9 * abs(ref)


def test_q_theta2_hat_cutoff_and_halves(gauss2, theta2, rule2):
    pv, cut = PVParams(), CutoffSpec(C0=2.0)
    assert q_theta2_hat(gauss2, theta2, np.array([1.0, 0.0]), rule2, pv, cut) == 0.0
    eta = np.array([5.0, 0.0])
    q_val = q_theta2_hat(gauss2, theta2, eta, rule2, pv, cut)
    b_val = b_theta2(gauss2, theta2, eta, rule2, pv)
    assert q_val == pytest.approx(b_val, rel=1e-12)  # chi = 1, other half zero


def test_q_theta2_hat_reflection_symmetry(gauss2, theta2, rule2):
    pv, cut = PVParams(), CutoffSpec(C0=2.0)
    eta = np.array([3.0, 4.0])
    a = q_theta2_hat(gauss2, theta2, eta, rule2, pv, cut)
    b = q_theta2_hat(gauss2, theta2, -eta, rule2, pv, cut)
    assert abs(abs(a) - abs(b)) <= 1e-6 * abs(a)


def test_q_full2_theta_refinement(gauss2, rule2):
    pv, cut = PVParams(), CutoffSpec(C0=1.5)
    eta = np.array([4.0, 0.0])
    coarse = q_full2_hat(gauss2, eta, sphere_rule(2, 5), rule2, pv, cut)
    fine = q_full2_hat(gauss2, eta, sphere_rule(2, 6), rule2, pv, cut)
    assert abs(coarse - fine) <= 1e-4 * abs(fine)
    assert fine.imag > 0


def test_quadrature_level_convergence(gauss2, theta2):
    eta = np.array([5.0, 0.0])
    vals = [spherical_op(gauss2, theta2, 1.0, eta, sphere_rule(2, lev))
            for lev in (4, 5)]
    assert abs(vals[0] - vals[1]) < 1e-4 * abs(vals[1])


def test_batch_thread_independence(gauss2, theta2, rule2, tmp_path):
    pv, cut = PVParams(), CutoffSpec()
    etas = [np.array([t, 0.3 * t]) for t in (3.0, 4.0, 5.0, 6.0)]
    one = dispersion_batch(gauss2, theta2, etas, rule2, pv, cut, threads=1)
    four = dispersion_batch(gauss2, theta2, etas, rule2, pv, cut, threads=4)
    p1, p4 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_samples_csv(one, p1)
    write_samples_csv(four, p4)
    assert p1.read_bytes() == p4.read_bytes()


def test_csv_schema(gauss2, theta2, rule2, tmp_path):
    samples = dispersion_batch(gauss2, theta2, [np.array([4.0, 0.0])],
                               rule2, PVParams(), CutoffSpec())
    path = tmp_path / "s.csv"
    write_samples_csv(samples, path)
    header = path.read_text().splitlines()[0]
    assert header == "eta_1,eta_2,k,S_re,S_im,P_re,P_im,B_re,B_im,Q_re,Q_im"
