import numpy as np
import pytest

from borndisp.dispersion import (
    BLOCK_POINTS,
    CutoffSpec,
    PVParams,
    b_theta2,
    bipolar_b,
    cutoff_chi,
    dispersion_batch,
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
    np.testing.assert_array_equal(batch, loop)


@pytest.mark.parametrize("block_points", [2**10, BLOCK_POINTS, 2**18])
@pytest.mark.parametrize("case", ["gauss2", "gbeta2", "gauss3", "gbeta3"])
def test_spherical_op_blocks_of_radii(case, block_points, request, monkeypatch):
    # every block size gives the sums of one radius at a time, bit for bit
    from borndisp import dispersion

    class Recording:
        def __init__(self, q):
            self.q, self.shapes = q, []

        def fourier_radial(self, s, out=None):
            self.shapes.append(s.shape)
            return self.q.fourier_radial(s, out=out)

    q = request.getfixturevalue(case)
    n = q.dimension
    theta = Direction(np.eye(n)[0] * -1.0)
    eta = np.array([6.0, 2.0, 1.0][:n])
    rule = sphere_rule(n, 4 if n == 2 else 3)
    radii = PVParams().rule[0]
    loop = np.array([spherical_op(q, theta, r, eta, rule) for r in radii])
    monkeypatch.setattr(dispersion, "BLOCK_POINTS", block_points)
    rec = Recording(q)
    blocked = spherical_op(rec, theta, radii, eta, rule)
    np.testing.assert_array_equal(blocked, loop)
    step = max(1, block_points // rule.weights.size)
    sizes = [min(step, radii.size - i) for i in range(0, radii.size, step)]
    assert [s[0] for s in rec.shapes] == [b for b in sizes for _ in range(2)]


@pytest.mark.parametrize("case", ["gauss2", "gbeta2", "gauss3", "gbeta3"])
@pytest.mark.parametrize("level", [3, 4])
def test_spherical_op_equals_per_node_product(case, level, request):
    # the in-place reads in the one workspace must give the sums of the
    # explicit product of two allocating (R, M) reads, bit for bit
    from borndisp.geometry import chart, ewald_nodes

    q = request.getfixturevalue(case)
    n = q.dimension
    theta = Direction.normalized([0.3, -1.0, 0.4][:n])
    eta = np.array([5.0, 3.0, -1.0][:n])
    rule = sphere_rule(n, level)
    radii = PVParams().rule[0]
    ch = chart(eta, theta)
    s_in, s_out, weights = ewald_nodes(ch, radii, theta, rule)
    sums = np.vecdot(weights, q.fourier_radial(s_in) * q.fourier_radial(s_out))
    expected = (sums / (ch.k * (1.0 + radii))).astype(complex)
    np.testing.assert_array_equal(spherical_op(q, theta, radii, eta, rule), expected)


def test_pv_params_equal_and_hash_equal():
    a, b = PVParams(), PVParams()
    assert a == b and hash(a) == hash(b)
    assert a != PVParams(delta=0.3) and a != PVParams(inner_nodes=32)
    assert repr(a) == "PVParams(delta=0.5, inner_nodes=64)"
    # each instance builds its own rule, from its own parameters
    radii, coeffs = a.rule
    assert radii.shape == coeffs.shape == (2 * 64 + 3 * 24,)
    np.testing.assert_array_equal(radii, b.rule[0])
    assert PVParams(inner_nodes=32).rule[0].size == 2 * 32 + 3 * 24


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


def test_b_theta2_zero_on_rounded_hyperplane(gauss2):
    # eta.theta = -7.3e-16 is zero up to rounding; read as a half-space point
    # it has k = 1.1e16 and one sphere node samples the cap, giving a value
    # that halves with each rule level instead of the limit 0
    theta = Direction(np.array([np.cos(1.5 * np.pi), np.sin(1.5 * np.pi)]))
    eta = np.array([4.0, 0.0])
    assert float(eta @ theta.components) < 0
    for level in (4, 5, 6):
        assert b_theta2(gauss2, theta, eta, sphere_rule(2, level), PVParams()) == 0


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


# ---------------------------------------------------------------------------
# The bipolar rule (n = 3)


def _eta_at(e, k):
    """The point of H_theta, theta = -e_1, with |eta| = e and chart k."""
    c = e / (2.0 * k)
    return np.array([e * c, e * np.sqrt(1.0 - c * c), 0.0])


def test_bipolar_b_matches_gaussian_oracle(gauss3, theta3):
    # the 1e-9 gate at level 4 over k in [2, 2500]; |eta| <= 12 keeps
    # S_{theta,1} ~ exp(-|eta|^2 / 8a) far above underflow
    from borndisp.oracle import gaussian_b_theta2

    worst = 0.0
    for k in np.geomspace(2.0, 2500.0, 7):
        for e in (1.0, 4.0, 12.0):
            if e > 2.0 * k:
                continue
            ref = gaussian_b_theta2(0.5, theta3, _eta_at(e, k))
            B = bipolar_b(gauss3, e, k, 4)[0]
            worst = max(worst, abs(B - ref) / abs(ref))
    assert worst <= 1e-9


def test_bipolar_b_closed_middle_wedge(gauss3, theta3):
    # eta = -2k theta: the two singular rays meet and the middle wedge has
    # zero width, yet holds i pi S_{theta,1}
    from borndisp.oracle import gaussian_b_theta2, gaussian_s

    eta = np.array([4.0, 0.0, 0.0])
    B = bipolar_b(gauss3, 4.0, 2.0, 4)[0]
    assert abs(B - gaussian_b_theta2(0.5, theta3, eta)) <= 1e-12 * abs(B)
    assert B.imag / np.pi == pytest.approx(float(gaussian_s(0.5, theta3, eta, 1.0)),
                                           rel=1e-13)


def test_bipolar_b_lattice_self_convergence(gbeta3):
    # the lattice q_hat is a spline with a value-only tail join, so the rule
    # converges algebraically; level 4 stays within 1e-5 of level 6
    e = np.array([8.0, 24.0, 48.0, 96.0, 4.0])
    k = np.array([4.5, 120.0, 600.0, 2400.0, 1000.0])
    fine = bipolar_b(gbeta3, e, k, 6)
    assert np.all(np.abs(bipolar_b(gbeta3, e, k, 4) - fine) <= 1e-5 * np.abs(fine))


@pytest.mark.parametrize("e, k", [(4.0, 3.0), (6.0, 12.0), (4.0, 30.0)])
def test_bipolar_b_agrees_with_sphere_and_pv(gauss3, theta3, e, k):
    from borndisp.dispersion import _sphere_and_pv

    ref = _sphere_and_pv(gauss3, theta3, _eta_at(e, k), sphere_rule(3, 6), PVParams())[2]
    assert abs(bipolar_b(gauss3, e, k, 6)[0] - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("case", ["gauss3", "gbeta3"])
def test_bipolar_b_block_independence(case, request, monkeypatch):
    # a point's B is the same bits alone, in any block and at any place in it
    from borndisp import dispersion

    q = request.getfixturevalue(case)
    e = np.linspace(2.1, 90.0, 23)
    k = e / (2.0 * np.linspace(0.04, 1.0, 23))
    alone = np.array([bipolar_b(q, ei, ki, 3)[0] for ei, ki in zip(e, k)])
    for block in (2**11, 5 * 2**11, BLOCK_POINTS, 2**18):
        monkeypatch.setattr(dispersion, "BLOCK_POINTS", block)
        np.testing.assert_array_equal(bipolar_b(q, e, k, 3), alone)
        np.testing.assert_array_equal(bipolar_b(q, e[3:], k[3:], 3), alone[3:])


def test_bipolar_b_sphere_only(gbeta3, theta3):
    # the middle wedge alone is i pi S_{theta,1}, bit for bit the imaginary
    # part of B, and agrees with the sphere rule
    e, k = np.array([8.0, 8.0]), np.array([6.0, 20.0])
    B = bipolar_b(gbeta3, e, k, 4)
    S = bipolar_b(gbeta3, e, k, 4, sphere_only=True)
    np.testing.assert_array_equal(S.real, 0.0)
    np.testing.assert_array_equal(S.imag, B.imag)
    for i in range(2):
        ref = spherical_op(gbeta3, theta3, 1.0, _eta_at(e[i], k[i]), sphere_rule(3, 6))
        assert S[i].imag / np.pi == pytest.approx(ref.real, rel=1e-5)


def test_n3_batch_parts(gauss3, theta3, rule3):
    # in n = 3, S = Im B / pi and P = Re B, from one bipolar value
    etas = [_eta_at(4.0, 3.0), -_eta_at(5.0, 8.0)]
    for s in dispersion_batch(gauss3, theta3, etas, rule3, PVParams(), CutoffSpec()):
        assert s.B == complex(s.P.real, np.pi * s.S.real)
        assert s.Q == cutoff_chi(s.eta, CutoffSpec()) * s.B
        assert s.B == b_theta2(gauss3, theta3 if s.eta[0] > 0 else -theta3, s.eta,
                               rule3, PVParams())
