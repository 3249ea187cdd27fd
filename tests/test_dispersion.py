import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    spherical_op,
)
from borndisp.geometry import Direction, in_half_space, sphere_rule
from borndisp.potentials import GBetaSpec, gaussian_potential, make_gbeta
from borndisp.spectral import make_grid


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
    # outside the half space: exactly zero
    assert b_theta2(gauss2, theta2, np.array([-3.0, 0.0]), 4) == 0.0
    eta = np.array([4.0, 0.0])
    B = b_theta2(gauss2, theta2, eta, 4)
    S = spherical_op(gauss2, theta2, 1.0, eta, rule2)
    # no cancellation: imag(B) = pi S >= 0 and real(B) = P
    assert B.imag == pytest.approx(np.pi * S.real, rel=1e-12)
    assert B.imag >= 0


def test_b_theta2_grazing_theta_node(gauss2):
    from borndisp.geometry import chart
    from borndisp.oracle import brute_b_theta2, gaussian_b_theta2

    # for each of qfull-n2's two base angles, the level-3 theta-rule node
    # nearest the hyperplane eta.theta = 0: 1.40625 degrees off it for the
    # first (k = 81.5), 0.125 degrees for the second (k = 917). The CLI's
    # default rule level, 4, must reach the closed form at both
    nodes = sphere_rule(2, 3).nodes
    for angle, node, k in ((1.40625, 33, 81.5), (73.0, 58, 917.0)):
        theta = Direction(nodes[node])
        a = np.deg2rad(angle)
        eta = 4.0 * np.array([np.cos(a), np.sin(a)])
        assert chart(eta, theta).k == pytest.approx(k, rel=1e-3)
        B = b_theta2(gauss2, theta, eta, 4)
        ref = gaussian_b_theta2(0.5, theta, eta)
        assert abs(B - ref) <= 1e-9 * abs(ref)
        if k < 100:  # where the brute-force circle rule resolves the sphere
            brute = brute_b_theta2(gauss2, theta, eta)
            assert abs(B - brute) <= 1e-9 * abs(brute)


def test_b_theta2_zero_on_rounded_hyperplane(gauss2):
    # eta.theta = -7.3e-16 is zero up to rounding; read as a half-space point
    # it has k = 1.1e16 and one sphere node samples the cap, giving a value
    # that halves with each rule level instead of the limit 0
    theta = Direction(np.array([np.cos(1.5 * np.pi), np.sin(1.5 * np.pi)]))
    eta = np.array([4.0, 0.0])
    assert float(eta @ theta.components) < 0
    for level in (4, 5, 6):
        assert b_theta2(gauss2, theta, eta, level) == 0


def test_b_theta2_reflection_symmetry(gauss2, theta2):
    # B_theta(eta) = B_{-theta}(-eta): negation keeps eta.theta, |eta| and
    # the chart's k to the bit
    minus_theta = Direction(-theta2.components)
    for eta in (np.array([3.0, 4.0]), np.array([5.0, 0.5])):
        B = b_theta2(gauss2, theta2, eta, 4)
        assert B != 0
        assert b_theta2(gauss2, minus_theta, -eta, 4) == B


def test_q_full2_theta_refinement(gauss2):
    cut = CutoffSpec(C0=1.5)
    eta = np.array([4.0, 0.0])
    coarse = q_full2_hat(gauss2, eta, sphere_rule(2, 5), 4, cut)
    fine = q_full2_hat(gauss2, eta, sphere_rule(2, 6), 4, cut)
    assert abs(coarse - fine) <= 1e-4 * abs(fine)
    assert fine.imag > 0


def _qfull_n2_eta(deg):
    """eta at |eta| = 4 and the given angle, as qfull-radial forms it."""
    rad = np.deg2rad(deg)
    return np.array([4.0 * np.cos(rad), 4.0 * np.sin(rad)])


def test_q_full2_hat_qfull_n2_value():
    # qfull-n2's seed-11 config (a = 0.5, theta rule level 3, rule level 4,
    # C0 = 2) at 49.21875 degrees, to the bit, with the shared R integrals
    # computed afresh and then read from the cache
    from borndisp import dispersion

    q = gaussian_potential(0.5, make_grid(2, 8, 16.0))
    eta = _qfull_n2_eta(49.21875)
    dispersion._low_chi_diff.cache_clear()
    for _ in range(2):
        val = q_full2_hat(q, eta, sphere_rule(2, 3), 4, CutoffSpec())
        assert val == complex(0.45939162018265617, 0.284008407211323)


def test_q_full2_hat_q_hat_traffic():
    # one Q_F value at level 4 reads q_hat at 2 x 33 x 128 (chi, R) nodes
    # per hemisphere point and at 2 x 32 x 128 once for its |eta|, two
    # reads per node: 1,097,728 reads for 64 points, where computing the
    # k-independent chi piece per point would make 2,129,920
    q = gaussian_potential(0.5, make_grid(2, 8, 16.0))
    reads = [0]

    def counting(s, out=None):
        reads[0] += np.size(s)
        return q.fourier_radial(s, out=out)

    rule, eta = sphere_rule(2, 3), _qfull_n2_eta(118.0)
    val = q_full2_hat(dataclasses.replace(q, fourier_radial=counting), eta, rule, 4,
                      CutoffSpec())
    points = sum(in_half_space(eta, Direction(node)) for node in rule.nodes)
    assert points == 64
    assert reads[0] == points * 2 * 33 * 128 * 2 + 2 * 32 * 128 * 2 == 1_097_728
    assert val == q_full2_hat(q, eta, rule, 4, CutoffSpec())


def _b_without_cache(q, e, k, level):
    """bipolar_b point by point, with the shared R integrals cleared before
    each point."""
    from borndisp import dispersion

    out = []
    for ei, ki in zip(e, k):
        dispersion._low_chi_diff.cache_clear()
        out.append(bipolar_b(q, ei, ki, level)[0])
    return np.array(out)


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("case", ["gauss2", "gbeta2"])
def test_bipolar_b_n2_cache_is_bit_identical(case, level, request):
    # reading the shared R integrals of a |eta| gives the bits of computing
    # them afresh, at repeated and distinct |eta|, in one call (level 3
    # puts all points in one block, level 4 one point per block) and point
    # by point
    from borndisp import dispersion

    q = request.getfixturevalue(case)
    e = np.array([4.0, 4.0, 4.0, 7.5, 24.0, 7.5, 4.0])
    k = np.array([2.0, 3.0, 917.0, 4.0, 30.0, 2400.0, 81.5])
    fresh = _b_without_cache(q, e, k, level)
    dispersion._low_chi_diff.cache_clear()
    np.testing.assert_array_equal(bipolar_b(q, e, k, level), fresh)
    assert dispersion._low_chi_diff.cache_info().currsize == 3
    np.testing.assert_array_equal([bipolar_b(q, a, b, level)[0] for a, b in zip(e, k)],
                                  fresh)


def test_bipolar_b_n2_cache_keys_on_the_reader(gauss2, gbeta2, grid2):
    # potentials at one |eta| never share R integrals: Gaussians with
    # different a, and two g_beta tables, each keep their own bits
    from borndisp import dispersion

    qs = [gauss2, gaussian_potential(0.7, grid2), gbeta2,
          make_gbeta(GBetaSpec(beta=2.0, bump_radius=2.0, grid=grid2))]
    e, k = np.array([6.0]), np.array([5.0])
    fresh = [_b_without_cache(q, e, k, 4)[0] for q in qs]
    assert len(set(fresh)) == len(qs)
    dispersion._low_chi_diff.cache_clear()
    for q, want in zip(qs, fresh):
        assert bipolar_b(q, e, k, 4)[0] == want
    assert dispersion._low_chi_diff.cache_info().currsize == len(qs)


def test_quadrature_level_convergence(gauss2, theta2):
    eta = np.array([5.0, 0.0])
    vals = [spherical_op(gauss2, theta2, 1.0, eta, sphere_rule(2, lev))
            for lev in (4, 5)]
    assert abs(vals[0] - vals[1]) < 1e-4 * abs(vals[1])


def test_batch_matches_point_evaluation(gauss2, theta2, gauss3, theta3, monkeypatch):
    # one bipolar_b call over the points of H_theta in a batch that also holds
    # points of H_-theta and of the hyperplane (exactly, and within rounding
    # of it). Two of the H_theta points share |eta|, and so their n = 2 R
    # integrals within the call. Each point keeps the bits that chart and
    # b_theta2 give it alone, from an empty cache; every other point gets
    # k = NaN and B = 0
    from borndisp import dispersion
    from borndisp.geometry import chart

    for q, theta in ((gauss2, theta2), (gauss3, theta3)):
        n = theta.dimension
        etas = [_eta_at(4.0, 3.0, n), -_eta_at(4.0, 3.0, n), np.array([0.0, 5.0, 0.0][:n]),
                _eta_at(4.0, 40.0, n), np.array([1e-16, 6.0, 0.0][:n]), _eta_at(3.0, 1.6, n)]
        live = [True, False, False, True, False, True]
        alone = []
        for eta, inside in zip(etas, live):
            dispersion._low_chi_diff.cache_clear()
            alone.append((chart(eta, theta).k, b_theta2(q, theta, eta, 4)) if inside else None)
        dispersion._low_chi_diff.cache_clear()
        sizes = []

        def counted(q, e, k, level):
            sizes.append(len(e))
            return bipolar_b(q, e, k, level)

        with monkeypatch.context() as m:
            m.setattr(dispersion, "bipolar_b", counted)
            ks, Bs = dispersion_batch(q, theta, etas, 4)
        assert sizes == [3]
        for k, B, point in zip(ks.tolist(), Bs.tolist(), alone):
            if point is None:
                assert np.isnan(k) and B == 0
            else:
                assert (k, B) == point


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), angles=st.lists(st.floats(-np.pi, np.pi), min_size=3,
                                                   max_size=3),
       points=st.lists(st.tuples(st.sampled_from(["in", "out", "plane", "rounding"]),
                                 st.floats(0.5, 20.0), st.floats(0.005, 1.0),
                                 st.floats(-np.pi, np.pi), st.integers(-32, 32)),
                       min_size=1, max_size=6))
def test_batch_is_b_theta2_on_and_off_the_half_space(n, angles, points):
    # for any theta and eta in H_theta, in H_-theta, on the hyperplane or
    # within rounding of it, the batch's B is b_theta2's to the bit, and its
    # k is the chart's on H_theta and NaN elsewhere, from one bipolar_b call.
    # A point at (side, e, cos_a, phi, m) has |eta| = e, lies at the angle
    # whose cosine is cos_a from -theta (from theta for "out"), and at phi
    # about the theta axis; "plane" puts it on the hyperplane, and
    # "rounding" m eps |eta| off it along -theta
    from unittest import mock

    from borndisp import dispersion
    from borndisp.geometry import chart

    q = gaussian_potential(0.5, make_grid(n, 8, 16.0))
    rot = _rotation(n, angles)
    theta = Direction(rot @ -np.eye(n)[0])
    etas = []
    for side, e, cos_a, phi, m in points:
        # a unit vector across the theta axis
        across = (np.array([0.0, np.cos(phi), np.sin(phi)]) if n == 3
                  else np.array([0.0, 1.0 if phi >= 0 else -1.0]))
        sin_a = np.sqrt(1.0 - cos_a * cos_a)
        local = {"in": e * (cos_a * np.eye(n)[0] + sin_a * across),
                 "out": e * (-cos_a * np.eye(n)[0] + sin_a * across),
                 "plane": e * across,
                 "rounding": e * across + m * np.finfo(float).eps * e * np.eye(n)[0]}[side]
        etas.append(rot @ local)
    with mock.patch.object(dispersion, "bipolar_b", wraps=dispersion.bipolar_b) as call:
        ks, Bs = dispersion_batch(q, theta, etas, 3)
    assert call.call_count == 1
    for (side, *_), eta, k, B in zip(points, etas, ks.tolist(), Bs.tolist()):
        assert B == b_theta2(q, theta, eta, 3)
        if side in ("in", "out"):
            assert in_half_space(eta, theta) == (side == "in")
        if in_half_space(eta, theta):
            assert k == chart(eta, theta).k
        else:
            assert np.isnan(k) and B == 0


def test_csv_schema(tmp_path):
    import json

    from borndisp.cli import run

    columns = "k,S_re,S_im,P_re,P_im,B_re,B_im,Q_re,Q_im"
    for n, etas in ((2, "eta_1,eta_2"), (3, "eta_1,eta_2,eta_3")):
        out = tmp_path / f"out{n}"
        axis = [1] + [0] * (n - 1)
        cfg = tmp_path / f"r{n}.json"
        cfg.write_text(json.dumps({
            "experiment": "dispersion-ray", "n": n, "a": 0.5,
            "theta": [-x for x in axis],
            "ray": {"direction": axis, "t_min": 3, "t_max": 5, "count": 2},
            "rule_level": 1, "out_dir": str(out),
        }))
        assert run(str(cfg)) == 0
        header = (out / "dispersion_ray.csv").read_text().splitlines()[0]
        assert header == f"{etas},{columns}"


# ---------------------------------------------------------------------------
# The bipolar rule


def _eta_at(e, k, n=3):
    """The point of H_theta, theta = -e_1, with |eta| = e and chart k."""
    c = e / (2.0 * k)
    return np.array([e * c, e * np.sqrt(1.0 - c * c), 0.0][:n])


def test_bipolar_b_matches_gaussian_oracle(gauss2, theta2, gauss3, theta3):
    # the 1e-9 gate at level 4 over k from backscatter (k = |eta|/2) to
    # 2500; |eta| <= 12 keeps S_{theta,1} ~ exp(-|eta|^2 / 8a) far above
    # underflow. n = 2 takes |eta| in {4, 8} and passes qfull-n2's grazing
    # node k = 917
    from borndisp.oracle import gaussian_b_theta2

    cases = [(gauss3, theta3, (1.0, 4.0, 12.0), np.geomspace(2.0, 2500.0, 7))]
    cases += [(gauss2, theta2, (4.0, 8.0), (2.0, 2.6, 3.0, 30.0, 120.0, 500.0,
                                            917.0, 2500.0))]
    worst = 0.0
    for q, theta, es, ks in cases:
        for k in ks:
            for e in es:
                if e > 2.0 * k:
                    continue
                ref = gaussian_b_theta2(0.5, theta, _eta_at(e, k, theta.dimension))
                B = bipolar_b(q, e, k, 4)[0]
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


def test_bipolar_b_lattice_self_convergence(gbeta3, gbeta2):
    # the lattice q_hat is a spline with a value-only tail join, so the rule
    # converges algebraically; level 4 stays within 1e-5 of level 6. n = 2
    # (N = 256) takes |eta| in {4, 24} and k from backscatter to 2400
    e3 = np.array([8.0, 24.0, 48.0, 96.0, 4.0])
    k3 = np.array([4.5, 120.0, 600.0, 2400.0, 1000.0])
    e2 = np.repeat([4.0, 24.0], 12)
    k2 = np.concatenate([np.geomspace(0.5 * x, 2400.0, 12) for x in (4.0, 24.0)])
    for q, e, k in ((gbeta3, e3, k3), (gbeta2, e2, k2)):
        fine = bipolar_b(q, e, k, 6)
        assert np.all(np.abs(bipolar_b(q, e, k, 4) - fine) <= 1e-5 * np.abs(fine))


@pytest.mark.parametrize("e, k", [(4.0, 3.0), (6.0, 12.0), (4.0, 30.0)])
def test_bipolar_b_agrees_with_sphere_and_pv(gauss2, gauss3, theta2, theta3, e, k):
    # the reference route: i pi S_{theta,1} + P_theta from the sphere rule
    # and the PV rule, in n = 3 and in n = 2
    for q, theta in ((gauss3, theta3), (gauss2, theta2)):
        n = theta.dimension
        eta, rule = _eta_at(e, k, n), sphere_rule(n, 6)
        S = spherical_op(q, theta, 1.0, eta, rule)
        P = principal_value_op(lambda r: spherical_op(q, theta, r, eta, rule), PVParams())
        ref = 1j * np.pi * S + P
        assert abs(bipolar_b(q, e, k, 6)[0] - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("case", ["gauss3", "gbeta3", "gauss2", "gbeta2"])
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


def test_bipolar_b_imag_is_spherical_op(gbeta3, theta3, gbeta2, theta2):
    # Im B / pi is S_{theta,1}, the value lemma52 reads
    e, k = np.array([8.0, 8.0]), np.array([6.0, 20.0])
    for q, theta in ((gbeta3, theta3), (gbeta2, theta2)):
        n = theta.dimension
        B = bipolar_b(q, e, k, 4)
        for i in range(2):
            ref = spherical_op(q, theta, 1.0, _eta_at(e[i], k[i], n), sphere_rule(n, 6))
            assert B[i].imag / np.pi == pytest.approx(ref.real, rel=1e-5)


def test_n3_batch_parts(tmp_path, gauss3, theta3):
    # in n = 3, a ray's S = Im B / pi, P = Re B and Q = chi B columns come
    # from the batch's one B at each row, and S and P are real. The ray
    # starts inside C0 and crosses the cutoff's ramp
    import json

    from borndisp.cli import run

    C0 = CutoffSpec(1.5)
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({
        "experiment": "dispersion-ray", "n": 3, "a": 0.5, "theta": [-1, 0, 0],
        "ray": {"direction": [1, 0.4, 0.2], "t_min": 1, "t_max": 9, "count": 5},
        "C0": C0.C0, "out_dir": str(tmp_path / "out"),
    }))
    assert run(str(cfg)) == 0
    rows = np.genfromtxt(tmp_path / "out" / "dispersion_ray.csv", delimiter=",",
                         skip_header=1)
    eta, (k, S_re, S_im, P_re, P_im, B_re, B_im, Q_re, Q_im) = rows[:, :3], rows[:, 3:].T
    ks, Bs = dispersion_batch(gauss3, theta3, eta, 4)
    np.testing.assert_array_equal(k, ks)
    np.testing.assert_array_equal(B_re + 1j * B_im, Bs)
    np.testing.assert_array_equal(S_re, B_im / np.pi)
    np.testing.assert_array_equal(P_re, B_re)
    assert np.all(S_im == 0) and np.all(P_im == 0)
    np.testing.assert_array_equal(Q_re + 1j * Q_im, cutoff_chi(eta, C0) * Bs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]),
       angles=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
       e=st.floats(0.5, 20.0), cos_a=st.floats(0.005, 1.0))
def test_b_theta2_rotation_covariance(n, angles, e, cos_a):
    # B_{R theta}(R eta) = B_theta(eta) for a rotation R: B depends on eta
    # only through |eta| and the chart's k. cos_a, the cosine of the angle
    # between eta and -theta, keeps k = e / (2 cos_a) up to 2000. The n = 3
    # wedges read e tan psi = sqrt((2k - e)(2k + e)), and within about 1e-6
    # of backscatter (cos_a = 1) their value moves linearly with it, so the
    # rounding of k moves B there by up to about 1e-8
    from borndisp.potentials import gaussian_potential
    from borndisp.spectral import make_grid

    q = gaussian_potential(0.5, make_grid(n, 8, 16.0))
    theta = Direction(-np.eye(n)[0])
    eta = _eta_at(e, e / (2.0 * cos_a), n)
    rot = _rotation(n, angles)
    B = b_theta2(q, theta, eta, 3)
    B_rot = b_theta2(q, Direction(rot @ theta.components), rot @ eta, 3)
    tol = 3e-8 if n == 3 and cos_a > 1.0 - 1e-6 else 1e-10
    assert abs(B_rot - B) <= tol * abs(B)


def _rotation(n, angles):
    """A rotation of R^n from the angles: one plane rotation in n = 2,
    three Euler-angle rotations in n = 3."""
    def plane(i, j, a):
        r = np.eye(n)
        r[[i, i, j, j], [i, j, i, j]] = np.cos(a), -np.sin(a), np.sin(a), np.cos(a)
        return r

    if n == 2:
        return plane(0, 1, angles[0])
    return plane(0, 1, angles[0]) @ plane(1, 2, angles[1]) @ plane(0, 1, angles[2])
