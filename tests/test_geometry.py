import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borndisp.geometry import (
    Direction,
    NotInHalfSpace,
    chart,
    ewald_nodes,
    in_cone,
    in_half_space,
    sphere_rule,
)


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(np.array([1.0, 1.0]))
    d = Direction.normalized([3.0, 4.0])
    assert np.allclose(d.components, [0.6, 0.8])
    assert (-d).components[0] == pytest.approx(-0.6)


def test_chart_backscattering():
    theta = Direction(np.array([-1.0, 0.0]))
    ch = chart(np.array([2.0, 0.0]), theta)
    assert ch.k == pytest.approx(1.0)
    assert np.allclose(ch.theta_prime.components, [1.0, 0.0])


def test_chart_oblique():
    theta = Direction(np.array([0.0, -1.0]))
    ch = chart(np.array([1.0, 1.0]), theta)
    assert ch.k == pytest.approx(1.0)
    assert np.allclose(ch.theta_prime.components, [1.0, 0.0])


def test_chart_outside_half_space():
    theta = Direction(np.array([1.0, 0.0]))
    with pytest.raises(NotInHalfSpace):
        chart(np.array([1.0, 0.0]), theta)
    # eta.theta = -7.3e-16 is zero up to rounding: outside both half spaces
    grazing = Direction(np.array([np.cos(1.5 * np.pi), np.sin(1.5 * np.pi)]))
    eta = np.array([4.0, 0.0])
    assert float(eta @ grazing.components) < 0
    assert not in_half_space(eta, grazing) and not in_half_space(eta, -grazing)
    with pytest.raises(NotInHalfSpace):
        chart(eta, grazing)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.sampled_from([2, 3]))
def test_chart_round_trip_property(seed, n):
    rng = np.random.default_rng(seed)
    theta = Direction.normalized(rng.normal(size=n))
    eta = rng.normal(size=n) * rng.uniform(0.01, 50.0)
    if float(eta @ theta.components) > 0:
        eta = -eta
    if float(eta @ theta.components) == 0.0:
        return
    ch = chart(eta, theta)
    recon = ch.k * (ch.theta_prime.components - theta.components)
    assert np.linalg.norm(recon - eta) <= 1e-12 * np.linalg.norm(eta)
    assert abs(np.linalg.norm(ch.theta_prime.components) - 1.0) <= 1e-12
    assert 2.0 * ch.k >= np.linalg.norm(eta) * (1 - 1e-12)


def test_backscattering_saturates_2k():
    # 2k = |eta| exactly when theta' = -theta
    theta = Direction(np.array([-1.0, 0.0]))
    eta = np.array([3.0, 0.0])
    ch = chart(eta, theta)
    assert 2 * ch.k == pytest.approx(np.linalg.norm(eta))
    assert np.allclose(ch.theta_prime.components, -theta.components)


def test_in_cone():
    theta = Direction(np.array([-1.0, 0.0]))
    assert in_cone(np.array([5.0, 0.0]), theta, 0.9)
    assert not in_cone(np.array([0.0, 1.0]), theta, 0.5)
    # 150 degrees from theta: cos(30) ~ 0.866
    ang = np.deg2rad(150.0)
    eta = np.array([-np.cos(ang), np.sin(ang)])
    assert in_cone(eta, theta, 0.8)
    assert not in_cone(eta, theta, 0.9)
    with pytest.raises(ValueError):
        in_cone(eta, theta, 1.5)


@pytest.mark.parametrize("n,level", [(2, 1), (2, 4), (3, 1), (3, 3)])
def test_sphere_rule_total_weight(n, level):
    rule = sphere_rule(n, level)
    area = 2 * np.pi if n == 2 else 4 * np.pi
    assert np.sum(rule.weights) == pytest.approx(area, abs=1e-10)
    assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0)


def test_sphere_rule_degree2_exact():
    rule = sphere_rule(3, 3)
    val = np.dot(rule.weights, rule.nodes[:, 2] ** 2)
    assert val == pytest.approx(4 * np.pi / 3, abs=1e-12)


def test_sphere_rule_refinement_convergence():
    v = np.array([0.0, 1.8, 2.4])  # |v| = 3

    def integral(level):
        rule = sphere_rule(3, level)
        return np.dot(rule.weights, np.exp(rule.nodes @ v))

    assert abs(integral(5) - integral(6)) <= 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_ewald_nodes_squared_radii(n):
    rng = np.random.default_rng(n)
    rule = sphere_rule(n, 3)
    pole = np.eye(n)[-1]
    radii = np.array([0.4, 1.0, 2.5])
    area = 2 * np.pi if n == 2 else 4 * np.pi
    for _ in range(5):
        theta = Direction.normalized(rng.normal(size=n))
        eta = rng.normal(size=n) * rng.uniform(1.0, 50.0)
        if not in_half_space(eta, theta):
            eta = -eta
        ch = chart(eta, theta)
        s_in, s_out, w = ewald_nodes(ch, radii, theta, rule)
        assert s_in.shape == s_out.shape == w.shape == (radii.size, rule.weights.size)
        # the explicit points xi = -k theta + r k omega, with omega the rule
        # nodes reflected so that the pole goes to theta
        h = pole - theta.components
        omega = rule.nodes - np.outer(rule.nodes @ h, h) * (2.0 / (h @ h))
        assert np.allclose(omega @ theta.components, rule.nodes[:, -1], atol=1e-14)
        rk = radii[:, None, None] * ch.k
        xi = -ch.k * theta.components + rk * omega
        scale = ((1.0 + radii[:, None]) * ch.k) ** 2
        assert np.max(np.abs(s_in - np.sum(xi**2, axis=-1)) / scale) <= 1e-12
        assert np.max(np.abs(s_out - np.sum((eta - xi) ** 2, axis=-1)) / scale) <= 1e-12
        np.testing.assert_allclose(w.sum(axis=1), area * (radii * ch.k) ** (n - 1),
                                   rtol=1e-12)
        assert s_in.min() >= 0.0 and s_out.min() >= 0.0
        if n == 2:
            # a node on the pole: at r = 1 its point is xi = 0
            assert s_in[list(radii).index(1.0)].min() == 0.0
