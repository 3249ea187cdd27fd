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
    orient_nodes,
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


def test_orient_nodes_pole_to_axis(rule3):
    axis = Direction.normalized([1.0, 2.0, -2.0])
    nodes = orient_nodes(rule3, axis)
    # orientation preserves the quadrature (weights unchanged, same sphere)
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0)
    # axisymmetric integrands see the same node latitudes as at the pole
    before = np.dot(rule3.weights, np.exp(2.0 * rule3.nodes[:, 2]))
    after = np.dot(rule3.weights, np.exp(2.0 * (nodes @ axis.components)))
    assert after == pytest.approx(before, rel=1e-12)
    assert np.max(np.abs(nodes @ axis.components - rule3.nodes[:, 2])) <= 1e-12


def test_ewald_nodes_measure_and_radius(rule2):
    theta = Direction(np.array([-1.0, 0.0]))
    k, r = 3.0, 1.5
    pts, w = ewald_nodes(k, r, theta, rule2)
    assert np.sum(w) == pytest.approx(2 * np.pi * (r * k), abs=1e-10)
    dist = np.linalg.norm(pts + k * theta.components, axis=1)
    assert np.max(np.abs(dist - r * k)) <= 1e-12 * r * k
    # r = 1: the sphere passes through the origin
    pts1, _ = ewald_nodes(k, 1.0, theta, rule2)
    assert np.min(np.linalg.norm(pts1, axis=1)) < 2 * np.pi * k / len(pts1) * 2
