"""
Fixed-angle frequency chart, half-spaces and cones, Ewald spheres, and
unit-sphere quadrature rules.

The chart inverts eta = k(theta' - theta) on the half space
H_theta = {eta : eta.theta < 0}:

    k = -|eta|^2 / (2 theta.eta),   theta' = (eta + k theta) / k.

The denominator carries a factor 2 so that |theta'| = 1 holds exactly
(|eta + k theta|^2 = |eta|^2 + 2k theta.eta + k^2 = k^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotInHalfSpace(ValueError):
    """eta.theta >= 0: the point is outside H_theta."""


@dataclass(frozen=True)
class Direction:
    """Unit vector on S^{n-1}."""

    components: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", v)
        if v.ndim != 1 or v.shape[0] not in (2, 3):
            raise ValueError("direction must be a 2- or 3-vector")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("direction must be unit length to 1e-12")

    @classmethod
    def normalized(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / norm)

    def __neg__(self) -> "Direction":
        return Direction(-self.components)

    @property
    def dimension(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True)
class Chart:
    """Fixed-angle chart point (k, theta') with eta = k(theta' - theta)."""

    k: float
    theta_prime: Direction


def chart(eta, theta: Direction) -> Chart:
    eta = np.asarray(eta, dtype=float)
    dot = float(eta @ theta.components)
    if dot >= 0:
        raise NotInHalfSpace(f"eta.theta = {dot} >= 0")
    k = -float(eta @ eta) / (2.0 * dot)
    theta_prime = Direction.normalized((eta + k * theta.components) / k)
    return Chart(k=k, theta_prime=theta_prime)


def in_cone(eta, theta: Direction, a: float) -> bool:
    """Membership in the half cone D_theta = {eta : eta.theta <= -a|eta|}."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"cone aperture a must be in (0, 1), got {a}")
    eta = np.asarray(eta, dtype=float)
    return float(eta @ theta.components) <= -a * float(np.linalg.norm(eta))


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes and weights on S^{n-1}."""

    nodes: np.ndarray  # (M, n)
    weights: np.ndarray  # (M,)
    degree: int
    level: int


def sphere_rule(n: int, level: int) -> SphereRule:
    """n = 2: trapezoid with 2^{level+4} angles. n = 3: Gauss-Legendre in
    cos(polar) with 2^{level+2} nodes x trapezoid azimuth with 2^{level+3}."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if n == 2:
        M = 2 ** (level + 4)
        phi = 2.0 * np.pi * np.arange(M) / M
        nodes = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        weights = np.full(M, 2.0 * np.pi / M)
        return SphereRule(nodes, weights, degree=M - 1, level=level)
    if n == 3:
        Mp = 2 ** (level + 2)
        Ma = 2 ** (level + 3)
        x, w = np.polynomial.legendre.leggauss(Mp)  # x = cos(polar)
        phi = 2.0 * np.pi * np.arange(Ma) / Ma
        sin_polar = np.sqrt(1.0 - x**2)
        nodes = np.empty((Mp * Ma, 3))
        nodes[:, 0] = np.outer(sin_polar, np.cos(phi)).ravel()
        nodes[:, 1] = np.outer(sin_polar, np.sin(phi)).ravel()
        nodes[:, 2] = np.repeat(x, Ma)
        weights = np.repeat(w, Ma) * (2.0 * np.pi / Ma)
        return SphereRule(nodes, weights, degree=min(2 * Mp - 1, Ma - 1), level=level)
    raise ValueError(f"n must be 2 or 3, got {n}")


def orient_nodes(rule: SphereRule, axis: Direction) -> np.ndarray:
    """Rotate the rule's nodes so the reference pole maps onto ``axis``.

    Uses a deterministic Householder reflection; the node set remains a valid
    quadrature for the same weights. Orienting the pole at the axis makes the
    rule exact in azimuth for integrands symmetric about the axis.
    """
    n = rule.nodes.shape[1]
    pole = np.zeros(n)
    pole[-1] = 1.0
    u = axis.components
    v = pole - u
    vv = float(v @ v)
    if vv < 1e-28:
        return rule.nodes
    return rule.nodes - np.outer(rule.nodes @ v, v) * (2.0 / vv)


def ewald_nodes(
    k: float, r: float | np.ndarray, theta: Direction, rule: SphereRule
) -> tuple[np.ndarray, np.ndarray]:
    """Pushforward of the sphere rule to Gamma_r(-2 k theta): points
    xi_i = -k theta + r k omega_i, weights w_i (rk)^{n-1}.

    For a scalar r the result has shapes (M, n) and (M,). For a 1-d array of
    R radii the nodes are oriented once and the shapes are (R, M, n) and
    (R, M).
    """
    if k <= 0 or np.any(np.asarray(r) <= 0):
        raise ValueError("k and r must be positive")
    n = theta.dimension
    omega = orient_nodes(rule, theta)
    rk = np.asarray(r, dtype=float) * k
    points = -k * theta.components + rk[..., None, None] * omega
    weights = rule.weights * (rk ** (n - 1))[..., None]
    return points, weights
