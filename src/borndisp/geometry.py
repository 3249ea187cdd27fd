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
    """The point is outside H_theta (see ``in_half_space``)."""


@dataclass(frozen=True)
class Direction:
    """Unit vector on S^{n-1}."""

    components: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", v)
        if v.ndim != 1 or v.shape[0] not in (2, 3):
            raise ValueError("direction must be a 2- or 3-vector")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
            raise ValueError("direction must be unit length to 1e-12")

    @classmethod
    def normalized(cls, v) -> "Direction":
        """v / |v|, the one norm test of a direction."""
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):  # v.v can overflow, or be subnormal and lose bits
            sq = v.dot(v)  # |v| = sqrt(v.v), as in np.linalg.norm
        if not np.finfo(float).tiny <= sq < np.inf:
            raise ValueError(f"its norm {np.sqrt(sq):g} is not a positive finite float with a "
                             "normal square: cannot normalize the vector")
        return cls(v / np.sqrt(sq))

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


# 8 eps: the slack of in_half_space per unit |eta|
_HALF_SPACE_SLACK = 8.0 * np.finfo(float).eps


def in_half_space(eta, theta: Direction) -> bool:
    """The one test of eta in H_theta: eta.theta < -8 eps |eta|. Within
    rounding of the hyperplane eta.theta = 0 a point is in neither half."""
    eta = np.asarray(eta, dtype=float)
    slack = _HALF_SPACE_SLACK * float(np.linalg.norm(eta))
    return float(eta @ theta.components) < -slack


def chart(eta, theta: Direction) -> Chart:
    eta = np.asarray(eta, dtype=float)
    dot = float(eta @ theta.components)
    if not in_half_space(eta, theta):
        raise NotInHalfSpace(f"eta.theta = {dot} is not below -8 eps |eta|")
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
    """Quadrature nodes and weights on S^{n-1}; the last coordinate is the
    polar one."""

    nodes: np.ndarray  # (M, n)
    weights: np.ndarray  # (M,)


# |S^{n-1}|, the area of the unit sphere, for the dimensions sphere_rule
# serves
SPHERE_AREA = {2: 2.0 * np.pi, 3: 4.0 * np.pi}


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
        return SphereRule(nodes, weights)
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
        return SphereRule(nodes, weights)
    raise ValueError(f"n must be 2 or 3, got {n}")


def ewald_nodes(
    ch: Chart, radii: np.ndarray, theta: Direction, rule: SphereRule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s_in, s_out, weights) of the sphere rule pushed forward to
    Gamma_r(-2k theta) for R radii: node xi = -k theta + rk H x_i, with H the
    Householder reflection taking the rule's pole to theta, has

        s_in  = |xi|^2       = k^2 ((1 - r)^2 + 2r(1 - u)),  u = x_i.pole,
        s_out = |eta - xi|^2 = k^2 ((1 - r)^2 + 2r(1 - v)),  v = x_i.(H theta'),

    and weight w_i (rk)^{n-1}, each (R, M) for the rule's M nodes. This
    form does not cancel at large k. u is the node's polar coordinate.
    """
    n = theta.dimension
    t_prime, h = ch.theta_prime.components, np.eye(n)[-1] - theta.components
    hh = float(h @ h)
    if hh >= 1e-28:
        t_prime = t_prime - (2.0 * float(t_prime @ h) / hh) * h
    r = np.asarray(radii, dtype=float)[:, None]
    k2, gap, two_r = ch.k**2, (1.0 - r) ** 2, 2.0 * r
    s_in, s_out = ((two_r * (1.0 - x) + gap) * k2
                   for x in (rule.nodes[:, -1], rule.nodes @ t_prime))
    # v = x_i.(H theta') can round above 1
    np.maximum(s_out, 0.0, out=s_out)
    return s_in, s_out, rule.weights * (r * ch.k) ** (n - 1)
