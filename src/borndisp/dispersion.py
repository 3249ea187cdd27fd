"""
Core operators of the double dispersion term: high-frequency cutoff chi,
the spherical operator S_{theta,r}, the bilinear operator K_r, the r-derivative
of S, the principal-value operator P_theta, B_{theta,2}, the cutoff combination
Q_{theta,2}, and the full-data average Q_{F,2}.

All operators are pure; quadrature reductions use a fixed summation order so
batch evaluation is deterministic regardless of worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import logging
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .geometry import (
    Direction,
    NotInHalfSpace,
    SphereRule,
    chart,
    ewald_nodes,
    orient_nodes,
)
from .potentials import Potential

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth radial cutoff: 0 below C0, 1 above 2 C0, quintic in between."""

    C0: float = 2.0

    def __post_init__(self) -> None:
        if self.C0 <= 1.0:
            raise ValueError(f"C0 must exceed 1, got {self.C0}")


def cutoff_chi(xi, spec: CutoffSpec) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    rho = np.sqrt(np.sum(xi**2, axis=-1))
    u = np.clip((rho - spec.C0) / spec.C0, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


@dataclass(frozen=True)
class PVParams:
    """Numerical parameters for the principal-value integral over r."""

    delta: float = 0.5
    inner_nodes: int = 64
    outer_tol: float = 1e-8
    r_max: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.r_max <= 1.0 + self.delta:
            raise ValueError("r_max must exceed 1 + delta")
        if self.inner_nodes < 2:
            raise ValueError("inner_nodes must be >= 2")


@dataclass
class DispersionSample:
    eta: np.ndarray
    S: complex
    P: complex
    B: complex
    Q: complex
    k: float
    in_H_theta: bool


def spherical_op(
    q: Potential, theta: Direction, r: float, eta, rule: SphereRule
) -> complex:
    """S_{theta,r}(q)(eta): bilinear integral of q_hat over Gamma_r(-2k theta),
    weighted by 1/(k(1+r))."""
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    eta = np.asarray(eta, dtype=float)
    ch = chart(eta, theta)
    points, weights = ewald_nodes(ch.k, r, theta, rule)
    vals = q.fourier_eval(points) * q.fourier_eval(eta - points)
    return complex(np.dot(weights, vals) / (ch.k * (1.0 + r)))


def bilinear_K(
    f1hat, f2hat, theta: Direction, r: float, eta, rule: SphereRule
) -> float:
    """K_r(g1,g2)(eta) = (1/k) integral |g1(xi)| |g2(eta-xi)| over the Ewald
    sphere; same nodes as spherical_op, no (1+r)^{-1} factor."""
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    eta = np.asarray(eta, dtype=float)
    ch = chart(eta, theta)
    points, weights = ewald_nodes(ch.k, r, theta, rule)
    vals = np.abs(f1hat(points)) * np.abs(f2hat(eta - points))
    return float(np.dot(weights, vals) / ch.k)


def ds_dr(q: Potential, theta: Direction, r: float, eta, rule: SphereRule) -> complex:
    """d/dr of S_{theta,r}(q)(eta): measure-derivative term plus the two
    gradient terms from the moving Ewald sphere."""
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    eta = np.asarray(eta, dtype=float)
    ch = chart(eta, theta)
    k, n = ch.k, theta.dimension
    omega = orient_nodes(rule, theta)
    xi = -k * theta.components + (r * k) * omega
    q1 = q.fourier_eval(xi)
    q2 = q.fourier_eval(eta - xi)
    g1 = np.sum(q.fourier_grad(xi) * omega, axis=-1)
    g2 = np.sum(q.fourier_grad(eta - xi) * omega, axis=-1)
    w = rule.weights
    measure = (
        k ** (n - 2)
        * ((n - 1) * r ** (n - 2) * (1.0 + r) - r ** (n - 1))
        / (1.0 + r) ** 2
        * np.dot(w, q1 * q2)
    )
    motion = (
        k ** (n - 1) * r ** (n - 1) / (1.0 + r) * (np.dot(w, g1 * q2) - np.dot(w, q1 * g2))
    )
    return complex(measure + motion)


def _tail_estimate(S_provider, r_max: float) -> float:
    """Crude bound on the neglected tail of the PV integral past r_max,
    assuming power-law decay of |S|."""
    s1 = abs(S_provider(0.8 * r_max))
    s2 = abs(S_provider(r_max))
    if s2 == 0.0:
        return 0.0
    if s1 <= s2:
        return np.inf
    p = np.log(s1 / s2) / np.log(1.0 / 0.8)
    if p <= 1.0:
        return np.inf
    # integral_{r_max}^inf s2 (r/r_max)^{-p} / (r-1) dr, with r-1 ~ r
    return s2 * r_max / ((p - 1.0) * (r_max - 1.0))


def principal_value_op(
    S_provider, k: float, params: PVParams, *, full_output: bool = False
):
    """p.v. integral of S(r)/(1-r) over (0, infinity), truncated at r_max.

    The window |1-r| < delta is evaluated as the symmetric difference
    integral_0^delta [S(1-s) - S(1+s)]/s ds by Gauss-Legendre; the outer
    regions by adaptive quadrature; the tail past r_max is estimated from the
    power-law decay of S and reported separately.
    """
    d = params.delta
    x, w = np.polynomial.legendre.leggauss(params.inner_nodes)
    s = 0.5 * d * (x + 1.0)
    ws = 0.5 * d * w
    inner = complex(np.dot(ws, np.array([
        (S_provider(1.0 - si) - S_provider(1.0 + si)) / si for si in s
    ])))

    lo, _ = integrate.quad_vec(
        lambda r: S_provider(r) / (1.0 - r), 0.0, 1.0 - d,
        epsabs=params.outer_tol, epsrel=params.outer_tol,
    )
    hi, _ = integrate.quad_vec(
        lambda r: S_provider(r) / (1.0 - r), 1.0 + d, params.r_max,
        epsabs=params.outer_tol, epsrel=params.outer_tol,
    )
    value = inner + complex(lo) + complex(hi)
    tail = _tail_estimate(S_provider, params.r_max)
    if np.isfinite(tail) and abs(value) > 0 and tail > 1e-3 * abs(value):
        log.warning(
            "PV tail estimate %.3e exceeds 1e-3 of the computed value %.3e; "
            "consider increasing r_max=%.3g", tail, abs(value), params.r_max,
        )
    if full_output:
        return value, tail
    return value


def _sphere_and_pv(
    q: Potential, theta: Direction, eta: np.ndarray, rule: SphereRule, pv: PVParams
) -> tuple[complex, complex, float]:
    """(S_{theta,1}(q)(eta), P_theta(q)(eta), k); raises NotInHalfSpace
    off H_theta."""
    k = chart(eta, theta).k
    S = spherical_op(q, theta, 1.0, eta, rule)
    P = principal_value_op(lambda r: spherical_op(q, theta, r, eta, rule), k, pv)
    return S, P, k


def b_theta2(
    q: Potential, theta: Direction, eta, rule: SphereRule, pv: PVParams
) -> complex:
    """B_{theta,2}(q)(eta) = i pi S_{theta,1} + P_theta on H_theta, else 0."""
    eta = np.asarray(eta, dtype=float)
    if float(eta @ theta.components) >= 0:
        return 0.0 + 0.0j
    S, P, _ = _sphere_and_pv(q, theta, eta, rule, pv)
    return 1j * np.pi * S + P


def q_theta2_hat(
    q: Potential,
    theta: Direction,
    eta,
    rule: SphereRule,
    pv: PVParams,
    cut: CutoffSpec,
) -> complex:
    """chi(eta) [B_{theta,2} + B_{-theta,2}](eta); at most one summand is
    nonzero off the hyperplane eta.theta = 0."""
    eta = np.asarray(eta, dtype=float)
    chi = float(cutoff_chi(eta, cut))
    if chi == 0.0:
        return 0.0 + 0.0j
    return chi * (b_theta2(q, theta, eta, rule, pv) + b_theta2(q, -theta, eta, rule, pv))


def q_full2_hat(
    q: Potential,
    eta,
    theta_rule: SphereRule,
    rule: SphereRule,
    pv: PVParams,
    cut: CutoffSpec,
) -> complex:
    """Q_{F,2}_hat(eta): average 2/|S^{n-1}| of B_{theta,2}(eta) over the
    hemisphere eta.theta < 0, under the cutoff."""
    eta = np.asarray(eta, dtype=float)
    chi = float(cutoff_chi(eta, cut))
    if chi == 0.0:
        return 0.0 + 0.0j
    n = eta.shape[0]
    sphere_area = 2.0 * np.pi if n == 2 else 4.0 * np.pi
    total = 0.0 + 0.0j
    for node, weight in zip(theta_rule.nodes, theta_rule.weights):
        if float(eta @ node) >= 0:
            continue
        total += weight * b_theta2(q, Direction(node), eta, rule, pv)
    return chi * 2.0 / sphere_area * total


# ---------------------------------------------------------------------------
# Batch API


def dispersion_batch(
    q: Potential,
    theta: Direction,
    etas,
    rule: SphereRule,
    pv: PVParams,
    cut: CutoffSpec,
    threads: int = 1,
) -> list[DispersionSample]:
    """Evaluate S, P, B, Q at each eta, on the half space of theta or of
    -theta that contains it. Per-eta results are independent, so the output
    is identical for any thread count."""

    def sample(eta: np.ndarray) -> DispersionSample:
        in_h = float(eta @ theta.components) < 0
        try:
            S, P, k = _sphere_and_pv(q, theta if in_h else -theta, eta, rule, pv)
        except NotInHalfSpace:
            return DispersionSample(eta, 0j, 0j, 0j, 0j, np.nan, in_h)
        B = 1j * np.pi * S + P
        return DispersionSample(eta, S, P, B, complex(cutoff_chi(eta, cut)) * B, k, in_h)

    etas = [np.asarray(e, dtype=float) for e in etas]
    if threads <= 1:
        return [sample(e) for e in etas]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(sample, etas))


def write_samples_csv(samples: list[DispersionSample], path) -> None:
    if not samples:
        raise ValueError("no samples to write")
    n = samples[0].eta.shape[0]
    cols = [f"eta_{i + 1}" for i in range(n)] + [
        "k", "S_re", "S_im", "P_re", "P_im", "B_re", "B_im", "Q_re", "Q_im",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for s in samples:
            row = [f"{v:.17g}" for v in s.eta]
            row.append(f"{s.k:.17g}")
            for z in (s.S, s.P, s.B, s.Q):
                row.append(f"{complex(z).real:.17g}")
                row.append(f"{complex(z).imag:.17g}")
            writer.writerow(row)
