"""Reference evaluator for B_{theta,2}, independent of the program's
quadrature.

It uses its own sphere rule, with its pole at theta, and a
Cauchy-weighted principal value over (0, R) plus an adaptive tail over
(R, infinity). Only the potential's public ``fourier_eval`` is called; the
``dispersion`` and ``geometry`` modules are not used, so agreement between
this evaluator and the program is an end-to-end check of both.

Definitions, with k = -|eta|^2 / (2 eta.theta) and xi = -k theta + r k omega:

    S(r) = 1/(k(1+r)) * integral over S^{n-1} of
           q_hat(xi) q_hat(eta - xi) (r k)^{n-1} d omega
    B    = i pi S(1) + p.v. integral_0^inf S(r) / (1 - r) dr

Run ``PYTHONPATH=src python3 bench/refeval.py`` from the repository root to
regenerate the stored reference of the scan-n3 workload.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
from scipy import integrate

from workloads import GBETA_N3, REFERENCE_DIR, SCAN

SPLIT_R = 4.0
# Must match analysis.gain_scan's default discretisation and CutoffSpec().C0.
POLAR_NODES = 8
RADIAL_STEP = 2.0
C0 = 2.0


def sphere_rule(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (M, n) and weights (M,) on S^{n-1} in a local frame whose last
    axis is the pole and whose first axis spans, with the pole, a mirror
    plane of the integrand. n = 2: an m-point trapezoid in angle. n = 3: m
    Gauss-Legendre nodes in cos(polar) times the m trapezoid azimuths of a
    2m-point rule that lie in (0, pi), weighted twice for their mirror
    images."""
    if n == 2:
        phi = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        return np.stack([np.sin(phi), np.cos(phi)], axis=-1), np.full(m, 2.0 * np.pi / m)
    if n == 3:
        u, wu = np.polynomial.legendre.leggauss(m)
        phi = np.pi * (np.arange(m) + 0.5) / m
        s = np.sqrt(1.0 - u**2)
        nodes = np.stack([
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(u, m),
        ], axis=-1)
        return nodes, np.repeat(wu, m) * (2.0 * np.pi / m)
    raise ValueError(f"n must be 2 or 3, got {n}")


def _frame(theta: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rows form an orthonormal basis whose last row is theta and whose first
    row lies in the plane of theta and ``other``."""
    n = theta.shape[0]
    e1 = other - (other @ theta) * theta
    if np.linalg.norm(e1) < 1e-12:
        e1 = np.eye(n)[int(np.argmin(np.abs(theta)))]
        e1 = e1 - (e1 @ theta) * theta
    e1 = e1 / np.linalg.norm(e1)
    if n == 2:
        return np.stack([e1, theta])
    return np.stack([e1, np.cross(theta, e1), theta])


class Evaluator:
    """B_{theta,2}(q)(eta) for one radial potential and one sphere-rule size.

    The rule's pole is theta and its mirror plane holds theta and eta. For
    radial q the integrand q_hat(xi) q_hat(eta - xi) depends on omega only
    through omega.theta and omega.theta' (eta = k(theta' - theta)), so it is
    even about that plane.
    """

    def __init__(self, fourier_eval, n: int, m: int, rel_tol: float = 1e-10):
        self.fourier_eval = fourier_eval
        self.n = n
        self.rule_nodes, self.rule_weights = sphere_rule(n, m)
        self.rel_tol = rel_tol

    def spherical(self, theta, eta):
        """Return (k, S) with S a function of r, for eta in H_theta."""
        theta = np.asarray(theta, dtype=float)
        theta = theta / np.linalg.norm(theta)
        eta = np.asarray(eta, dtype=float)
        dot = float(eta @ theta)
        if dot >= 0:
            raise ValueError("eta must satisfy eta.theta < 0")
        k = -float(eta @ eta) / (2.0 * dot)
        omega = self.rule_nodes @ _frame(theta, eta)
        w = self.rule_weights
        centre = -k * theta
        n = self.n

        def S(r: float) -> float:
            xi = centre + (r * k) * omega
            vals = self.fourier_eval(xi) * self.fourier_eval(eta - xi)
            return float(np.real(np.dot(w, vals))) * (r * k) ** (n - 1) / (k * (1.0 + r))

        return k, S

    def b_theta2(self, theta, eta) -> complex:
        _, S = self.spherical(theta, eta)
        return 1j * np.pi * S(1.0) + pv_to_inf(S, self.rel_tol)


def pv_to_inf(S, rel_tol: float = 1e-10) -> float:
    """p.v. integral of S(r)/(1 - r) over (0, infinity) for real S.

    The tolerance is rel_tol times the largest |S| on (0, 3]. The tail is
    mapped to (0, 1] by r = R / v. Raises ArithmeticError when QUADPACK's
    own error estimate exceeds 100 times the tolerance.
    """
    tol = rel_tol * max(abs(S(r)) for r in (0.5, 1.0, 1.5, 2.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        near, e_near = integrate.quad(S, 0.0, SPLIT_R, weight="cauchy", wvar=1.0,
                                      epsabs=tol, epsrel=rel_tol, limit=400)
        tail, e_tail = integrate.quad(
            lambda v: S(SPLIT_R / v) / (SPLIT_R / v - 1.0) * SPLIT_R / v**2
            if v > 0 else 0.0,
            0.0, 1.0, epsabs=tol, epsrel=rel_tol, limit=400)
    if e_near + e_tail > 100.0 * tol:
        raise ArithmeticError(
            f"PV reference error estimate {e_near + e_tail:.2e} exceeds {100.0 * tol:.2e}")
    return -(near + tail)


def cutoff(t: float) -> float:
    """The program's quintic cutoff chi as a function of |eta|."""
    u = min(max((t - C0) / C0, 0.0), 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def gain_scan_norms(ev: Evaluator, alphas, levels) -> dict:
    """Weighted norms of Q_{theta,2} over growing extents for radial q in
    n = 3, by the polar reduction the gain-scan experiment documents: |Q| on
    a (radius, polar angle) grid, summed with weights (1+t^2)^alpha t^2."""
    theta = np.array([0.0, 0.0, 1.0])
    perp = np.array([1.0, 0.0, 0.0])
    levels = sorted(float(T) for T in levels)
    ts = np.arange(RADIAL_STEP, levels[-1] + 0.5 * RADIAL_STEP, RADIAL_STEP)
    x, w = np.polynomial.legendre.leggauss(POLAR_NODES)
    mus = 0.5 * (x + 1.0)
    mu_w = 0.5 * w * (2.0 * np.pi)
    qsq = np.zeros((ts.size, POLAR_NODES))
    for i, t in enumerate(ts):
        chi = cutoff(t)
        if chi == 0.0:
            continue
        for j, mu in enumerate(mus):
            eta = t * (-mu * theta + np.sqrt(1.0 - mu**2) * perp)
            qsq[i, j] = abs(chi * ev.b_theta2(theta, eta)) ** 2
    out = {}
    for alpha in alphas:
        partial = 2.0 * np.cumsum((1.0 + ts**2) ** alpha * ts**2 * RADIAL_STEP * (qsq @ mu_w))
        out[f"{float(alpha):g}"] = [
            float(np.sqrt(partial[int(np.searchsorted(ts, T + 1e-12) - 1)])) for T in levels
        ]
    return out


def write_scan_reference() -> None:
    """Regenerate reference/scan_n3.json from g_beta (n = 3, beta = 1,
    N = 128, L = 16), as the scan-n3 workload synthesizes it."""
    from borndisp import GBetaSpec, make_gbeta, make_grid

    q = make_gbeta(GBetaSpec(beta=GBETA_N3["beta"], bump_radius=GBETA_N3["bump_radius"],
                             grid=make_grid(3, 128, 16.0)))
    ev = Evaluator(q.fourier_eval, 3, SCAN["ref_rule_m"], rel_tol=1e-8)
    payload = {"levels": SCAN["levels"], "rule_m": SCAN["ref_rule_m"],
               "norms": gain_scan_norms(ev, SCAN["alphas"], SCAN["levels"])}
    (REFERENCE_DIR / "scan_n3.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_scan_reference()
