"""
Independent brute-force references: direct evaluation of B_{theta,2} in polar
coordinates about -k theta, S_{theta,r} and B_{theta,2} in closed form for a
Gaussian, a 1-d principal-value integrator for closed-form checks, the sphere
trace-constant ratio of a radial potential, the closed-form H^1 energy of a
Gaussian mixture, and the sphere-kernel integral bound.

These deliberately avoid the Ewald-sphere parametrization and the PV
machinery of the dispersion module so agreement is an end-to-end test.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import integrate

from .geometry import SPHERE_AREA, Direction, chart
from .potentials import Potential

EULER_GAMMA = 0.5772156649015328606


class ToleranceNotReached(RuntimeError):
    pass


def exp1_series(x: float) -> float:
    """E_1(x) = -gamma - log x + sum (-1)^{k+1} x^k / (k k!), for x > 0, to
    60 terms."""
    if x <= 0:
        raise ValueError("series valid for x > 0")
    total = -EULER_GAMMA - np.log(x)
    term = 1.0
    for k in range(1, 61):
        term *= -x / k
        total -= term / k
    return total


def pv_1d(f, singularity: float, domain: tuple[float, float]) -> float:
    """p.v. integral of f over the domain, f having a simple-pole singularity,
    to an estimated error of 1e-9.

    Symmetric pairing on the largest window around the pole that fits the
    domain; adaptive quadrature outside. At most one end may be infinite.
    """
    a, b = domain
    s = singularity
    if not a < s < b:
        raise ValueError("singularity must lie inside the domain")
    w, tol = min(s - a, b - s), 1e-9
    x, gw = np.polynomial.legendre.leggauss(96)
    u = 0.5 * w * (x + 1.0)
    wu = 0.5 * w * gw
    inner = float(np.dot(wu, [f(s + ui) + f(s - ui) for ui in u]))
    total = inner
    err = 0.0
    if a < s - w:
        lo, e1 = integrate.quad(f, a, s - w, epsabs=tol / 4, epsrel=tol / 4, limit=400)
        total += lo
        err += e1
    if s + w < b:
        hi, e2 = integrate.quad(f, s + w, b, epsabs=tol / 4, epsrel=tol / 4, limit=400)
        total += hi
        err += e2
    if err > tol:
        raise ToleranceNotReached(f"quadrature error estimate {err:.2e} > tol {tol:.2e}")
    return total


def brute_b_theta2(
    q: Potential,
    theta: Direction,
    eta,
    resolution: int = 2048,
) -> complex:
    """Direct evaluation of B_{theta,2}(q)(eta) for n = 2.

    Sphere term by dense trapezoid on the circle; principal-value term as
    p.v. integral over R^2 of q_hat(xi) q_hat(eta - xi) / (xi.(xi + 2k theta))
    in polar coordinates (t, phi) about -k theta, where the denominator is
    t^2 - k^2, with symmetric pairing in t at t = k, cut at t = k + |eta| + 12.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[0] != 2:
        raise ValueError("brute-force reference is restricted to n = 2")
    if not q.analytic_fourier:
        raise ValueError("brute-force reference requires an analytic q_hat")
    ch = chart(eta, theta)
    k = ch.k
    M = resolution
    phi = 2.0 * np.pi * np.arange(M) / M
    omega = np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    # Sphere term: S_{theta,1} = (1/(2k)) * k * integral over angles.
    xi1 = k * omega - k * theta.components
    F1 = q.fourier_eval(xi1) * q.fourier_eval(eta - xi1)
    sphere = 0.5 * (2.0 * np.pi / M) * np.sum(F1)

    def ring(t):
        xi = -k * theta.components + t * omega
        vals = q.fourier_eval(xi) * q.fourier_eval(eta - xi)
        return (2.0 * np.pi / M) * np.sum(vals)

    def g(t):
        return t * ring(t) / (k**2 - t**2)

    t_max = k + float(np.linalg.norm(eta)) + 12.0
    delta = 0.5
    x, gw = np.polynomial.legendre.leggauss(96)
    u = 0.5 * delta * k * (x + 1.0)
    wu = 0.5 * delta * k * gw
    inner = np.dot(wu, [g(k - ui) + g(k + ui) for ui in u])
    lo, _ = integrate.quad_vec(g, 0.0, (1.0 - delta) * k, epsabs=1e-12, epsrel=1e-10)
    hi, _ = integrate.quad_vec(g, (1.0 + delta) * k, t_max, epsabs=1e-12, epsrel=1e-10)
    pv_term = inner + lo + hi
    return complex(1j * np.pi * sphere + pv_term)


# ---------------------------------------------------------------------------
# Closed forms for the Gaussian q = exp(-a |x|^2)


def _gaussian_chart(theta: Direction, eta) -> tuple[float, float, float]:
    """(k, |eta|^2, c = |theta + theta'|) at eta in H_theta."""
    eta = np.asarray(eta, dtype=float)
    k = chart(eta, theta).k
    e = float(np.linalg.norm(eta))
    return k, e * e, np.sqrt(max(2.0 * k - e, 0.0) * (2.0 * k + e)) / k


def gaussian_s(a: float, theta: Direction, eta, r):
    """S_{theta,r}(q)(eta) for q = exp(-a |x|^2) in n = 2 or 3, for a radius
    or an array of radii:

        S(r) = A^2 (rk)^{n-1} / (k (1 + r)) (2 pi)^{n/2} kappa^{1-n/2}
               ive(n/2 - 1, kappa) exp(-(k^2/2a)(1 + r^2 - r c))

    with A = (pi/a)^{n/2}, c = |theta + theta'| and kappa = r k^2 c / 2a.
    In n = 3 the Bessel factor is 4 pi (1 - exp(-2 kappa)) / (2 kappa), which
    tends to the sphere area 4 pi at kappa = 0 (theta' = -theta). The
    exponent is formed as (1 - r)^2 + r (2 - c), with
    2 - c = |eta|^2 / (k^2 (2 + c)), which does not cancel at large k.
    S is 0 wherever the exponential underflows.
    """
    n = theta.dimension
    k, e2, c = _gaussian_chart(theta, eta)
    r = np.asarray(r, dtype=float)
    kappa = r * k * k * c / (2.0 * a)
    if n == 3:
        safe = np.where(kappa > 0.0, kappa, 1.0)
        bessel = 4.0 * np.pi * np.where(kappa > 0.0, -np.expm1(-2.0 * safe) / (2.0 * safe), 1.0)
    else:
        from scipy.special import ive

        bessel = 2.0 * np.pi * ive(0, kappa)
    exponent = -(k * k / (2.0 * a)) * ((1.0 - r) ** 2 + r * e2 / (k * k * (2.0 + c)))
    amp = (np.pi / a) ** n
    decay = np.exp(exponent)
    # ive(0, kappa) is NaN past kappa ~ 2e9, which the far tail reaches at
    # large k; there the exponential has long underflowed to 0
    return np.where(decay > 0.0,
                    amp * (r * k) ** (n - 1) / (k * (1.0 + r)) * bessel * decay, 0.0)


def gaussian_b_theta2(a: float, theta: Direction, eta) -> complex:
    """B_{theta,2}(q)(eta) = i pi S(1) + p.v. integral_0^inf S(r)/(1 - r) dr
    for q = exp(-a |x|^2), from ``gaussian_s`` by adaptive quadrature.

    S peaks at r = c/2 with width sqrt(a)/k. The pole's window
    |r - 1| < d, d = min(1/2, 10 sqrt(a)/k), is integrated with the Cauchy
    weight; the rest of (0, 4) in pieces split at the peak and a few widths
    on either side; the tail (4, infinity) through r = 4/v.
    """
    k, _, c = _gaussian_chart(theta, eta)

    def S(r):
        return float(gaussian_s(a, theta, eta, r))

    width = np.sqrt(a) / k
    d = min(0.5, 10.0 * width)
    tol = 1e-15 * (abs(S(0.5 * c)) + abs(S(1.0)))
    opts = {"epsabs": tol, "epsrel": 1e-13, "limit": 500}
    marks = 0.5 * c + width * np.array([-12.0, -6.0, -3.0, -1.5, 0.0, 1.5, 3.0, 6.0, 12.0])
    with warnings.catch_warnings():
        # QUADPACK reports roundoff at these tolerances; the results hold
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        P = -integrate.quad(S, 1.0 - d, 1.0 + d, weight="cauchy", wvar=1.0, **opts)[0]
        for lo, hi in ((0.0, 1.0 - d), (1.0 + d, 4.0)):
            edges = [lo, *sorted(x for x in marks if lo < x < hi), hi]
            for p0, p1 in zip(edges[:-1], edges[1:]):
                P += integrate.quad(lambda r: S(r) / (1.0 - r), p0, p1, **opts)[0]
        P += integrate.quad(lambda v: S(4.0 / v) * 4.0 / (v * (v - 4.0)) if v > 0 else 0.0,
                            0.0, 1.0, **opts)[0]
    return complex(P, np.pi * S(1.0))


# ---------------------------------------------------------------------------
# Trace constant (sphere trace inequality with constant 1)


def trace_ratio(f: Potential, rho: float) -> float:
    """Ratio of the sphere-trace integral to the full W^{1,2} energy of a
    radial potential with a ``spatial_radial``:

        integral_{S_rho} |f|^2 dsigma  /  (integral |f|^2 + integral |grad f|^2)

    Both sides reduce to 1-d quadratures, on the space and frequency sides.
    """
    n = f.dimension
    area = SPHERE_AREA[n]
    fval = float(np.abs(f.spatial_radial(rho**2)) ** 2)
    numer = fval * area * rho ** (n - 1)

    def dens(s):
        return float(np.abs(f.fourier_radial(s**2)) ** 2) * (1.0 + s**2) * s ** (n - 1)

    integral, _ = integrate.quad(dens, 0.0, np.inf, limit=400)
    denom = area * integral / (2.0 * np.pi) ** n
    if denom == 0.0:
        return 0.0
    return numer / denom


def gaussian_mixture_h1(amps, centers, widths) -> float:
    """integral |f|^2 + integral |grad f|^2 over R^n for the mixture
    f(x) = sum_i a_i exp(-w_i |x - c_i|^2), centers of shape (m, n).

    Each pair (i, j) contributes a_i a_j I_ij (1 + 2 mu (n - 2 mu d^2)), with
    p = w_i + w_j, mu = w_i w_j / p, d = |c_i - c_j| and the overlap
    I_ij = (pi/p)^{n/2} exp(-mu d^2).
    """
    a = np.asarray(amps, dtype=float)
    c = np.asarray(centers, dtype=float)
    w = np.asarray(widths, dtype=float)
    n = c.shape[1]
    p = np.add.outer(w, w)
    mu = np.multiply.outer(w, w) / p
    d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
    overlap = (np.pi / p) ** (n / 2.0) * np.exp(-mu * d2)
    return float(a @ (overlap * (1.0 + 2.0 * mu * (n - 2.0 * mu * d2))) @ a)


def sphere_kernel_bound(
    x, rho: float, lam: float, n: int, level: int
) -> float:
    """integral_{S_rho} |x - y|^{-(n-1-2 lam)} dsigma(y) / rho^{2 lam}.

    Reduced to a polar integral about the direction of x; panels are graded
    geometrically toward the near point, with counts tied to the level so
    refinement is meaningful.
    """
    if not 0.0 < lam <= (n - 1) / 2.0:
        raise ValueError(f"lambda must be in (0, (n-1)/2], got {lam}")
    x = np.asarray(x, dtype=float)
    e = (n - 1) - 2.0 * lam
    R = float(np.linalg.norm(x))
    area = SPHERE_AREA[n]
    if e == 0.0:
        return area * rho ** (n - 1) / rho ** (2.0 * lam)
    if R == 0.0:
        return area * rho ** (n - 1) * rho ** (-e) / rho ** (2.0 * lam)

    panels = 8 * level
    nodes = 8 + 2 * level
    gx, gw = np.polynomial.legendre.leggauss(nodes)

    def panel_integral(fn, lo, hi):
        # geometric grading toward the singular end hi
        edges = hi - (hi - lo) * np.geomspace(1.0, 1e-12, panels + 1)
        total = 0.0
        for aa, bb in zip(edges[:-1], edges[1:]):
            lo_, hi_ = min(aa, bb), max(aa, bb)
            mid, half = 0.5 * (lo_ + hi_), 0.5 * (hi_ - lo_)
            total += half * np.dot(gw, fn(mid + half * gx))
        return total

    if n == 3:
        # u = cos(angle to x): 2 pi rho^2 integral (R^2+rho^2-2 R rho u)^{-e/2} du
        def fn(u):
            return (R**2 + rho**2 - 2.0 * R * rho * u) ** (-e / 2.0)

        val = 2.0 * np.pi * rho**2 * panel_integral(fn, -1.0, 1.0)
    else:
        # 2 rho integral_0^pi (R^2+rho^2-2 R rho cos p)^{-e/2} dp, singular at
        # p=0; written as (R-rho)^2 + 4 R rho sin^2(p/2) to avoid cancellation
        def fn(p):
            return ((R - rho) ** 2 + 4.0 * R * rho * np.sin(0.5 * p) ** 2) ** (
                -e / 2.0
            )

        val = 2.0 * rho * panel_integral(fn, np.pi, 0.0)
    return float(val / rho ** (2.0 * lam))
