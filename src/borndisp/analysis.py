"""
Decay-exponent fitting, refinement scans of weighted frequency-lattice norms,
and pass/fail verdicts against the sharp-regularity predictions.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .dispersion import (
    CutoffSpec,
    PVParams,
    b_theta2,
    bipolar_b,
    spherical_op,
)
from .geometry import Direction, SphereRule, chart, in_cone, sphere_rule
from .potentials import Potential

log = logging.getLogger(__name__)

# Spacing of the radii at which gain_scan samples |Q|; the first radius is
# one step out.
RADIAL_STEP = 2.0
# Gauss-Legendre nodes of gain_scan's polar quadrature over the half space.
POLAR_NODES = 8


class RayOutsideCone(ValueError):
    """The probe ray leaves the half cone D_theta."""


@dataclass
class DecayFit:
    exponent: float
    log_constant: float
    residual: float
    window: tuple[float, float]
    sample_count: int


@dataclass
class RefinementScan:
    alpha: float
    levels: list  # (extent descriptor, norm value)
    growth_ratios: list


@dataclass
class Verdict:
    claim: str
    passed: bool
    margin: float
    details: str

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "pass": self.passed,
            "margin": self.margin,
            "details": self.details,
        }


def fit_decay(samples, window: tuple[float, float]) -> DecayFit:
    """Least-squares line in (log t, log value); exponent = slope.

    Nonpositive values inside the window are excluded (with a logged count);
    at least 8 usable samples are required.
    """
    t = np.asarray([s[0] for s in samples], dtype=float)
    v = np.asarray([s[1] for s in samples], dtype=float)
    in_window = (t >= window[0]) & (t <= window[1])
    usable = in_window & (v > 0)
    dropped = int(in_window.sum() - usable.sum())
    if dropped:
        log.info("fit_decay: excluded %d nonpositive samples", dropped)
    if usable.sum() < 8:
        raise ValueError(f"need >= 8 usable samples in window, got {int(usable.sum())}")
    x, y = np.log(t[usable]), np.log(v[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(
        exponent=float(slope),
        log_constant=float(intercept),
        residual=resid,
        window=window,
        sample_count=int(usable.sum()),
    )


def lemma52_check(
    q: Potential,
    beta: float,
    theta: Direction,
    a: float,
    t_range: tuple[float, float],
    rule: SphereRule,
    cut: CutoffSpec,
    direction=None,
    samples: int = 16,
) -> tuple[Verdict, list]:
    """Lower-bound surrogate for the spherical operator on the cone axis.

    Samples S_{theta,1}(q)(t d) along a ray d in D_theta and passes iff the
    fitted decay exponent is >= -min(beta + n/2 + 1, 2 beta + 2) - 0.15,
    with n = theta.dimension.
    In n = 3, S_{theta,1} = Im B / pi is the middle wedge of ``bipolar_b``
    at the rule's level, for every sample in one call. Returns the verdict
    and the raw (t, S) samples.
    """
    d = -theta.components if direction is None else np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if not in_cone(d, theta, a):
        raise RayOutsideCone("probe direction is not inside D_theta")
    if t_range[0] <= 2.0 * cut.C0:
        log.warning("t_min %.3g is inside the cutoff transition band", t_range[0])
    ts = np.geomspace(t_range[0], t_range[1], samples)
    if theta.dimension == 3:
        etas = ts[:, None] * d
        ks = [chart(eta, theta).k for eta in etas]
        S = bipolar_b(q, np.linalg.norm(etas, axis=1), ks, rule.level,
                      sphere_only=True).imag / np.pi
    else:
        S = [np.real(spherical_op(q, theta, 1.0, t * d, rule)) for t in ts]
    data = [(float(t), float(s)) for t, s in zip(ts, S)]
    fit = fit_decay(data, t_range)
    threshold = -min(beta + theta.dimension / 2.0 + 1.0, 2.0 * beta + 2.0) - 0.15
    margin = fit.exponent - threshold
    verdict = Verdict(
        claim="spherical-operator-lower-bound",
        passed=bool(margin >= 0.0),
        margin=float(margin),
        details=(
            f"fitted exponent {fit.exponent:.4f} vs threshold {threshold:.4f} "
            f"(residual {fit.residual:.3f}, {fit.sample_count} samples)"
        ),
    )
    return verdict, data


def _perp_unit(theta: Direction) -> np.ndarray:
    """Deterministic unit vector orthogonal to theta."""
    v = np.zeros_like(theta.components)
    v[int(np.argmin(np.abs(theta.components)))] = 1.0
    v = v - (v @ theta.components) * theta.components
    return v / np.linalg.norm(v)


def gain_scan(
    q: Potential,
    theta: Direction,
    alphas,
    levels,
    pv: PVParams,
    cut: CutoffSpec,
    rule_level: int = 4,
) -> list[RefinementScan]:
    """Weighted frequency-lattice norms of Q_{theta,2}(q) under growing
    frequency extent.

    q is radial, so the operator output is symmetric about the theta axis and
    the lattice sum reduces to a polar quadrature: |Q| is sampled once on a
    (radius, angle) grid up to the largest extent and every (alpha, level)
    norm is a reweighted partial sum.
    """
    n = theta.dimension
    levels = sorted(float(T) for T in levels)
    if levels[0] < RADIAL_STEP:
        raise ValueError(
            f"level {levels[0]:g} is below the radial step {RADIAL_STEP:g}: "
            "no sampled radius lies inside it"
        )
    T_max = levels[-1]
    ts = np.arange(RADIAL_STEP, T_max + 0.5 * RADIAL_STEP, RADIAL_STEP)
    qsq, mu_w = _polar_samples(q, theta, ts, pv, cut, rule_level)

    scans = []
    for alpha in alphas:
        weight_t = (1.0 + ts**2) ** alpha * ts ** (n - 1) * RADIAL_STEP
        # factor 2: the mirrored half-space contributes equally for radial q
        partial = 2.0 * np.cumsum(weight_t * (qsq @ mu_w))
        level_vals = []
        for T in levels:
            idx = int(np.searchsorted(ts, T + 1e-12) - 1)
            level_vals.append((T, float(np.sqrt(partial[idx]))))
        ratios = [
            level_vals[i + 1][1] / level_vals[i][1] for i in range(len(level_vals) - 1)
        ]
        scans.append(RefinementScan(alpha=float(alpha), levels=level_vals,
                                    growth_ratios=ratios))
    return scans


def _polar_samples(
    q: Potential,
    theta: Direction,
    ts: np.ndarray,
    pv: PVParams,
    cut: CutoffSpec,
    rule_level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """|Q_{theta,2}(q)(eta)|^2 at eta = t d for the radii ts and the
    POLAR_NODES directions d of the half space H_theta, as a (radius,
    direction) array, and the directions' weights.

    The cutoff is taken at the radius t itself, so a row with t <= C0 is
    exactly 0 and evaluates no B. In n = 3 every other point goes to one
    ``bipolar_b`` call: d = -mu theta + sqrt(1 - mu^2) e_perp gives
    |eta| = t and k = t / (2 mu).
    """
    x, w = np.polynomial.legendre.leggauss(POLAR_NODES)
    chi = cut.radial(ts)
    live = np.flatnonzero(chi)
    qsq = np.zeros((ts.size, POLAR_NODES))
    if theta.dimension == 3:
        mus = 0.5 * (x + 1.0)  # mu = -cos(angle to theta) in (0, 1)
        mu_w = 0.5 * w * (2.0 * np.pi)  # hemisphere measure 2 pi d(mu)
        e = np.repeat(ts[live], POLAR_NODES)
        B = bipolar_b(q, e, e / (2.0 * np.tile(mus, live.size)), rule_level)
        qsq[live] = np.abs(chi[live, None] * B.reshape(live.size, POLAR_NODES)) ** 2
        return qsq, mu_w
    phis = 0.5 * np.pi * x  # angle from -theta in (-pi/2, pi/2)
    mu_w = 0.5 * np.pi * w
    e_perp = _perp_unit(theta)
    dirs = [-np.cos(p) * theta.components + np.sin(p) * e_perp for p in phis]
    rule = sphere_rule(2, rule_level)
    for i in live:
        for j, d in enumerate(dirs):
            qsq[i, j] = abs(chi[i] * b_theta2(q, theta, ts[i] * d, rule, pv)) ** 2
    return qsq, mu_w


def scans_to_json(scans: list[RefinementScan]) -> str:
    payload = [
        {
            "alpha": s.alpha,
            "levels": [{"extent": T, "norm": v} for T, v in s.levels],
            "growth_ratios": s.growth_ratios,
        }
        for s in scans
    ]
    return json.dumps(payload, indent=2, sort_keys=True)
