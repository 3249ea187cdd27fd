"""
Decay-exponent fitting, gain scans (polar-quadrature radial sums of |Q|^2),
and pass/fail verdicts against the sharp-regularity predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import CutoffSpec, bipolar_b, dispersion_batch
from .geometry import Direction, in_cone
from .potentials import Potential

# Spacing of the radii at which gain_scan samples |Q|; the first radius is
# one step out.
RADIAL_STEP = 2.0
# The most radii a gain scan samples (levels up to 2^17): POLAR_NODES B
# values each, 2^19 at the cap; a level near 1e100 would not fit np.arange.
MAX_RADII = 2**16
# Gauss-Legendre nodes of gain_scan's polar quadrature over the half space.
POLAR_NODES = 8


class RayOutsideCone(ValueError):
    """The probe ray leaves the half cone D_theta."""


@dataclass
class DecayFit:
    exponent: float
    residual: float
    sample_count: int


def radial_plan(levels, cut: CutoffSpec) -> tuple[np.ndarray, list]:
    """gain_scan's radii RADIAL_STEP, 2 RADIAL_STEP, ... up to the largest level, and
    the sorted levels. Refuses a level past MAX_RADII radii, and one below the first
    radius past C0, where |Q| is 0: its norm is 0, and the next ratio divides by it."""
    levels = sorted(float(T) for T in levels)
    if levels[-1] / RADIAL_STEP > MAX_RADII:
        raise ValueError(f"level {levels[-1]:g} needs more than {MAX_RADII} radii at the "
                         f"radial step {RADIAL_STEP:g}")
    first = (np.floor(cut.C0 / RADIAL_STEP) + 1) * RADIAL_STEP
    if levels[0] < first:
        raise ValueError(f"level {levels[0]:g} is below {first:g}, the first sampled radius "
                         f"past C0 = {cut.C0:g}, and |Q| is 0 up to C0")
    return np.arange(RADIAL_STEP, levels[-1] + 0.5 * RADIAL_STEP, RADIAL_STEP), levels


def radial_weights(radii: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """gain_scan's weights (1 + t^2)^alpha t^(n - 1) RADIAL_STEP, each a positive finite
    float or refused. (1 + t^2)^alpha leaves float range first, at the last radius."""
    with np.errstate(over="ignore"):
        w = (1.0 + radii**2) ** alpha * radii ** (n - 1) * RADIAL_STEP
    if not np.all((0.0 < w) & (w < np.inf)):
        raise ValueError(f"the weight (1 + T^2)^alpha T^(n - 1) at the largest radius "
                         f"T = {radii[-1]:g} is {w[-1]:g}, not a positive finite float")
    return w


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

    Nonpositive values inside the window are excluded; at least 8 usable
    samples are required.
    """
    t = np.asarray([s[0] for s in samples], dtype=float)
    v = np.asarray([s[1] for s in samples], dtype=float)
    in_window = (t >= window[0]) & (t <= window[1])
    usable = in_window & (v > 0)
    if usable.sum() < 8:
        raise ValueError(f"need >= 8 usable samples in window, got {int(usable.sum())}")
    x, y = np.log(t[usable]), np.log(v[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(exponent=float(slope), residual=resid, sample_count=int(usable.sum()))


def lemma52_check(
    q: Potential,
    beta: float,
    theta: Direction,
    a: float,
    t_range: tuple[float, float],
    level: int,
    direction,
    samples: int,
) -> tuple[Verdict, list]:
    """Lower-bound surrogate for the spherical operator along a ray in the cone.

    Samples S_{theta,1}(q)(t d) along the ray d = direction / |direction|,
    which must lie in D_theta, and passes iff the fitted decay exponent is
    >= -min(beta + n/2 + 1, 2 beta + 2) - 0.15, with n = theta.dimension.
    S_{theta,1} = Im B / pi is the S of one ``dispersion_batch`` call over
    the samples at the level. Returns the verdict and the raw (t, S) samples.
    """
    d = Direction.normalized(direction).components
    if not in_cone(d, theta, a):
        raise RayOutsideCone("probe direction is not inside D_theta")
    ts = np.geomspace(t_range[0], t_range[1], samples)
    # S = Im B / pi carries no cutoff, which enters only the batch's Q
    batch = dispersion_batch(q, theta, ts[:, None] * d, level, CutoffSpec())
    data = [(float(t), s.S.real) for t, s in zip(ts, batch)]
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


def gain_scan(
    q: Potential,
    theta: Direction,
    alphas,
    levels,
    cut: CutoffSpec,
    rule_level: int = 4,
) -> list[RefinementScan]:
    """Weighted norms (integral of <eta>^{2 alpha} |Q_{theta,2}(q)|^2 over
    |eta| <= T)^{1/2} under growing frequency extent T.

    q is radial, so the operator output is symmetric about the theta axis
    and the norm is a polar quadrature: |Q|^2 is sampled once on a (radius,
    angle) grid up to the largest extent, and every (alpha, level) norm is
    a reweighted partial sum over ``radial_plan``'s radii.
    """
    ts, levels = radial_plan(levels, cut)
    last = np.searchsorted(ts, np.add(levels, 1e-12)) - 1  # each level's last radius
    weights = [radial_weights(ts, alpha, theta.dimension) for alpha in alphas]
    qsq, mu_w = _polar_samples(q, theta, ts, cut, rule_level)

    scans = []
    for alpha, weight_t in zip(alphas, weights):
        # factor 2: the mirrored half-space contributes equally for radial q
        norms = np.sqrt(2.0 * np.cumsum(weight_t * (qsq @ mu_w)))[last].tolist()
        scans.append(RefinementScan(alpha=float(alpha), levels=list(zip(levels, norms)),
                                    growth_ratios=[b / a for a, b in zip(norms, norms[1:])]))
    return scans


def _polar_samples(
    q: Potential,
    theta: Direction,
    ts: np.ndarray,
    cut: CutoffSpec,
    rule_level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """|Q_{theta,2}(q)(eta)|^2 at eta = t d for the radii ts and the
    POLAR_NODES directions d of the half space H_theta, as a (radius,
    direction) array, and the directions' weights.

    The cutoff is taken at the radius t itself, so a row with t <= C0 is
    exactly 0 and evaluates no B. Every other point goes to one
    ``bipolar_b`` call: a direction at the angle a from -theta gives
    |eta| = t and k = t / (2 cos a). In n = 3 the nodes are Gauss-Legendre
    in mu = cos a on (0, 1), under the hemisphere measure 2 pi dmu; in
    n = 2 they are Gauss-Legendre in a on (-pi/2, pi/2).
    """
    x, w = np.polynomial.legendre.leggauss(POLAR_NODES)
    if theta.dimension == 3:
        mus = 0.5 * (x + 1.0)
        mu_w = 0.5 * w * (2.0 * np.pi)
    else:
        mus = np.cos(0.5 * np.pi * x)
        mu_w = 0.5 * np.pi * w
    chi = cut.radial(ts)
    live = np.flatnonzero(chi)
    qsq = np.zeros((ts.size, POLAR_NODES))
    e = np.repeat(ts[live], POLAR_NODES)
    B = bipolar_b(q, e, e / (2.0 * np.tile(mus, live.size)), rule_level)
    qsq[live] = np.abs(chi[live, None] * B.reshape(live.size, POLAR_NODES)) ** 2
    return qsq, mu_w
