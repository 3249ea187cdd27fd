"""
Core operators of the double dispersion term: high-frequency cutoff chi,
the spherical operator S_{theta,r}, the principal-value operator P_theta,
B_{theta,2}, the cutoff combination Q_{theta,2}, and the full-data average
Q_{F,2}.

B = i pi S_{theta,1} + P_theta comes from the bipolar identity
(``bipolar_b``) in n = 2 and 3: for radial q it is a 2-d integral of
q_hat(rho1) q_hat(rho2) against a closed-form azimuth kernel. S_{theta,r}
(one radius or a vector of radii) and the PV rule over r (a fixed
Gauss-Legendre rule over (0, infinity), tail included) stay as its
independent reference.

All operators are pure; quadrature reductions use a fixed summation order, so
a point's value does not depend on the batch or block that holds it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (SPHERE_AREA, Direction, NotInHalfSpace, SphereRule, chart, ewald_nodes,
                       in_half_space)
from .potentials import Potential

# Gauss-Legendre nodes on each of the three outer pieces of the PV integral,
# and the radius R1 where the tail (R1, infinity) starts; the tail is mapped
# onto (0, 1) by r = R1 / v.
OUTER_NODES = 24
TAIL_R1 = 4.0

# q_hat reads per block of bipolar_b: (chi, R) nodes per wedge in n = 3,
# and at least one point's nodes in n = 2. A block's arrays (its nodes and
# the temporaries of a tabulated q_hat read) are then 256 KiB each and about
# 2 MiB together: they stay in a core's L2 cache, and malloc reuses the freed
# temporaries for the next block instead of returning them to the system and
# faulting them back in. Smaller blocks pay the per-block overhead instead.
# The reference spherical_op takes blocks of radii of the same size.
BLOCK_POINTS = 2**15

# Radius scale of the bipolar rule: for each chi the radius R runs over
# (0, 1/sin chi) through R = R0 w / (1 - w + w R0 sin chi), w in (0, 1), so
# that w = 1/2 falls near R0 while sin chi is small. At a level L the rule
# has 2^(L + 3) nodes in w (see ``bipolar_b`` for chi).
BIPOLAR_R0 = 4.0

# The n = 2 rule splits chi in (0, pi/2) at 5 pi/16, above the pole
# chi_ <= pi/4 (see ``_mirror_b``). On the N = 256 lattice g_beta, level 4
# is then within 7e-6 of level 8 at |eta| = 24 for k from backscatter to
# 2400; a split at 3 pi/8 leaves 1.8e-5 near k = 20.
_CHI_SPLIT = 0.3125 * math.pi


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth radial cutoff: 0 below C0, 1 above 2 C0, quintic in between."""

    C0: float = 2.0

    def __post_init__(self) -> None:
        if not self.C0 > 1.0:
            raise ValueError(f"C0 must exceed 1, got {self.C0}")

    def radial(self, rho) -> np.ndarray:
        """chi as a function of the radius |xi|."""
        u = np.clip((np.asarray(rho, dtype=float) - self.C0) / self.C0, 0.0, 1.0)
        return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def cutoff_chi(xi, spec: CutoffSpec) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return spec.radial(np.sqrt(np.sum(xi**2, axis=-1)))


@dataclass(frozen=True)
class PVParams:
    """Numerical parameters for the principal-value integral over r.

    ``rule`` holds the (radii, coefficients) of the principal-value rule they
    define (see ``principal_value_op``), built once here; it takes no part
    in comparison, hashing or repr."""

    delta: float = 0.5
    inner_nodes: int = 64
    rule: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.inner_nodes < 2:
            raise ValueError("inner_nodes must be >= 2")
        d = self.delta
        x, w = np.polynomial.legendre.leggauss(self.inner_nodes)
        s, ws = 0.5 * d * (x + 1.0), 0.5 * d * w
        x, w = np.polynomial.legendre.leggauss(OUTER_NODES)
        v, wv = 0.5 * (x + 1.0), 0.5 * w  # rule on (0, 1)
        span = TAIL_R1 - 1.0 - d
        outer = np.concatenate([(1.0 - d) * v, 1.0 + d + span * v, TAIL_R1 / v])
        outer_w = np.concatenate([(1.0 - d) * wv, span * wv, TAIL_R1 * wv / v**2])
        radii = np.concatenate([1.0 - s, 1.0 + s, outer])
        coeffs = np.concatenate([ws / s, -ws / s, outer_w / (1.0 - outer)])
        object.__setattr__(self, "rule", (radii, coeffs))


@dataclass
class DispersionSample:
    eta: np.ndarray
    S: complex
    P: complex
    B: complex
    Q: complex
    k: float


def spherical_op(
    q: Potential, theta: Direction, r: float | np.ndarray, eta, rule: SphereRule
) -> complex | np.ndarray:
    """S_{theta,r}(q)(eta): bilinear integral of q_hat over Gamma_r(-2k theta),
    weighted by 1/(k(1+r)).

    A scalar r gives a complex; a 1-d array of R radii gives an (R,) complex
    array, evaluated in blocks of at most BLOCK_POINTS (radius, node) pairs
    (at least one radius), each read at the radii |xi| and |eta - xi| of its
    nodes from ``ewald_nodes``.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(radii <= 0):
        raise ValueError(f"r must be positive, got {r}")
    ch = chart(eta, theta)
    step = min(radii.size, max(1, BLOCK_POINTS // rule.weights.size))
    sums = np.empty(radii.size)
    for i in range(0, radii.size, step):
        s_in, s_out, weights = ewald_nodes(ch, radii[i:i + step], theta, rule)
        sums[i:i + step] = np.vecdot(weights, q.fourier_radial(s_in) * q.fourier_radial(s_out))
    S = (sums / (ch.k * (1.0 + radii))).astype(complex)
    return complex(S[0]) if np.ndim(r) == 0 else S


def principal_value_op(S_provider, params: PVParams) -> complex:
    """p.v. integral of S(r)/(1-r) over (0, infinity).

    ``S_provider`` maps a 1-d array of radii to the array of S values; it is
    called once, on the radii of ``params.rule``, a fixed rule of four
    Gauss-Legendre pieces: the window |1-r| < delta as the symmetric
    difference integral_0^delta [S(1-s) - S(1+s)]/s ds, then (0, 1-delta),
    (1+delta, R1), and the tail (R1, infinity) through r = R1 / v.
    """
    radii, coeffs = params.rule
    return complex(np.dot(coeffs, S_provider(radii)))


@functools.lru_cache(maxsize=8)
def _half_angle_rule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sin^2(t/2), cos^2(t/2), weights) of m Gauss-Legendre nodes t on
    (0, pi). Under z = a + (b - a) sin^2(t/2) a 1/sqrt singularity at
    either end of (a, b) cancels against dz/dt = (b - a) sin(t/2) cos(t/2).
    The arrays are shared, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    half = 0.25 * np.pi * (x + 1.0)
    rule = np.sin(half) ** 2, np.cos(half) ** 2, 0.5 * np.pi * w
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=8)
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of m-point Gauss-Legendre on (0, 1), read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.flags.writeable = False
    return rule


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x) / x, 1 at 0."""
    return np.sinc(x / np.pi)


def _wedges(e: np.ndarray, k: np.ndarray, m: int):
    """(sign, cos chi, sin chi, chi weight) of the bipolar rule's wedges for
    a block of points, the last three of shape (points, m).

    With lambda = (tan psi + sec psi)^2 and chi_ = atan(1/lambda), the
    kernel's singular rays are chi_ and pi/2 - chi_, and
    h(chi) = sqrt(lambda + 1/lambda) sqrt|sin(chi - chi_) cos(chi + chi_)|.
    Each wedge's weight is that of dchi / h under the half-angle map, with
    the offsets from the wedge ends taken from the map, so that it holds no
    difference of nearby angles and stays finite when the middle wedge
    closes (eta = -2k theta).
    """
    s0, c0, wt = _half_angle_rule(m)
    # per-point scalars in math, one point at a time, so that a point's
    # rule does not depend on the other points of its block
    per_point = []
    for ei, ki in zip(e.tolist(), k.tolist()):
        te = math.sqrt(max(2.0 * ki - ei, 0.0) * (2.0 * ki + ei))  # e tan psi
        lam = ((te + 2.0 * ki) / ei) ** 2
        per_point.append((math.atan(1.0 / lam), math.atan(4.0 * ki * te / ei**2),
                          1.0 / math.sqrt(lam + 1.0 / lam)))
    lo, width, inv_scale = (np.array(c)[:, None] for c in zip(*per_point))
    chi = lo + width * s0
    wedges = [(1j, np.cos(chi), np.sin(chi),
               wt * inv_scale / np.sqrt(_sinc(width * s0) * _sinc(width * c0)))]
    # [0, chi_] with sign -1, and its mirror [pi/2 - chi_, pi/2] with +1
    for sign, near, far in ((-1.0, s0, c0), (1.0, c0, s0)):
        chi = lo * near  # the offset from 0 or from pi/2
        cos_chi, sin_chi = np.cos(chi), np.sin(chi)
        weight = wt * inv_scale * np.sqrt(chi / (np.cos(lo * (1.0 + near)) * _sinc(lo * far)))
        if sign > 0:
            cos_chi, sin_chi = sin_chi, cos_chi
        wedges.append((sign, cos_chi, sin_chi, weight))
    for sign, cos_chi, sin_chi, weight in wedges:
        yield sign, cos_chi, sin_chi, weight * (cos_chi + sin_chi)


def _radial_sums(read, half_e, cos_chi: np.ndarray, sin_chi: np.ndarray,
                 m: int, n: int) -> np.ndarray:
    """The integral over R in (0, 1/sin chi) of
    q_hat(rho1^2) q_hat(rho2^2) R^(n - 2) / (x y) at each (point, chi) node,
    with q_hat the reader ``read`` (a ``Potential.fourier_radial``),
    u = R cos chi, v = R sin chi, x = sqrt(1 + u), y = sqrt(1 - v),
    rho1 = e (x + y) / 2 and rho2 = e (u + v) / (2 (x + y)) = e (x - y) / 2.

    R = R0 w / d with d = 1 - w + w R0 sin chi gives 1 - v = (1 - w) / d
    and dR = R0 dw / d^2. On the half-angle rule 1 - w = cos^2(t/2), so the
    1/y end singularity cancels: dR / (x y) = R0 sin(t/2) / (x d^1.5) dt.
    """
    w, om, wt = _half_angle_rule(2 * m)
    scaled = BIPOLAR_R0 * w
    sin_chi = sin_chi[..., None]
    d = scaled * sin_chi
    d += om
    R = scaled / d
    u = R * cos_chi[..., None]
    x = np.sqrt(1.0 + u)
    xy = np.sqrt(om / d)
    xy += x
    u += R * sin_chi
    s1 = np.square(half_e * xy)
    np.divide(u, xy, out=u)
    s2 = np.square(half_e * u, out=u)
    f = read(s1, out=s1)
    f *= read(s2, out=s2)
    np.sqrt(d, out=xy)
    xy *= d
    xy *= x
    if n == 3:
        R /= xy
        f *= R
    else:
        f /= xy
    return np.vecdot(f, BIPOLAR_R0 * wt * np.sqrt(w))


@functools.lru_cache(maxsize=8)
def _low_chi_rule(m: int) -> tuple[np.ndarray, ...]:
    """The nodes t of n = 2's first chi piece, (0, _CHI_SPLIT) under
    chi = t^2 with m/2 Gauss-Legendre nodes, and the arrays of chi alone
    that its weights read: (t, cos chi, sin chi, cos chi + sin chi,
    sqrt(sin chi / cos chi), sqrt(sinc chi), sqrt(sin chi), sqrt(cos chi)).
    They depend on no point, so they are shared and read-only."""
    t = math.sqrt(_CHI_SPLIT) * _legendre_rule(m // 2)[0]
    chi = t * t
    c, s = np.cos(chi), np.sin(chi)
    rule = (t, c, s, c + s, np.sqrt(s / c), np.sqrt(_sinc(chi)), np.sqrt(s), np.sqrt(c))
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=256)
def _low_chi_diff(read, e: float, m: int) -> np.ndarray:
    """I(chi) - I(pi/2 - chi) at the nodes of n = 2's first chi piece
    (``_low_chi_rule``), for the reader ``read`` at |eta| = e. The nodes do
    not depend on k, so every point at this |eta| shares these 2 x m/2 R
    integrals; the array is shared, so it is read-only. The key holds the
    reader: a tabulated reader hashes by identity and a Gaussian one by
    value, and neither changes once its Potential is built."""
    c, s = _low_chi_rule(m)[1:3]
    I = _radial_sums(read, 0.5 * e, np.concatenate([c, s]), np.concatenate([s, c]), m, 2)
    diff = I[:c.size] - I[c.size:]
    diff.flags.writeable = False
    return diff


def _mirror_b(q: Potential, e: np.ndarray, k: np.ndarray, m: int) -> np.ndarray:
    """``bipolar_b`` in n = 2 for a block of points. With
    E(chi) = (cos chi + sin chi) I(chi) / (2 sqrt(sin chi cos chi)) and
    D(chi) = sin chi - cos chi + 2 tan psi sqrt(sin chi cos chi), whose one
    zero is chi_ = atan(1/lambda),

        B = p.v. integral_0^{pi/2} [E(chi) - E(pi/2 - chi)] / D(chi) dchi
            + i pi [E(chi_) + E(pi/2 - chi_)] / D'(chi_).

    D is formed as (sqrt sin chi - sqrt(cos chi / lambda)) F(chi), with
    F = sqrt sin chi + sqrt(lambda cos chi) > 0. On (0, 5 pi/16), chi = t^2
    and the pole t0 = sqrt(chi_) is subtracted from
    G = 2t (t - t0) [E(chi) - E(pi/2 - chi)] / D, which takes chi - chi_
    as (t - t0)(t + t0). On (5 pi/16, pi/2), pi/2 - chi = u^2 and
    u = t0 sinh z, since F has a zero at u ~ -t0. Each piece has m/2
    Gauss-Legendre nodes.

    The first piece's nodes do not depend on k, so its R integrals come
    once per |eta| from ``_low_chi_diff``; a point reads only its second
    piece and its pole, m/2 + 1 chi nodes, at chi and at pi/2 - chi.
    """
    per_point = []
    for ei, ki in zip(e.tolist(), k.tolist()):
        te = math.sqrt(max(2.0 * ki - ei, 0.0) * (2.0 * ki + ei))  # e tan psi
        root = (te + 2.0 * ki) / ei  # sqrt(lambda) = sec psi + tan psi
        chi0 = math.atan(1.0 / (root * root))
        per_point.append((root, math.sqrt(chi0), math.cos(chi0), math.sin(chi0)))
    root, t0, c0, s0 = (np.array(c)[:, None] for c in zip(*per_point))
    # G(t0) / (E(chi_) - E(pi/2 - chi_)) = 1 / D'(chi_)
    h0 = (c0 + s0) * c0 / (root * np.sqrt(s0) * (np.sqrt(s0) + root * np.sqrt(c0)))
    x, w = _legendre_rule(m // 2)
    t, _, _, cs1, tan1, sinc1, sqrt_s1, sqrt_c1 = _low_chi_rule(m)
    split = math.sqrt(_CHI_SPLIT)
    h1 = cs1 * c0 * (tan1 + 1.0 / root) / (
        sinc1 * (t + t0) * _sinc((t - t0) * (t + t0)) * (sqrt_s1 + root * sqrt_c1))
    z_max = np.arcsinh(math.sqrt(0.5 * math.pi - _CHI_SPLIT) / t0)
    z = z_max * x
    u2 = np.square(t0 * np.sinh(z))
    c2, s2 = np.sin(u2), np.cos(u2)
    h2 = (c2 + s2) * t0 * np.cosh(z) * z_max * w / (
        np.sqrt(_sinc(u2) * s2) * (np.sqrt(s2) - np.sqrt(c2) / root)
        * (np.sqrt(s2) + root * np.sqrt(c2)))
    # the second piece's nodes and the pole, at chi and at pi/2 - chi
    I = _radial_sums(q.fourier_radial, 0.5 * e[:, None, None],
                     np.concatenate([c2, c0, s2, s0], axis=1),
                     np.concatenate([s2, s0, c2, c0], axis=1), m, 2)
    direct, mirror = np.split(I, 2, axis=1)
    pi_s = np.pi * h0[:, 0] * (direct[:, -1] + mirror[:, -1])
    diff = direct - mirror
    g0 = h0 * diff[:, -1:]
    diff1 = np.array([_low_chi_diff(q.fourier_radial, ei, m) for ei in e.tolist()])
    p = (np.vecdot((h1 * diff1 - g0) / (t - t0), split * w)
         + g0[:, 0] * np.log((split - t0[:, 0]) / t0[:, 0])
         + np.vecdot(h2, diff[:, :-1]))
    return p + 1j * pi_s


def bipolar_b(q: Potential, e, k, level: int) -> np.ndarray:
    """B_{theta,2}(q)(eta) for radial q in n = q.dimension = 2 or 3, at
    points given by e = |eta| and the chart's k (0 < e <= 2k), from the
    bipolar identity.

    With rho1 = |xi|, rho2 = |eta - xi| and the azimuth about eta,
    k^2 - |xi + k theta|^2 = A + C cos phi. In the coordinates
    u = x^2 - 1 = R cos chi, v = 1 - y^2 = R sin chi, with
    x = (rho1 + rho2)/e and y = |rho1 - rho2|/e, B is an integral over
    chi in (0, pi/2) of a closed-form azimuth kernel times the R integral
    I(chi) of ``_radial_sums``. In n = 3,

        B = (pi e / 2) sum_wedges sigma integral dchi (cos chi + sin chi) / h(chi) I(chi)

    over the wedges [0, chi_], [chi_, pi/2 - chi_], [pi/2 - chi_, pi/2] with
    sigma = -1, i, +1 (see ``_wedges``). In n = 2 the azimuth is two mirror
    points, whose poles at chi_ and pi/2 - chi_ fold onto one (see
    ``_mirror_b``). The imaginary part is pi S_{theta,1}, the real part P_theta.

    For m = 2^(level + 2), every R integral has 2m nodes; chi has m nodes
    per wedge in n = 3, and m/2 on each of the two pieces of n = 2. The
    first n = 2 piece does not depend on k, so its R integrals are computed
    once per (q_hat reader, |eta|, level) and cached: a point then reads
    q_hat at 2 x (m/2 + 1) x 2m nodes, and each new |eta| at 2 x m/2 x 2m
    more, two reads per node.
    e and k are scalars or 1-d arrays; the points go in blocks of at most
    BLOCK_POINTS (chi, R) nodes per wedge (n = 3) or per block (n = 2, its
    points' own nodes), and of at least one point; a point's value does
    not depend on its block. Returns a 1-d complex array, one value per point.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    k = np.broadcast_to(np.asarray(k, dtype=float), e.shape)
    if np.any(e <= 0.0):
        raise ValueError("|eta| must be positive")
    m = 2 ** (level + 2)
    n2 = q.dimension == 2
    step = max(1, BLOCK_POINTS // (2 * m * (m + 2) if n2 else 2 * m * m))
    out = np.empty(e.size, dtype=complex)
    for i in range(0, e.size, step):
        eb, kb = e[i:i + step], k[i:i + step]
        if n2:
            out[i:i + step] = _mirror_b(q, eb, kb, m)
            continue
        total = np.zeros(eb.size, dtype=complex)
        for sign, cos_chi, sin_chi, weight in _wedges(eb, kb, m):
            I = _radial_sums(q.fourier_radial, 0.5 * eb[:, None, None], cos_chi, sin_chi, m, 3)
            total += sign * np.vecdot(I, weight)
        out[i:i + step] = 0.5 * np.pi * eb * total
    return out


def b_theta2(q: Potential, theta: Direction, eta, level: int) -> complex:
    """B_{theta,2}(q)(eta) = i pi S_{theta,1} + P_theta on H_theta, else 0,
    from the bipolar rule at the level."""
    try:
        k = chart(eta, theta).k
    except NotInHalfSpace:
        return 0.0 + 0.0j
    return complex(bipolar_b(q, float(np.linalg.norm(eta)), k, level)[0])


def q_full2_hat(
    q: Potential, eta, theta_rule: SphereRule, level: int, cut: CutoffSpec
) -> complex:
    """Q_{F,2}_hat(eta): average 2/|S^{n-1}| of B_{theta,2}(eta) over the
    hemisphere eta.theta < 0, under the cutoff."""
    eta = np.asarray(eta, dtype=float)
    chi = float(cutoff_chi(eta, cut))
    if chi == 0.0:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for node, weight in zip(theta_rule.nodes, theta_rule.weights):
        theta = Direction(node)
        if in_half_space(eta, theta):
            total += weight * b_theta2(q, theta, eta, level)
    return chi * 2.0 / SPHERE_AREA[eta.shape[0]] * total


# ---------------------------------------------------------------------------
# Batch API


def dispersion_batch(
    q: Potential, theta: Direction, etas, level: int, cut: CutoffSpec
) -> list[DispersionSample]:
    """Evaluate S, P, B, Q at each eta, on the half space of theta or of
    -theta that contains it, with S = Im B / pi and P = Re B from one
    ``bipolar_b`` call over those points. A point in neither half space
    gets k = NaN and zeros."""
    etas = [np.asarray(e, dtype=float) for e in etas]
    sides = [theta if in_half_space(eta, theta) else -theta for eta in etas]
    live = [i for i, eta in enumerate(etas) if in_half_space(eta, sides[i])]
    ks = [chart(etas[i], sides[i]).k for i in live]
    Bs = bipolar_b(q, [float(np.linalg.norm(etas[i])) for i in live], ks, level)
    samples = [DispersionSample(eta, 0j, 0j, 0j, 0j, np.nan) for eta in etas]
    for i, k, B in zip(live, ks, Bs.tolist()):
        samples[i] = DispersionSample(etas[i], complex(B.imag / np.pi), complex(B.real), B,
                                      complex(cutoff_chi(etas[i], cut)) * B, k)
    return samples
