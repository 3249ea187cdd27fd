"""
Core operators of the double dispersion term: high-frequency cutoff chi,
the spherical operator S_{theta,r}, the principal-value operator P_theta,
B_{theta,2}, the cutoff combination Q_{theta,2}, and the full-data average
Q_{F,2}.

In n = 2, B = i pi S_{theta,1} + P_theta. S_{theta,r} takes one radius or a
vector of radii. P_theta is a fixed Gauss-Legendre rule over (0, infinity),
tail included, so each principal value costs one vectorized S evaluation on
that rule's radii.

In n = 3, B comes from the bipolar identity (``bipolar_b``): for radial q it
is a 2-d integral of q_hat(rho1) q_hat(rho2) against a closed-form azimuth
kernel, with no sphere rule and no principal value over r. The sphere rule
and the PV rule stay as its independent reference.

All operators are pure; quadrature reductions use a fixed summation order so
batch evaluation is deterministic regardless of worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Direction, SphereRule, chart, ewald_nodes, in_half_space
from .potentials import Potential

# Gauss-Legendre nodes on each of the three outer pieces of the PV integral,
# and the radius R1 where the tail (R1, infinity) starts; the tail is mapped
# onto (0, 1) by r = R1 / v.
OUTER_NODES = 24
TAIL_R1 = 4.0

# Nodes per block of the two kernels that read q_hat in bulk: (radius, node)
# pairs of an array-r spherical_op, and (chi, R) nodes per wedge of
# bipolar_b. A block's arrays (a workspace and the temporaries of a
# tabulated q_hat read) are then 256 KiB each and about 2 MiB together: they
# stay in a core's L2 cache, and malloc reuses the freed temporaries for the
# next block instead of returning them to the system and faulting them back
# in. Smaller blocks pay the per-block overhead instead.
BLOCK_POINTS = 2**15

# Radius scale of the bipolar rule: in each wedge the radius R runs over
# (0, 1/sin chi) through R = R0 w / (1 - w + w R0 sin chi), w in (0, 1), so
# that w = 1/2 falls near R0 while sin chi is small. The rule has
# 2^(level + 2) nodes in chi per wedge and twice as many in w.
BIPOLAR_R0 = 4.0


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth radial cutoff: 0 below C0, 1 above 2 C0, quintic in between."""

    C0: float = 2.0

    def __post_init__(self) -> None:
        if self.C0 <= 1.0:
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
    in one workspace, which ``ewald_nodes`` fills and q_hat overwrites at
    both radii |xi| and |eta - xi| of every node.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(radii <= 0):
        raise ValueError(f"r must be positive, got {r}")
    ch = chart(eta, theta)
    M = rule.weights.size
    step = min(radii.size, max(1, BLOCK_POINTS // M))
    # The workspace of s_in, s_out and the weights, each (step, M), belongs
    # to this call and serves every block; one buffer, because malloc keeps
    # a freed chunk of that size for the next call instead of returning it
    # to the system, as it does with three adjacent smaller ones
    work = np.empty((3, step, M))
    sums = np.empty(radii.size)
    for i in range(0, radii.size, step):
        block = radii[i:i + step]
        b = block.size
        s_in, s_out, weights = ewald_nodes(ch, block, theta, rule, out=tuple(work[:, :b]))
        q.fourier_radial(s_in, out=s_in)
        q.fourier_radial(s_out, out=s_out)
        s_out *= s_in
        sums[i:i + b] = np.vecdot(weights, s_out)
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


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x) / x, 1 at 0."""
    return np.sinc(x / np.pi)


def _wedges(e: np.ndarray, k: np.ndarray, m: int, sphere_only: bool):
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
    if not sphere_only:
        # [0, chi_] with sign -1, and its mirror [pi/2 - chi_, pi/2] with +1
        for sign, near, far in ((-1.0, s0, c0), (1.0, c0, s0)):
            chi = lo * near  # the offset from 0 or from pi/2
            cos_chi, sin_chi = np.cos(chi), np.sin(chi)
            weight = wt * inv_scale * np.sqrt(chi / (np.cos(lo * (1.0 + near))
                                                     * _sinc(lo * far)))
            if sign > 0:
                cos_chi, sin_chi = sin_chi, cos_chi
            wedges.append((sign, cos_chi, sin_chi, weight))
    for sign, cos_chi, sin_chi, weight in wedges:
        yield sign, cos_chi, sin_chi, weight * (cos_chi + sin_chi)


def _radial_sums(q: Potential, half_e: np.ndarray, cos_chi: np.ndarray,
                 sin_chi: np.ndarray, m: int) -> np.ndarray:
    """The integral over R in (0, 1/sin chi) of
    q_hat(rho1^2) q_hat(rho2^2) R / (x y) at each (point, chi) node, with
    u = R cos chi, v = R sin chi, x = sqrt(1 + u), y = sqrt(1 - v),
    rho1 = e (x + y) / 2 and rho2 = e (u + v) / (2 (x + y)) = e (x - y) / 2.

    R = R0 w / d with d = 1 - w + w R0 sin chi gives 1 - v = (1 - w) / d
    and dR = R0 dw / d^2. On the half-angle rule 1 - w = cos^2(t/2), so the
    1/y end singularity cancels: R / (x y) dR = R R0 sin(t/2) / (x d^1.5) dt.
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
    f = q.fourier_radial(s1, out=s1)
    f *= q.fourier_radial(s2, out=s2)
    np.sqrt(d, out=xy)
    xy *= d
    xy *= x
    R /= xy
    f *= R
    return np.vecdot(f, BIPOLAR_R0 * wt * np.sqrt(w))


def bipolar_b(q: Potential, e, k, level: int, sphere_only: bool = False) -> np.ndarray:
    """B_{theta,2}(q)(eta) in n = 3 for radial q, at points given by
    e = |eta| and the chart's k (0 < e <= 2k), from the bipolar identity.

    With rho1 = |xi|, rho2 = |eta - xi| and the azimuth about eta,
    k^2 - |xi + k theta|^2 = A + C cos phi, and the azimuth integral of
    1/(A + C cos phi - i0) is closed-form. In the coordinates
    u = x^2 - 1 = R cos chi, v = 1 - y^2 = R sin chi, with
    x = (rho1 + rho2)/e and y = |rho1 - rho2|/e,

        B = (pi e / 2) sum_wedges sigma integral dchi (cos chi + sin chi) / h(chi)
            integral_0^{1/sin chi} q_hat(rho1^2) q_hat(rho2^2) R / (x y) dR,

    over the wedges [0, chi_], [chi_, pi/2 - chi_], [pi/2 - chi_, pi/2] with
    sigma = -1, i, +1 (see ``_wedges``). The middle wedge is i pi S_{theta,1},
    the outer two P_theta; ``sphere_only`` evaluates the middle one alone.
    q_hat is read only at its own radii, 2 (3 m) (2 m) times per point for
    m = 2^(level + 2) (m per wedge in chi, 2m in R).

    e and k are scalars or 1-d arrays; the points go in blocks of at most
    BLOCK_POINTS nodes per wedge. A point's value does not depend on the
    block that holds it. Returns a 1-d complex array, one value per point.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    k = np.broadcast_to(np.asarray(k, dtype=float), e.shape)
    if np.any(e <= 0.0):
        raise ValueError("|eta| must be positive")
    m = 2 ** (level + 2)
    step = max(1, BLOCK_POINTS // (2 * m * m))
    out = np.empty(e.size, dtype=complex)
    for i in range(0, e.size, step):
        eb, kb = e[i:i + step], k[i:i + step]
        total = np.zeros(eb.size, dtype=complex)
        for sign, cos_chi, sin_chi, weight in _wedges(eb, kb, m, sphere_only):
            total += sign * np.vecdot(_radial_sums(q, 0.5 * eb[:, None, None],
                                                   cos_chi, sin_chi, m), weight)
        out[i:i + step] = 0.5 * np.pi * eb * total
    return out


def _sphere_and_pv(
    q: Potential, theta: Direction, eta: np.ndarray, rule: SphereRule, pv: PVParams
) -> tuple[complex, complex, complex, float]:
    """(S_{theta,1}(q)(eta), P_theta(q)(eta), B_{theta,2} = i pi S + P, k)
    from the sphere rule and the PV rule; raises NotInHalfSpace off
    H_theta."""
    k = chart(eta, theta).k
    S = spherical_op(q, theta, 1.0, eta, rule)
    P = principal_value_op(lambda r: spherical_op(q, theta, r, eta, rule), pv)
    return S, P, 1j * np.pi * S + P, k


def _b_parts(
    q: Potential, theta: Direction, eta: np.ndarray, rule: SphereRule, pv: PVParams
) -> tuple[complex, complex, complex, float]:
    """(S_{theta,1}, P_theta, B_{theta,2}, k) at eta in H_theta: in n = 2
    from the sphere rule and the PV rule, in n = 3 from ``bipolar_b`` at
    the rule's level, with S = Im B / pi and P = Re B."""
    if theta.dimension == 2:
        return _sphere_and_pv(q, theta, eta, rule, pv)
    k = chart(eta, theta).k
    B = complex(bipolar_b(q, float(np.linalg.norm(eta)), k, rule.level)[0])
    return complex(B.imag / np.pi), complex(B.real), B, k


def b_theta2(
    q: Potential, theta: Direction, eta, rule: SphereRule, pv: PVParams
) -> complex:
    """B_{theta,2}(q)(eta) = i pi S_{theta,1} + P_theta on H_theta, else 0.
    In n = 3 the rule sets only the level of ``bipolar_b`` and pv is unused."""
    eta = np.asarray(eta, dtype=float)
    if not in_half_space(eta, theta):
        return 0.0 + 0.0j
    return _b_parts(q, theta, eta, rule, pv)[2]


def q_theta2_hat(
    q: Potential,
    theta: Direction,
    eta,
    rule: SphereRule,
    pv: PVParams,
    cut: CutoffSpec,
) -> complex:
    """chi(eta) [B_{theta,2} + B_{-theta,2}](eta); at most one summand is
    nonzero, so only the half space that holds eta is evaluated."""
    eta = np.asarray(eta, dtype=float)
    chi = float(cutoff_chi(eta, cut))
    if chi == 0.0:
        return 0.0 + 0.0j
    return chi * b_theta2(q, theta if in_half_space(eta, theta) else -theta, eta, rule, pv)


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
        theta = Direction(node)
        if in_half_space(eta, theta):
            total += weight * b_theta2(q, theta, eta, rule, pv)
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
        side = theta if in_half_space(eta, theta) else -theta
        if not in_half_space(eta, side):
            return DispersionSample(eta, 0j, 0j, 0j, 0j, np.nan)
        S, P, B, k = _b_parts(q, side, eta, rule, pv)
        return DispersionSample(eta, S, P, B, complex(cutoff_chi(eta, cut)) * B, k)

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
