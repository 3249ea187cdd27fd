"""
Core operators of the double dispersion term: high-frequency cutoff chi,
the spherical operator S_{theta,r}, the principal-value operator P_theta,
B_{theta,2}, the cutoff combination Q_{theta,2}, and the full-data average
Q_{F,2}.

S_{theta,r} takes one radius or a vector of radii. P_theta is a fixed
Gauss-Legendre rule over (0, infinity), tail included, so each principal
value costs one vectorized S evaluation on that rule's radii.

All operators are pure; quadrature reductions use a fixed summation order so
batch evaluation is deterministic regardless of worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
from dataclasses import dataclass, field

import numpy as np

from .geometry import Direction, SphereRule, chart, ewald_nodes, in_half_space
from .potentials import Potential

# Gauss-Legendre nodes on each of the three outer pieces of the PV integral,
# and the radius R1 where the tail (R1, infinity) starts; the tail is mapped
# onto (0, 1) by r = R1 / v.
OUTER_NODES = 24
TAIL_R1 = 4.0

# (radius, node) pairs per block of an array-r spherical_op. A block's
# arrays (the workspace and a tabulated q_hat read's temporaries) are then
# 256 KiB each and about 2 MiB together: they stay in a core's L2 cache, and
# malloc reuses the freed temporaries for the next block. At 2^18 it returned
# them to the system and faulted them back in (64k minor faults in scan-n3's
# gain scan, against about 480 here). In a sweep over 2^12..2^18 of the
# kernel time on qfull-n2, scan-n3 and the criterion-6 gain scan, 2^15 had
# the lowest median on each: smaller blocks pay the per-block overhead,
# larger ones the cache misses and the faults.
BLOCK_POINTS = 2**15


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
    in one workspace, which ``ewald_nodes`` fills and q_hat overwrites.
    q_hat is read once per polar row of the rule at the first radius |xi|,
    which ``ewald_nodes`` gives per row, and once per node at |eta - xi|.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(radii <= 0):
        raise ValueError(f"r must be positive, got {r}")
    ch = chart(eta, theta)
    M, row = rule.weights.size, rule.row
    P = M // row
    step = min(radii.size, max(1, BLOCK_POINTS // M))
    # The workspace of s_in (step, P), s_out and the weights (step, M)
    # belongs to this call and serves every block; one buffer, because
    # malloc keeps a freed chunk of that size for the next call instead of
    # returning it to the system, as it does with three adjacent smaller ones
    work = np.split(np.empty(step * (P + 2 * M)), [step * P, step * (P + M)])
    sums = np.empty(radii.size)
    for i in range(0, radii.size, step):
        block = radii[i:i + step]
        b = block.size
        s_in, s_out, weights = ewald_nodes(ch, block, theta, rule, out=(
            work[0][:b * P].reshape(b, P), work[1][:b * M].reshape(b, M),
            work[2][:b * M].reshape(b, M)))
        # q_hat in place, the first radius spread over its row
        q.fourier_radial(s_in, out=s_in)
        q.fourier_radial(s_out, out=s_out)
        rows = s_out.reshape(b, P, row)
        np.multiply(rows, s_in[:, :, None], out=rows)
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


def _sphere_and_pv(
    q: Potential, theta: Direction, eta: np.ndarray, rule: SphereRule, pv: PVParams
) -> tuple[complex, complex, complex, float]:
    """(S_{theta,1}(q)(eta), P_theta(q)(eta), B_{theta,2} = i pi S + P, k);
    raises NotInHalfSpace off H_theta."""
    k = chart(eta, theta).k
    S = spherical_op(q, theta, 1.0, eta, rule)
    P = principal_value_op(lambda r: spherical_op(q, theta, r, eta, rule), pv)
    return S, P, 1j * np.pi * S + P, k


def b_theta2(
    q: Potential, theta: Direction, eta, rule: SphereRule, pv: PVParams
) -> complex:
    """B_{theta,2}(q)(eta) = i pi S_{theta,1} + P_theta on H_theta, else 0."""
    eta = np.asarray(eta, dtype=float)
    if not in_half_space(eta, theta):
        return 0.0 + 0.0j
    return _sphere_and_pv(q, theta, eta, rule, pv)[2]


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
        S, P, B, k = _sphere_and_pv(q, side, eta, rule, pv)
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
