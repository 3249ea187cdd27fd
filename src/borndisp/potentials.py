"""
Test potential families: the compactly supported counterexample g_beta
(bump times Bessel kernel) and Gaussians with exact Fourier pairs.

Every potential here is radial, so a ``Potential`` holds q and q_hat as
functions of the squared radius s = |x|^2 or s = |xi|^2, and its point
evaluator reduces xi to s once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import (
    Grid,
    RadialProfile,
    bessel_weight_radius,
    orthant_forward,
    orthant_inverse,
    row_slabs,
    slab_buffer,
)


class GridTooCoarseError(RuntimeError):
    """The frequency lattice truncates the Bessel kernel too early."""


@dataclass(frozen=True)
class _GaussianHat:
    """q_hat(s) = amp exp(-s / 4a) of q(x) = exp(-a |x|^2), at s = |xi|^2."""

    a: float
    amp: float

    def __call__(self, s, out=None):
        out = np.negative(s, out=np.empty(np.shape(s)) if out is None else out)
        out /= 4.0 * self.a
        np.exp(out, out=out)
        out *= self.amp
        return out if out.ndim else out[()]


@dataclass(frozen=True, eq=False)
class _Tabulated:
    """A radial profile read at rho = sqrt(s). It compares and hashes by
    identity, so a cache may be keyed on it (see ``Potential``)."""

    profile: RadialProfile

    def __call__(self, s, out=None):
        return self.profile(np.sqrt(s, out=out), out=out)


@dataclass(frozen=True)
class Potential:
    """A radial test potential, given by q and q_hat as functions of the
    squared radius.

    ``fourier_radial`` maps s = |xi|^2 to q_hat; called with an array
    ``out``, which may be s itself, it writes q_hat there.
    ``spatial_radial`` maps s = |x|^2 to q, or is None where q is known only
    through q_hat (g_beta); q vanishes past ``support_radius``. The point
    evaluator is vectorized over arrays of shape (..., n).

    A reader is not mutated once its Potential is built: the n = 2 B rule
    caches R integrals keyed on ``fourier_radial``.
    """

    label: str
    dimension: int
    fourier_radial: Callable
    spatial_radial: Callable | None
    support_radius: float
    meta: dict = field(default_factory=dict)

    @property
    def fourier_profile(self) -> RadialProfile | None:
        """The tabulated q_hat, or None when q_hat is in closed form."""
        return getattr(self.fourier_radial, "profile", None)

    @property
    def analytic_fourier(self) -> bool:
        return self.fourier_profile is None

    def fourier_eval(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.fourier_radial(np.sum(xi**2, axis=-1))


def gaussian_potential(a: float, grid: Grid) -> Potential:
    """q(x) = exp(-a|x|^2) with exact Fourier pair; analytic oracle family."""
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    n = grid.dimension
    with np.errstate(over="ignore"):
        amp = float(np.float64(np.pi / a) ** (n / 2.0))
    if not np.isfinite(amp):
        raise ValueError(f"the amplitude (pi/a)^(n/2) of a = {a} in n = {n} is past "
                         "float range")
    return Potential(
        label=f"gaussian(a={a})",
        dimension=n,
        fourier_radial=_GaussianHat(a, amp),
        spatial_radial=lambda s: np.exp(-a * s),
        support_radius=np.inf,
        meta={"a": a},
    )


def standard_mollifier(r, radius: float) -> np.ndarray:
    """exp(-1/(1-(r/radius)^2)) on r < radius, 0 outside."""
    r = np.asarray(r, dtype=float)
    u = r / radius
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@dataclass(frozen=True)
class GBetaSpec:
    beta: float
    bump_radius: float
    grid: Grid

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if 2.0 * self.bump_radius > self.grid.half_extent / 2.0:
            raise ValueError("bump support must fit the grid with margin")
        if not self.bump_radius > 0:
            raise ValueError(f"bump_radius must be positive, got {self.bump_radius}")
        # The lattice represents radial frequencies out to the corner radius;
        # truncation of G_beta_hat (peak 1) happens there.
        tail = bessel_weight_radius(self.grid.corner_radius,
                                    -(self.grid.dimension / 2.0 + self.beta))
        if tail > 1e-3:
            raise GridTooCoarseError(
                f"G_beta_hat at the lattice corner radius is {tail:.2e} of the "
                f"peak (> 1e-3); refine the grid for beta = {self.beta}"
            )
        # a bump that no sample but the origin sees is a lattice delta, whose
        # transform is flat
        h = self.grid.spacing
        if not standard_mollifier(h, self.bump_radius) > 0.0:
            raise ValueError(
                f"bump_radius = {self.bump_radius} is not resolved by the lattice "
                f"spacing h = {h:g}: the mollifier is zero at every sample but the "
                f"origin; widen the bump or refine the grid"
            )


def _shell_sums(sums: np.ndarray, idx: np.ndarray, radius: np.ndarray, values: np.ndarray,
                first: np.ndarray, rest: np.ndarray) -> None:
    """Add each point's weight, weight x radius and weight x value to rows
    0, 1 and 2 of ``sums`` at its shell index ``idx``, in ravel order like
    bincount. The weight is first x rest, the broadcast product of the
    multiplicity's factors (``Grid.orthant_multiplicity_factors``), which
    are powers of two, so no product rounds. radius and values are scaled
    in place, and values ends holding the weights."""
    for s, x in ((sums[1], radius), (sums[2], values)):
        x *= rest
        x *= first
        np.add.at(s, idx, x.ravel())
    np.add.at(sums[0], idx, np.multiply(first, rest, out=values).ravel())


def _shell_index(radius: np.ndarray, bin_width: float, out: np.ndarray,
                 quotient: np.ndarray) -> np.ndarray:
    """floor(radius / bin_width) into the integer array ``out``, raveled;
    the array ``quotient``, shaped like radius, holds radius / bin_width."""
    return np.floor(np.divide(radius, bin_width, out=quotient), out=out,
                    casting="unsafe").ravel()


def make_gbeta(spec: GBetaSpec) -> Potential:
    """g_beta = phi * G_beta synthesized on the grid.

    Pipeline: sample G_beta_hat on the frequency lattice, inverse transform,
    multiply pointwise by the discrete self-convolution phi of the mollifier,
    transform forward, and shell-average g_beta_hat into a radial profile
    with fitted power-law tail. Nonnegativity of the discrete g_beta_hat is
    inherited from phi_hat = psi_hat^2 >= 0 on the lattice. Every
    experiment reads g_beta through g_beta_hat, so the Potential holds that
    profile, the support radius 2 bump_radius and no spatial profile.

    Every array is radial, hence even under index negation, so each one is
    given by its first-orthant block (N/2 + 1 samples per axis), each
    transform is a DCT-I, and the shell averages weight an orthant point by
    the number of lattice points it stands for.

    The space side lives on corners of the orthant. The mollifier psi is
    nonzero only at indices below b_psi on each axis, so the lattice phi,
    the inverse DFT of psi_hat^2, is the cyclic self-convolution of psi and
    vanishes past index 2 (b_psi - 1); the guard 2 bump_radius <= L/2 keeps
    that convolution from wrapping, and keeps b = 2 b_psi - 1 at most
    N/4 + 1, below m = N/2 + 1. So psi_hat reads only the b_psi^n corner,
    phi, G and g are computed only on the b^n corner, and g_beta_hat reads
    g from there. The transforms drop only exact-zero terms and outputs
    that nothing reads; the result equals the full-lattice synthesis up to
    rounding.

    The frequency side is streamed in ``spectral.row_slabs``, so no
    (N/2 + 1)^n array is held: the inverse transforms make their inputs,
    <rho>^{-(n/2 + beta)} and psi_hat^2, a slab at a time, and g_beta_hat
    comes a slab at a time into the running minimum and shell sums. Every
    slab goes to one of three buffers made once per synthesis
    (``spectral.slab_buffer``): the radii, which first hold the inputs of
    G and phi; the g_beta_hat values; and the int32 shell index. The last
    two are made after the transforms, whose own products reuse one buffer
    each. The working set is those buffers, the b-corner arrays and the
    forward transform's b x (N/2 + 1)^{n-1} products: at n = 3, beta = 1,
    bump radius 2, L = 16 a tracemalloc peak of 1.5, 4.0 and 8.2 MB at
    N = 128, 192 and 256.
    """
    grid, n, beta, bump = spec.grid, spec.grid.dimension, spec.beta, spec.bump_radius
    h, m, dxi = grid.spacing, grid.samples_per_axis // 2 + 1, grid.freq_spacing
    b_psi = 1 + int(np.flatnonzero(standard_mollifier(h * np.arange(m), bump))[-1])
    b = 2 * b_psi - 1

    # G's and phi's input slabs, then each g_hat slab's radii, go to one
    # slab buffer; the values and shell index buffers follow the transforms
    radius = slab_buffer(m, (m,) * (n - 1))

    def G_hat(rows):  # <rho>^{-(n/2 + beta)}
        out = grid.orthant_freq_radius(rows, out=radius(rows))
        return bessel_weight_radius(out, -(n / 2.0 + beta), out=out)

    def phi_hat(rows):  # psi_hat^2
        out = psi_hat(rows, out=radius(rows))
        return np.square(out, out=out)

    G = orthant_inverse(grid, G_hat, b)
    psi_hat = orthant_forward(grid, standard_mollifier(grid.orthant_space_radius(b_psi), bump))
    phi = orthant_inverse(grid, phi_hat, b)
    del psi_hat  # frees its b_psi x (N/2 + 1)^{n-1} products
    g = phi * G
    ghat = orthant_forward(grid, g)

    values = slab_buffer(m, (m,) * (n - 1))
    index = slab_buffer(m, (m,) * (n - 1), np.int32)
    first, rest = grid.orthant_multiplicity_factors()
    # the far corner has the largest radius, so its shell is the last
    corner = slice(m - 1, m)
    last = _shell_index(grid.orthant_freq_radius(corner, out=radius(corner)), dxi,
                        index(corner), values(corner)).max()
    sums, ghat_min = np.zeros((3, last + 1)), np.inf
    for rows in row_slabs(m):
        r = grid.orthant_freq_radius(rows, out=radius(rows))
        idx = _shell_index(r, dxi, index(rows), values(rows))
        v = ghat(rows, out=values(rows))
        ghat_min = min(ghat_min, float(v.min()))
        _shell_sums(sums, idx, r, v, first[rows], rest)
    radii, values = sums[1:] / sums[0]
    # the outermost corner shells are undersampled
    keep = radii <= 0.98 * grid.corner_radius
    profile = RadialProfile(radii[keep], values[keep])
    return Potential(
        label=f"gbeta(n={n},beta={beta})",
        dimension=n,
        fourier_radial=_Tabulated(profile),
        spatial_radial=None,
        support_radius=2.0 * bump,
        meta={
            "beta": beta,
            "bump_radius": bump,
            "ghat_min": ghat_min,
            "ghat_zero": float(profile(0.0)),
            "grid": {"n": n, "N": grid.samples_per_axis, "L": grid.half_extent},
        },
    )
