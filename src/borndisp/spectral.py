"""
Uniform grids, discrete Fourier transforms, tabulated radial profiles and
weighted Sobolev norms.

Fourier convention (used everywhere in this package):

    forward   f_hat(xi) = integral exp(-i x.xi) f(x) dx
    inverse   f(x)      = (2 pi)^{-n} integral exp(i x.xi) f_hat(xi) dxi

The discrete transforms are scaled so that samples approximate the continuum
integrals (forward carries h^n, inverse carries the matching 1/h^n).

An array that is even under index negation (every radial array on the
lattice) is fixed by its first-orthant block, samples 0..N/2 on each axis, and
its length-N DFT on each axis is the DCT-I of that block. ``orthant_forward``
and ``orthant_inverse`` transform such blocks; ``fourier`` transforms a
general complex ``Field``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import interpolate
from scipy.fft import dctn


class Domain(enum.Enum):
    SPACE = 0
    FREQUENCY = 1


class TransformDirection(enum.Enum):
    FORWARD = 0
    INVERSE = 1


class DomainMismatchError(ValueError):
    """Transform direction incompatible with the field's current domain."""


@dataclass(frozen=True)
class Grid:
    """Uniform n-dimensional lattice on [-L, L)^n with its frequency dual."""

    dimension: int
    samples_per_axis: int
    half_extent: float

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.samples_per_axis % 2 != 0 or self.samples_per_axis < 8:
            raise ValueError(
                f"samples_per_axis must be even and >= 8, got {self.samples_per_axis}"
            )
        if self.half_extent <= 0:
            raise ValueError(f"half_extent must be positive, got {self.half_extent}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.samples_per_axis

    @property
    def freq_spacing(self) -> float:
        return np.pi / self.half_extent

    @property
    def nyquist_radius(self) -> float:
        return np.pi * self.samples_per_axis / (2.0 * self.half_extent)

    @property
    def corner_radius(self) -> float:
        """Largest frequency radius on the lattice, sqrt(n) * Nyquist."""
        return np.sqrt(self.dimension) * self.nyquist_radius

    def space_axis(self) -> np.ndarray:
        N = self.samples_per_axis
        return -self.half_extent + self.spacing * np.arange(N)

    def freq_axis(self) -> np.ndarray:
        N = self.samples_per_axis
        return self.freq_spacing * (np.arange(N) - N // 2)

    def _radius(self, axis: np.ndarray) -> np.ndarray:
        mesh = np.meshgrid(*([axis] * self.dimension), indexing="ij")
        return np.sqrt(sum(m**2 for m in mesh))

    def space_radius(self) -> np.ndarray:
        return self._radius(self.space_axis())

    def freq_radius(self) -> np.ndarray:
        return self._radius(self.freq_axis())

    def orthant_space_radius(self) -> np.ndarray:
        """|x| on the first-orthant block: x = m h for m = 0..N/2 per axis."""
        return self._radius(self.spacing * np.arange(self.samples_per_axis // 2 + 1))

    def orthant_freq_radius(self) -> np.ndarray:
        """|xi| on the first-orthant block: xi = m dxi for m = 0..N/2 per axis."""
        return self._radius(self.freq_spacing * np.arange(self.samples_per_axis // 2 + 1))

    def orthant_multiplicity(self) -> np.ndarray:
        """Number of lattice points each orthant point stands for under index
        negation: per axis 1 at m = 0 and m = N/2, 2 otherwise."""
        w = np.full(self.samples_per_axis // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return functools.reduce(np.multiply.outer, [w] * self.dimension)

    def space_points(self) -> np.ndarray:
        """All lattice points as an array of shape (N^n, n)."""
        mesh = np.meshgrid(*([self.space_axis()] * self.dimension), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def make_grid(n: int, N: int, L: float) -> Grid:
    return Grid(dimension=n, samples_per_axis=N, half_extent=float(L))


@dataclass(frozen=True)
class Field:
    """Complex samples on a grid, in either the space or frequency domain."""

    grid: Grid
    samples: np.ndarray
    domain: Domain

    def __post_init__(self) -> None:
        N, n = self.grid.samples_per_axis, self.grid.dimension
        if self.samples.shape != (N,) * n:
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid {(N,) * n}"
            )


def field_from_function(grid: Grid, f: Callable) -> Field:
    """Sample a point-valued function on the space lattice."""
    vals = np.asarray(f(grid.space_points()), dtype=complex)
    shape = (grid.samples_per_axis,) * grid.dimension
    return Field(grid, vals.reshape(shape), Domain.SPACE)


def fourier(field: Field, direction: TransformDirection) -> Field:
    """Scaled n-dimensional DFT between the space and frequency lattices."""
    h = field.grid.spacing
    n = field.grid.dimension
    if direction is TransformDirection.FORWARD:
        if field.domain is not Domain.SPACE:
            raise DomainMismatchError("forward transform needs a space-domain field")
        out = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(field.samples))) * h**n
        return Field(field.grid, out, Domain.FREQUENCY)
    if field.domain is not Domain.FREQUENCY:
        raise DomainMismatchError("inverse transform needs a frequency-domain field")
    out = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(field.samples))) / h**n
    return Field(field.grid, out, Domain.SPACE)


def orthant_forward(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Scaled forward transform of an even real array given by its
    first-orthant block; equals that block of ``fourier`` on the full lattice."""
    return dctn(x, type=1) * grid.spacing**grid.dimension


def orthant_inverse(grid: Grid, x_hat: np.ndarray) -> np.ndarray:
    """Scaled inverse transform of an even real array given by its
    first-orthant block; equals that block of ``fourier`` on the full lattice."""
    return dctn(x_hat, type=1) / (grid.samples_per_axis * grid.spacing) ** grid.dimension


def bessel_weight_radius(rho, alpha: float) -> np.ndarray:
    """<rho>^alpha = (1 + rho^2)^{alpha/2}."""
    rho = np.asarray(rho, dtype=float)
    return (1.0 + rho**2) ** (alpha / 2.0)


@dataclass(frozen=True)
class SobolevIndex:
    alpha: float
    delta: float = 0.0


def sobolev_norm(f: Field, idx: SobolevIndex) -> float:
    """Discrete W^{alpha,2}_delta norm: <xi>^alpha multiplier in frequency,
    <x>^delta weight in space, Riemann-sum L^2."""
    grid = f.grid
    if f.domain is Domain.SPACE:
        fhat = fourier(f, TransformDirection.FORWARD)
    else:
        fhat = f
    mult = bessel_weight_radius(grid.freq_radius(), idx.alpha)
    smoothed = fourier(Field(grid, fhat.samples * mult, Domain.FREQUENCY),
                       TransformDirection.INVERSE)
    weight = bessel_weight_radius(grid.space_radius(), idx.delta)
    vals = smoothed.samples * weight
    return float(np.sqrt(np.sum(np.abs(vals) ** 2) * grid.spacing**grid.dimension))


# ---------------------------------------------------------------------------
# Radial profiles


def _power_law_fit(radii: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Fit values ~ c * <rho>^{-p}; returns (p, c)."""
    mask = values > 0
    if mask.sum() < 4:
        return np.inf, 0.0
    x = np.log1p(radii[mask] ** 2) / 2.0  # log <rho>
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    return -float(slope), float(np.exp(intercept))


@dataclass
class RadialProfile:
    """Radial function sampled on increasing radii, with a fitted power-law
    tail value(rho) ~ tail_coefficient * <rho>^{-tail_exponent} beyond range."""

    radii: np.ndarray
    values: np.ndarray
    tail_exponent: float | None = None
    tail_coefficient: float | None = None
    _spline: interpolate.CubicSpline = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.radii.ndim != 1 or self.radii.shape != self.values.shape:
            raise ValueError("radii and values must be matching 1-d arrays")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        self._spline = interpolate.CubicSpline(self.radii, self.values)

    def fit_tail(self) -> None:
        """Fit the power-law tail on the top half of the radii and anchor it
        continuously at the last sampled radius."""
        r_max = self.radii[-1]
        mask = self.radii >= 0.5 * r_max
        p, _ = _power_law_fit(self.radii[mask], np.abs(self.values[mask]))
        self.tail_exponent = p
        edge = float(self.values[-1])
        if np.isfinite(p):
            self.tail_coefficient = edge * (1.0 + r_max**2) ** (p / 2.0)
        else:
            self.tail_coefficient = 0.0

    def __call__(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        out = self._spline(np.clip(rho, self.radii[0], self.radii[-1]))
        beyond = rho > self.radii[-1]
        if np.any(beyond):
            if self.tail_exponent is None or not np.isfinite(self.tail_exponent):
                tail = 0.0
            else:
                tail = self.tail_coefficient * bessel_weight_radius(
                    rho, -self.tail_exponent
                )
            out = np.where(beyond, tail, out)
        below = rho < self.radii[0]
        if np.any(below):
            out = np.where(below, self.values[0], out)
        return out if out.ndim else float(out)
