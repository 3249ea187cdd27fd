"""
Uniform grids, discrete Fourier transforms and tabulated radial profiles.

Fourier convention (used everywhere in this package):

    forward   f_hat(xi) = integral exp(-i x.xi) f(x) dx
    inverse   f(x)      = (2 pi)^{-n} integral exp(i x.xi) f_hat(xi) dxi

The discrete transforms are scaled so that samples approximate the continuum
integrals (forward carries h^n, inverse carries the matching 1/h^n).

An array that is even under index negation (every radial array on the
lattice) is fixed by its first-orthant block, samples 0..N/2 on each axis, and
its length-N DFT on each axis is the DCT-I of that block. ``orthant_forward``
and ``orthant_inverse`` transform such blocks; ``fourier`` transforms a
general complex ``Field``. The DCT-I is one product per axis with a
rectangular slice of the m x m DCT-I matrix, done by numpy's BLAS: the
columns of the samples given (a corner block, zero beyond it) and the rows of
the outputs asked for. Both stream along the first axis in ``row_slabs``:
an input may be a function of a row range, and so is the forward output.

Slab-sized arrays are reused, so that no slab maps fresh pages:
``slab_buffer`` makes one buffer for the tallest slab, and the forward row
reader, ``Grid.orthant_freq_radius`` and ``bessel_weight_radius`` write into
an ``out``. Each takes the same operations on operands of the same shapes as
an allocating call, so the bits are the same (a BLAS product's bits depend on
its row count).

A ``RadialProfile`` is read by the not-a-knot cubic spline through its
samples, built and evaluated here in numpy.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SLAB_ROWS = 8  # first-axis rows per slab, 0.6 MB of the n = 3 orthant at N = 192


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
        if not self.half_extent > 0:
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

    def _radius(self, axis: np.ndarray, rows: slice = slice(None),
                out: np.ndarray | None = None) -> np.ndarray:
        # (x_0^2 + x_1^2) + x_2^2 by broadcasting, with no meshgrid copies;
        # the last sum and the root go to ``out`` when it is given
        squares = [axis[rows] ** 2] + [axis**2] * (self.dimension - 1)
        r2 = np.add.outer(functools.reduce(np.add.outer, squares[:-1]), squares[-1], out=out)
        return np.sqrt(r2, out=r2)

    def freq_radius(self) -> np.ndarray:
        return self._radius(self.freq_axis())

    def orthant_space_radius(self, size: int | None = None) -> np.ndarray:
        """|x| on the first-orthant block, x = m h for m = 0..N/2 per axis, or
        on its corner of ``size`` samples per axis."""
        return self._radius(self.spacing * np.arange(self.samples_per_axis // 2 + 1)[:size])

    def orthant_freq_radius(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """|xi| on first-axis rows ``rows`` of the orthant block, xi = m dxi;
        an array ``out`` of their shape receives the values."""
        return self._radius(self.freq_spacing * np.arange(self.samples_per_axis // 2 + 1),
                            rows, out)

    def orthant_multiplicity_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The number of lattice points each orthant point stands for under
        index negation, as two factors whose broadcast product it is: the
        first axis's, shape (N/2 + 1, 1, ...), and the product of the others,
        shape (N/2 + 1,) * (n - 1). Per axis the factor is 1 at m = 0 and
        m = N/2 and 2 otherwise, so every product with them is exact."""
        w = np.full(self.samples_per_axis // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return (w.reshape((-1,) + (1,) * (self.dimension - 1)),
                functools.reduce(np.multiply.outer, [w] * (self.dimension - 1)))

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


def row_slabs(rows: int) -> list[slice]:
    """Ranges of SLAB_ROWS rows covering rows 0..rows-1; the last takes the rest."""
    count = max(1, rows // SLAB_ROWS)
    return [slice(i * SLAB_ROWS, rows if i == count - 1 else (i + 1) * SLAB_ROWS)
            for i in range(count)]


def slab_buffer(rows: int, shape: tuple, dtype=float) -> Callable[[slice], np.ndarray]:
    """One buffer for every slab of ``row_slabs(rows)``, each row of the
    given trailing shape: a function of a row range that returns the
    buffer's first rows, as many as the range holds, a C-contiguous view."""
    buf = np.empty((max(r.stop - r.start for r in row_slabs(rows)),) + shape, dtype)
    return lambda r: buf[:r.stop - r.start]


def _first_axis(C: np.ndarray, y: np.ndarray, rows: slice | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``rows`` of C times y's columns, or all of them slab by slab;
    a C-contiguous ``out`` of the result's shape receives them."""
    if rows is None:
        out = np.empty((len(C),) + y.shape[1:]) if out is None else out
        for r in row_slabs(len(C)):
            _first_axis(C, y, r, out[r])
        return out
    if out is None:
        out = np.empty((len(C[rows]),) + y.shape[1:])
    np.matmul(C[rows], y.reshape(len(y), -1), out=out.reshape(len(out), -1, copy=False))
    return out


def _dct1(x, grid: Grid, size: int | None = None) -> Callable[..., np.ndarray]:
    """Unnormalized DCT-I of length m = N/2 + 1 on every axis of an n-D block:

        y_k = x_0 + (-1)^k x_{m-1} + 2 sum_{j=1}^{m-2} x_j cos(pi j k / (m - 1)),

    the length 2m - 2 DFT of the even extension x_0..x_{m-1}..x_1.

    The block, a cubic array or a function of a first-axis row range, holds
    x_j for j < b <= m on each axis (b = m for a function) and stands for
    zeros beyond; the result holds y_k for k < size (default m), as a
    function of a row range and an optional ``out`` (all rows given none).
    Each axis is one product with the size x b slice
    C[k, j] = c_j cos(pi j k / (m - 1)) of the DCT-I matrix, c_j = 1 at
    j = 0 and j = m - 1 and 2 otherwise: the last axis as rows times C^T
    and the middle one of three as a stack of C times matrices, a slab at a
    time through one slab buffer into a b x size^{n-1} array, the first as
    rows of C times its columns. The angle is reduced as the integer
    j k mod 2m - 2 before the cosine, so every entry is accurate to rounding."""
    m, n = grid.samples_per_axis // 2 + 1, grid.dimension
    block = None if callable(x) else np.asarray(x, dtype=float)
    b = m if block is None else block.shape[0]
    k = m if size is None else size
    if block is not None and block.shape != (b,) * n or not 1 <= b <= m or not 1 <= k <= m:
        raise ValueError(f"need a cubic block of at most {m} samples per axis and "
                         f"1..{m} outputs, got shape {np.shape(x)} and {k} outputs")
    jk = np.multiply.outer(np.arange(k), np.arange(b)) % (2 * m - 2)
    C = np.cos(np.pi * jk / (m - 1))
    C[:, 1:m - 1] *= 2.0
    y = np.empty((b,) + (k,) * (n - 1))
    # at n = 2 the last-axis product is the result; at n = 3 it goes through
    # one slab buffer
    work = slab_buffer(b, (b, k)) if n == 3 else y.__getitem__
    for rows in row_slabs(b):
        t = np.matmul((x(rows) if block is None else block[rows]).reshape(-1, b), C.T,
                      out=work(rows).reshape(-1, k, copy=False))
        if n == 3:
            np.matmul(C, t.reshape(-1, b, k), out=y[rows])
    return functools.partial(_first_axis, C, y)


def orthant_forward(grid: Grid, x: np.ndarray) -> Callable[..., np.ndarray]:
    """Scaled forward transform of an even real array given by its
    first-orthant block, or by a corner of it outside which the array is
    zero; a function of a first-axis row range (all rows given none) and an
    optional ``out`` that returns those rows of that block of ``fourier`` on
    the full lattice."""
    rows_of = _dct1(x, grid)

    def read(rows: slice | None = None, out: np.ndarray | None = None) -> np.ndarray:
        out = rows_of(rows, out)
        out *= grid.spacing**grid.dimension
        return out

    return read


def orthant_inverse(grid: Grid, x_hat, size: int | None = None) -> np.ndarray:
    """Scaled inverse transform of an even real array given by its
    first-orthant block, a function of a first-axis row range of it, or a
    corner of it outside which the array is zero; equals that block, or its
    corner of ``size`` samples per axis, of ``fourier`` on the full lattice."""
    out = _dct1(x_hat, grid, size)()
    out /= (grid.samples_per_axis * grid.spacing) ** grid.dimension
    return out


def bessel_weight_radius(rho, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """<rho>^alpha = (1 + rho^2)^{alpha/2}; an array ``out``, which may be
    rho itself, receives the values."""
    rho = np.asarray(rho, dtype=float)
    out = np.square(rho, out=np.empty(rho.shape) if out is None else out)
    out += 1.0
    out **= alpha / 2.0
    return out if out.ndim else out[()]


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


def _solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system whose row i is
    lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i], by a forward
    sweep and back substitution without row exchanges."""
    lo, dg, up, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    m = len(b)
    for i in range(1, m):
        w = lo[i] / dg[i - 1]
        dg[i] -= w * up[i - 1]
        b[i] -= w * b[i - 1]
    s = [0.0] * m
    s[-1] = b[-1] / dg[-1]
    for i in range(m - 2, -1, -1):
        s[i] = (b[i] - up[i] * s[i + 1]) / dg[i]
    return np.array(s)


def _not_a_knot_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients, shape (4, m - 1), of the not-a-knot cubic spline through
    the m >= 2 knots (x, y): on [x[i], x[i+1]] it is
    sum_k c[k, i] (t - x[i])^{3-k}, and its third derivative is continuous
    across x[1] and x[m-2]. Two knots give the line and three the parabola
    through them.

    From four knots on, the slopes s solve the usual tridiagonal system with
    not-a-knot first and last rows. Eliminating the first row leaves the
    positive pivot dx[0] + dx[1], every later pivot stays positive, so the
    sweep needs no row exchange."""
    m = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if m == 2:
        s = np.array([slope[0], slope[0]])
    elif m == 3:
        mid = (dx[1] * slope[0] + dx[0] * slope[1]) / (dx[0] + dx[1])
        s = np.array([2.0 * slope[0] - mid, mid, 2.0 * slope[1] - mid])
    else:
        lower, diag, upper, rhs = np.zeros(m), np.empty(m), np.zeros(m), np.empty(m)
        lower[1:-1] = dx[1:]
        diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
        upper[1:-1] = dx[:-1]
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        lower[-1], diag[-1] = d, dx[-2]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = _solve_tridiagonal(lower, diag, upper, rhs)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


@dataclass
class RadialProfile:
    """Radial function sampled on increasing radii, with a fitted power-law
    tail value(rho) ~ tail_coefficient * <rho>^{-tail_exponent} beyond range.

    The tail is fitted on the top half of the radii and anchored
    continuously at the last one; with fewer than four nonzero values there
    its exponent is inf and it reads 0. Inside the sampled range the profile
    is read by the not-a-knot cubic spline through the samples, on the
    interval that a binary search of the interior knots finds; below the
    first radius it takes the first value."""

    radii: np.ndarray
    values: np.ndarray
    tail_exponent: float = field(init=False)
    tail_coefficient: float = field(init=False)
    _coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.radii.ndim != 1 or self.radii.shape != self.values.shape:
            raise ValueError("radii and values must be matching 1-d arrays")
        if len(self.radii) < 2:
            raise ValueError(f"a radial profile needs at least 2 radii, got {len(self.radii)}")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        self._coef = _not_a_knot_cubic(self.radii, self.values)
        r_max = self.radii[-1]
        mask = self.radii >= 0.5 * r_max
        p, _ = _power_law_fit(self.radii[mask], np.abs(self.values[mask]))
        self.tail_exponent = p
        edge = float(self.values[-1])
        self.tail_coefficient = edge * (1.0 + r_max**2) ** (p / 2.0) if np.isfinite(p) else 0.0

    def __call__(self, rho, out=None) -> np.ndarray:
        """The profile at rho; an array ``out``, which may be rho itself,
        receives the values."""
        rho = np.asarray(rho, dtype=float)
        beyond = rho > self.radii[-1]
        far = rho[beyond] if np.any(beyond) else None
        # radii below the table clip to radii[0], where the first cubic is
        # values[0] exactly
        dr = np.clip(rho, self.radii[0], self.radii[-1])
        # the interval index: the number of interior knots at or below dr
        i = np.searchsorted(self.radii[1:-1], dr, side="right")
        dr -= self.radii.take(i)
        # Horner's rule in place: the kernels read q_hat in blocks of nodes,
        # where every fresh temporary costs as much as the arithmetic; a 0-d
        # read takes a scalar, made an array for the tail write below. i is
        # in range, so mode="clip" moves no index; it spares the copy through
        # a buffer that take makes of out otherwise
        out = np.asarray(self._coef[0].take(i, out=out, mode="clip"))
        for c in self._coef[1:]:
            out *= dr
            out += c.take(i)
        if far is not None:
            if not np.isfinite(self.tail_exponent):
                out[beyond] = 0.0
            else:
                out[beyond] = self.tail_coefficient * bessel_weight_radius(
                    far, -self.tail_exponent
                )
        return out if out.ndim else float(out)
