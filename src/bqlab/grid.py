"""Spectral fields on the periodic box T x [-Ly, Ly).

The horizontal direction X lives on [0, 2*pi) with integer wavenumbers k;
the vertical direction Y lives on [-Ly, Ly), periodically truncated, with
wavenumbers xi = (pi/Ly) * m for integer m.  A scalar field is stored as the
complex array of its Fourier coefficients c(k, xi), wavenumbers sorted
ascending along both axes, under the convention

    f(X, Y) = sum_k sum_xi c(k, xi) * exp(i*(k*X + xi*Y)),

so the coefficients are true Fourier coefficients of f (the offset of the
Y grid is absorbed into the sign exp(i*xi*Ly) = (-1)^m).  Norms are
root-mean-square over the box: ``l2_norm(f)**2 == mean(|f|^2)``, which makes
Parseval an exact identity of the discrete transform.

Physical fields are real, so the 2D transforms are numpy's real-input
``rfft2``/``irfft2``: the stored array keeps both Hermitian halves, and the
transforms read or write the xi >= 0 half in numpy's natural order.  The
change of order is a swap of the two k halves (``_swap_k_halves``), the only
reordering of the 2D transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid construction parameters."""


@dataclass(frozen=True)
class Grid:
    """Truncated spectral grid for T x [-Ly, Ly).

    Attributes
    ----------
    nx, ny : int
        Number of modes (and physical points) in X and Y.  Even, >= 4.
    Ly : float
        Half-length of the Y interval; xi spacing is pi/Ly.
    k, xi : ndarray
        Sorted 1D wavenumber tables, k integer-valued in [-nx/2, nx/2),
        xi in (pi/Ly)*[-ny/2, ny/2).
    X, Y : ndarray
        Physical collocation points.
    K, XI : ndarray
        2D wavenumber meshes, shape (nx, ny), indexed (k, xi).
    ik : ndarray
        ``1j*k`` as an (nx, 1) column, the symbol of d_X; it applies to a
        coefficient array by broadcasting.
    dealias_mask : ndarray of bool
        True on modes kept by the 2/3 rule.
    """

    nx: int
    ny: int
    Ly: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise GridError(f"grid sizes must be >= 4, got nx={self.nx}, ny={self.ny}")
        if self.nx % 2 != 0 or self.ny % 2 != 0:
            raise GridError(f"grid sizes must be even, got nx={self.nx}, ny={self.ny}")
        if not self.Ly > 0:
            raise GridError(f"Ly must be positive, got {self.Ly}")

        k = np.arange(-self.nx // 2, self.nx // 2, dtype=float)
        xi = (np.pi / self.Ly) * np.arange(-self.ny // 2, self.ny // 2, dtype=float)
        X = 2.0 * np.pi * np.arange(self.nx) / self.nx
        Y = -self.Ly + 2.0 * self.Ly * np.arange(self.ny) / self.ny
        K, XI = np.meshgrid(k, xi, indexing="ij")
        kcut = self.nx / 3.0
        xicut = (np.pi / self.Ly) * (self.ny / 3.0)
        mask = (np.abs(K) <= kcut) & (np.abs(XI) <= xicut)
        # phase exp(i*xi*Ly) = (-1)^m relating DFT output (Y starts at -Ly)
        # to true Fourier coefficients, exact
        phase_y = np.where(np.arange(-self.ny // 2, self.ny // 2) % 2, -1.0, 1.0)
        # rows |k| <= nx/3, the only ones the 2/3 mask keeps
        kept = np.flatnonzero(np.abs(k) <= kcut)
        kept_rows = slice(int(kept[0]), int(kept[-1]) + 1)

        object.__setattr__(self, "k", k)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "XI", XI)
        object.__setattr__(self, "ik", (1j * k)[:, None])
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "_phase_y", phase_y)
        object.__setattr__(self, "_kept_rows", kept_rows)
        object.__setattr__(self, "_sobolev_cache", {})

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def sobolev_weights(self, N: float) -> np.ndarray:
        """(1 + k^2 + xi^2)^(N/2) mesh, cached per exponent."""
        w = self._sobolev_cache.get(N)
        if w is None:
            w = (1.0 + self.K**2 + self.XI**2) ** (N / 2.0)
            self._sobolev_cache[N] = w
        return w

    def zeros(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny), dtype=np.complex128)


def make_grid(nx: int, ny: int, Ly: float) -> Grid:
    """Build a grid; rejects odd or too-small sizes and nonpositive Ly."""
    return Grid(int(nx), int(ny), float(Ly))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a scalar on a :class:`Grid`.

    Treat instances as immutable values: every operation returns a new
    field.  Real scalars keep Hermitian symmetry c(-k,-xi) = conj(c(k,xi)).
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.nx, self.grid.ny):
            raise GridError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, grid.zeros())


def _swap_k_halves(dst: np.ndarray, src: np.ndarray, sign) -> None:
    """``dst = src * sign`` with the two halves of the k axis swapped.

    The swap maps rows between the sorted layout (k = -nx/2 .. nx/2-1) and
    numpy's natural order (k = 0 .. nx/2-1, -nx/2 .. -1); it is its own
    inverse.
    """
    h = src.shape[0] // 2
    np.multiply(src[h:], sign, out=dst[:h])
    np.multiply(src[:h], sign, out=dst[h:])


def field_from_physical(grid: Grid, values: np.ndarray) -> SpectralField:
    """Forward transform of real point values on the (X, Y) collocation grid.

    One ``rfft2`` gives the xi >= 0 half and the unpaired xi = -ny/2 column;
    the xi < 0 half is filled as their exact conjugate mirror
    c(-k, -xi) = conj(c(k, xi)).  ``values`` must be real.
    """
    hy = grid.ny // 2
    half = np.fft.rfft2(values, norm="forward")  # columns m = 0 .. ny/2
    c = np.empty((grid.nx, grid.ny), dtype=np.complex128)
    sign = grid._phase_y
    _swap_k_halves(c[:, hy:], half[:, :hy], sign[hy:])
    _swap_k_halves(c[:, 0], half[:, hy], sign[0])
    # the mirror of row i is row -i mod nx: row 0 (k = -nx/2) pairs with itself
    np.conjugate(c[0, :hy:-1], out=c[0, 1:hy])
    np.conjugate(c[:0:-1, :hy:-1], out=c[1:, 1:hy])
    return SpectralField(grid, c)


def to_physical(f: SpectralField) -> np.ndarray:
    """Backward transform; returns the real point values.

    ``f`` must be the spectrum of a real field: c(-k, -xi) = conj(c(k, xi))
    for xi other than 0 and -ny/2, with indices taken modulo the grid, so
    the row k = -nx/2 pairs with itself.  One ``irfft2`` reads only the
    xi >= 0 half and the xi = -ny/2 column and takes the rest to be the
    mirror; of the columns xi = 0 and -ny/2 it keeps the Hermitian part, as
    the real part of a full inverse would.  ``1j*k`` times a field that is
    not dealiased breaks the rule on row k = -nx/2: zero that row first.
    """
    g = f.grid
    hy = g.ny // 2
    half = np.empty((g.nx, hy + 1), dtype=np.complex128)
    sign = g._phase_y
    _swap_k_halves(half[:, :hy], f.coeffs[:, hy:], sign[hy:])
    _swap_k_halves(half[:, hy], f.coeffs[:, 0], sign[0])
    return np.fft.irfft2(half, s=g.shape, norm="forward")


def field_from_function(grid: Grid, fn) -> SpectralField:
    """Sample ``fn(X, Y)`` on the collocation meshes and transform."""
    XX, YY = np.meshgrid(grid.X, grid.Y, indexing="ij")
    return field_from_physical(grid, np.asarray(fn(XX, YY), dtype=float))


def project_modes(f: SpectralField, which: str) -> SpectralField:
    """Projection onto the k=0 column ("zero") or its complement ("nonzero")."""
    i0 = f.grid.nx // 2  # index of k = 0 in the sorted layout
    c = f.coeffs.copy()
    if which == "zero":
        keep = np.zeros_like(c)
        keep[i0, :] = c[i0, :]
        return SpectralField(f.grid, keep)
    if which == "nonzero":
        c[i0, :] = 0.0
        return SpectralField(f.grid, c)
    raise ValueError(f"unknown projection {which!r}; expected 'zero' or 'nonzero'")


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes outside the 2/3 ball; idempotent."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


def l2_norm(f: SpectralField) -> float:
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))


def sobolev_norm(f: SpectralField, N: float) -> float:
    """Discrete H^N norm, (sum (1+k^2+xi^2)^N |c|^2)^(1/2).  N >= 0."""
    if N < 0:
        raise ValueError(f"Sobolev exponent must be >= 0, got {N}")
    w = f.grid.sobolev_weights(N)
    return float(np.sqrt(np.sum((w * np.abs(f.coeffs)) ** 2)))


def inner(f: SpectralField, g: SpectralField) -> float:
    """Real L^2 pairing <f, g> consistent with ``l2_norm``."""
    return float(np.real(np.sum(np.conj(f.coeffs) * g.coeffs)))


def hermitian_defect(f: SpectralField) -> float:
    """Max |c(-k,-xi) - conj(c(k,xi))| over modes with a mirror partner."""
    c = f.coeffs[1:, 1:]  # drop the unpaired most-negative row/column
    mirror = np.conj(c[::-1, ::-1])
    return float(np.max(np.abs(c - mirror))) if c.size else 0.0


def multiply_y_profile(f: SpectralField, profile: np.ndarray) -> SpectralField:
    """Product with a function of Y alone, dealiased.

    Diagonal in k (a Y-only factor cannot alias in X), so only a partial
    transform along Y is needed, and only on the rows |k| <= nx/3: the 2/3
    mask zeroes every other row of the product.  Any complex input works.
    The natural-order ``ifft`` of the sorted coefficients gives the values
    at Y shifted by half the period, times (-1)^index; the profile is
    sampled at the same points, and the ``fft`` back undoes both.
    """
    g = f.grid
    rows, hy = g._kept_rows, g.ny // 2
    u = np.asarray(profile)
    mixed = np.fft.ifft(f.coeffs[rows], axis=1) * np.concatenate((u[hy:], u[:hy]))
    c = np.zeros_like(f.coeffs)
    np.multiply(np.fft.fft(mixed, axis=1), g.dealias_mask[rows], out=c[rows])
    return SpectralField(g, c)


# --- 1D helpers for functions of Y alone (shear profiles, frame functions) ---


def fft_y(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a 1D function sampled on the Y grid."""
    c = np.fft.fftshift(np.fft.fft(values)) / grid.ny
    return c * grid._phase_y


def ifft_y(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    raw = np.fft.ifftshift(coeffs * np.conj(grid._phase_y))
    return np.fft.ifft(raw) * grid.ny
