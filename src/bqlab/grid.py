"""Spectral fields on the periodic box T x [-Ly, Ly).

The horizontal direction X lives on [0, 2*pi) with integer wavenumbers k;
the vertical direction Y lives on [-Ly, Ly), periodically truncated, with
wavenumbers xi = (pi/Ly) * m for integer m.  Physical fields are real, so a
scalar is stored as the k >= 0 half of its spectrum: the array that

    np.fft.rfftn(values, axes=(1, 0), norm="forward")

returns, of shape (nx/2 + 1, ny), rows k = 0 .. nx/2 and columns m in
numpy's natural order (0 .. ny/2 - 1, -ny/2 .. -1).  The DFT phase is taken
relative to the grid origin Y = -Ly:

    f(X, Y) = sum_k sum_xi c(k, xi) * exp(i*(k*X + xi*(Y + Ly))),

where the rows k < 0 are the mirror c(-k, -xi) = conj(c(k, xi)) and are not
stored.  The true Fourier coefficient of exp(i*(k*X + xi*Y)) is
(-1)^m c(k, xi) (``Grid._phase_y``); only series summed at points off the
grid need it.

The 2D transforms :func:`to_physical` and :func:`field_from_physical` take
one field or a stack of fields along one leading axis; one call on a stack
pays numpy's per-call overhead once.  The stepper makes one such pass per
stage at every grid size, on a stack of band-limited fields (zero on the
rows k > nx/3, which the 2/3 rule removes) held in the grid's
:meth:`Grid.workspace`: its inverse transforms only the kept rows along Y,
and its forward computes only those rows.

The column m = -ny/2 is its own alias: the mirror of a stored entry
(k, -ny/2) sits at xi = +ny/2, which is the same column.  A symbol that is
odd there (``i xi``, ``xi - k t``, the multiplier weights) multiplies the
stored entry by its value at -ny/2 and so gives the mirror its value at
+ny/2.  Dealiased fields are zero in that column, so no solver path sees
the difference.

Norms are root-mean-square over the box: ``l2_norm(f)**2 == mean(|f|^2)``,
which makes Parseval an exact identity of the discrete transform.  Every
coefficient sum stands for the full spectrum, so it weights the rows
0 < k < nx/2 by 2 (each also stands for its mirror) and the self-mirrored
rows k = 0 and k = nx/2 by 1 (``Grid.row_weight``).
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
        Number of physical points in X and Y.  Even, >= 4.
    Ly : float
        Half-length of the Y interval; xi spacing is pi/Ly.
    k, xi : ndarray
        1D wavenumber tables of the stored layout: k = 0 .. nx/2 (the rows),
        xi = (pi/Ly)*m with m in numpy's natural FFT order (the columns).
        Tables over the modes broadcast ``k[:, None]`` against ``xi``.
    X, Y : ndarray
        Physical collocation points.
    ik : ndarray
        ``1j*k`` as an (nx/2 + 1, 1) column, the symbol of d_X.
    row_weight : ndarray
        (nx/2 + 1, 1) column, 2 on the rows 0 < k < nx/2 and 1 on k = 0 and
        k = nx/2: the weight of each stored row in a sum over the full
        spectrum.
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

        m = np.fft.fftfreq(self.ny, 1.0 / self.ny)
        k = np.arange(self.nx // 2 + 1, dtype=float)
        xi = (np.pi / self.Ly) * m
        X = 2.0 * np.pi * np.arange(self.nx) / self.nx
        Y = -self.Ly + 2.0 * self.Ly * np.arange(self.ny) / self.ny
        kcut = self.nx / 3.0
        xicut = (np.pi / self.Ly) * (self.ny / 3.0)
        mask = (k <= kcut)[:, None] & (np.abs(xi) <= xicut)
        weight = np.full((k.size, 1), 2.0)
        weight[0] = weight[-1] = 1.0

        object.__setattr__(self, "k", k)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "ik", (1j * k)[:, None])
        object.__setattr__(self, "row_weight", weight)
        object.__setattr__(self, "dealias_mask", mask)
        # exp(i*xi*Ly) = (-1)^m, exact: stored coefficient -> true coefficient
        object.__setattr__(self, "_phase_y", np.where(m % 2, -1.0, 1.0))
        # rows k <= nx/3, the only ones the 2/3 mask keeps
        object.__setattr__(self, "_kept_rows", slice(0, int(kcut) + 1))
        object.__setattr__(self, "_sobolev_cache", {})
        object.__setattr__(self, "_workspace", [])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the physical point grid, (nx, ny)."""
        return (self.nx, self.ny)

    def workspace(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """A stack of m coefficient arrays and a real buffer of m point
        arrays, ``(spec, phys)``, allocated on the first call and reused by
        every later one: views of one allocation, regrown only for a larger m.

        The rows k > nx/3 of ``spec`` are zero and must stay so: a caller
        writes only the rows ``_kept_rows``, which makes every array of the
        stack band-limited, as ``to_physical(..., out=phys)`` requires.
        Anything read from either buffer is valid only until the next call.
        """
        if not self._workspace or len(self._workspace[0]) < m:
            self._workspace[:] = (np.zeros((m,) + self.zeros().shape, dtype=np.complex128),
                                  np.empty((m, self.nx, self.ny)))
        spec, phys = self._workspace
        return spec[:m], phys[:m]

    def sobolev_weights(self, N: float) -> np.ndarray:
        """(1 + k^2 + xi^2)^(N/2) over the stored modes, cached per exponent."""
        w = self._sobolev_cache.get(N)
        if w is None:
            w = (1.0 + (self.k**2)[:, None] + self.xi**2) ** (N / 2.0)
            self._sobolev_cache[N] = w
        return w

    def rms(self, c: np.ndarray) -> float:
        """RMS norm of the coefficient array ``c``, (sum over the full
        spectrum of |c|^2)^(1/2), or of its leading rows alone (a band
        block), the others counted as zero.

        The sum of |c|^2 along each row is one ``einsum`` over the real and
        imaginary parts, with no temporary array.
        """
        v = np.ascontiguousarray(c).view(np.float64)
        rows = np.einsum("...j,...j->...", v, v)
        return float(np.sqrt(np.sum(self.row_weight[:c.shape[-2], 0] * rows)))

    def zeros(self) -> np.ndarray:
        return np.zeros((self.nx // 2 + 1, self.ny), dtype=np.complex128)


def make_grid(nx: int, ny: int, Ly: float) -> Grid:
    """Build a grid; rejects odd or too-small sizes and nonpositive Ly."""
    return Grid(int(nx), int(ny), float(Ly))


@dataclass(frozen=True)
class SpectralField:
    """The k >= 0 half of the spectrum of a real scalar on a :class:`Grid`,
    shape (nx/2 + 1, ny), in the layout of the module docstring: a plain
    (grid, coeffs) pair where the two travel together (initial data, the
    solver state, norms, transforms, files).  It has no arithmetic: the
    operators, :func:`multiply_y_profile` and those of :mod:`bqlab.shear`,
    take and return bare coefficient arrays.

    A stack of such arrays, shape (m, nx/2 + 1, ny), is accepted too, but
    only the transforms :func:`to_physical` and :func:`field_from_physical`
    take one.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if (self.coeffs.shape[-2:] != (self.grid.nx // 2 + 1, self.grid.ny)
                or self.coeffs.ndim > 3):
            raise GridError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, grid.zeros())


def field_from_physical(grid: Grid, values: np.ndarray, *,
                        dealias: bool = False) -> SpectralField:
    """Forward transform of real point values on the (X, Y) collocation grid,
    shape (nx, ny), or of a stack of them, shape (m, nx, ny): a real
    transform along X, then a full one along Y, which is one ``rfftn`` whose
    output is the stored layout (``s`` is passed, so ``rfftn`` skips its
    ``np.take``).  Each field of a stack is bitwise equal to its own
    transform.

    With ``dealias=True`` the result is masked by the 2/3 rule, and only the
    rows k <= nx/3 are transformed along Y; the others are set to zero.  It
    equals the masked ``rfftn`` (``np.array_equal``); only the sign of a
    zero on those rows can differ.
    """
    if not dealias:
        return SpectralField(grid, np.fft.rfftn(values, s=(grid.ny, grid.nx),
                                                axes=(-1, -2), norm="forward"))
    rows = grid._kept_rows
    c = np.fft.rfft(values, n=grid.nx, axis=-2, norm="forward")
    kept = c[..., rows, :]
    np.fft.fft(kept, axis=-1, norm="forward", out=kept)
    kept *= grid.dealias_mask[rows]
    c[..., rows.stop:, :] = 0.0
    return SpectralField(grid, c)


def to_physical(f: SpectralField, *, out: np.ndarray | None = None) -> np.ndarray:
    """Backward transform; returns the real point values, shape (nx, ny), or
    (m, nx, ny) for a stack of m fields, each bitwise equal to the transform
    of its own field.

    One ``irfftn``: a full inverse transform along Y, then a real one along
    X.  Of the self-mirrored rows k = 0 and k = nx/2 it keeps the part that
    is Hermitian in xi, as the real part of a full inverse would.  ``1j*k``
    times a field that is not dealiased leaves row k = nx/2 anti-Hermitian,
    so that row contributes nothing.

    With ``out``, a real array of the result's shape, the fields must be
    band-limited (zero on the rows k > nx/3, as in a :meth:`Grid.workspace`):
    only the rows k <= nx/3 are transformed along Y, in place, so the
    coefficients of ``f`` are overwritten, and the transform along X writes
    into ``out``, which is returned.  The values equal the general
    transform's bit for bit.
    """
    g = f.grid
    if out is None:
        return np.fft.irfftn(f.coeffs, s=(g.ny, g.nx), axes=(-1, -2), norm="forward")
    kept = f.coeffs[..., g._kept_rows, :]
    np.fft.ifft(kept, axis=-1, norm="forward", out=kept)
    return np.fft.irfft(f.coeffs, n=g.nx, axis=-2, norm="forward", out=out)


def field_from_function(grid: Grid, fn) -> SpectralField:
    """Sample ``fn(X, Y)`` on the collocation meshes and transform."""
    XX, YY = np.meshgrid(grid.X, grid.Y, indexing="ij")
    return field_from_physical(grid, np.asarray(fn(XX, YY), dtype=float))


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes outside the 2/3 ball; idempotent."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


def l2_norm(f: SpectralField) -> float:
    """RMS norm of a field, :meth:`Grid.rms` of its coefficients."""
    return f.grid.rms(f.coeffs)


def sobolev_norm(f: SpectralField, N: float) -> float:
    """Discrete H^N norm, (sum (1+k^2+xi^2)^N |c|^2)^(1/2) over the full
    spectrum.  N >= 0."""
    if N < 0:
        raise ValueError(f"Sobolev exponent must be >= 0, got {N}")
    w = f.grid.sobolev_weights(N)
    return float(np.sqrt(np.sum(f.grid.row_weight * (w * np.abs(f.coeffs)) ** 2)))


def multiply_y_profile(grid: Grid, c: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Coefficients of the product of the coefficient array ``c`` with a real
    function of Y alone, dealiased.

    Diagonal in k (a Y-only factor cannot alias in X), so each row is
    multiplied on its own by a partial transform along Y, and only the rows
    k <= nx/3: the 2/3 mask zeroes every other row of the product.  The
    ``ifft`` of a row gives its values at the grid points Y_j themselves
    (over ny), where the profile is sampled.
    """
    rows = grid._kept_rows
    mixed = np.fft.ifft(c[rows], axis=1) * profile
    out = np.zeros_like(c)
    np.multiply(np.fft.fft(mixed, axis=1), grid.dealias_mask[rows], out=out[rows])
    return out


# --- 1D helpers for functions of Y alone (shear profiles, frame functions) ---


def fft_y(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a 1D function sampled on the Y grid, in the
    order and phase of a row of a :class:`SpectralField`."""
    return np.fft.fft(values, norm="forward")


def ifft_y(coeffs: np.ndarray) -> np.ndarray:
    """Values on the Y grid of 1D coefficients in the layout of :func:`fft_y`."""
    return np.fft.ifft(coeffs, norm="forward")
