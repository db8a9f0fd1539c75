"""Heat-evolved background shear, frame functions and frame operators.

The background velocity profile U(y) close to Couette evolves by the 1D heat
semigroup, Ubar(t,y) = exp(nu*t*d_yy) U(y), with the linear part y carried
analytically and the periodic remainder evolved mode by mode.  The moving
frame (X, Y) = (x - t*Ubar(t,y), Ubar(t,y)) turns the background advection
into explicit time dependence; its metric functions

    a(t, Y) = d_y Ubar at y(Y),      b(t, Y) = d_yy Ubar at y(Y)

satisfy b = a * d_Y a and collapse to a == 1, b == 0 for exact Couette.

Ubar and its y-derivatives have one evaluator, :func:`heat_evolve_shear`:
the series over the (small) set of active Fourier modes of U - y, summed at
any point, so the y <-> Y inversion and the pullback to physical
coordinates are spectrally exact rather than interpolated.

The frame operators take and return coefficient arrays in the layout of
:mod:`bqlab.grid` and read the grid from the frame.  d_X, d_Y^L and Delta_L
are one product each, by ``grid.ik``, ``frame.ieta`` and ``-frame.gl``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Grid, fft_y, multiply_y_profile

_NEWTON_TOL = 1e-12
_ACTIVE_CUTOFF = 1e-14
# largest measured delta a validated profile may have
_DELTA_CAP = 0.1


class ShearError(ValueError):
    """Invalid shear profile or degenerate frame change."""


class EllipticError(RuntimeError):
    """The variable-coefficient inversion did not contract."""


# ---------------------------------------------------------------------------
# shear profiles


@dataclass(frozen=True)
class ShearProfile:
    """Initial shear U(y), held as the Fourier modes of U - y on the Y grid,
    with its measured closeness to Couette.

    ``delta`` is the measured H^s size of (U' - 1, U''); profiles are
    accepted only while delta stays under ``_DELTA_CAP`` unless validation
    is explicitly disabled (exploratory runs).
    """

    grid: Grid
    delta: float
    c0: np.ndarray          # Fourier coefficients of U - y
    active: np.ndarray      # indices of modes actually present

    @property
    def is_couette(self) -> bool:
        return self.active.size == 0


def make_profile(grid: Grid, U: np.ndarray, s: float = 7.0,
                 validate: bool = True) -> ShearProfile:
    """Wrap point values of U on the Y grid, measuring delta and monotonicity.

    delta = ||U' - 1||_{H^s} + ||U''||_{H^s} is summed over the active
    modes of U - y, those above ``_ACTIVE_CUTOFF * max(max|c0|, 1)``: the
    rest is transform roundoff, which carries no physical content but which
    the high-frequency H^s weights would amplify.
    """
    U = np.asarray(U, dtype=float)
    if U.shape != (grid.ny,):
        raise ShearError(f"profile shape {U.shape} does not match ny={grid.ny}")
    c0 = fft_y(U - grid.Y)
    kept = np.abs(c0) > _ACTIVE_CUTOFF * max(np.max(np.abs(c0)), 1.0)
    c = np.where(kept, c0, 0.0)
    w = (1.0 + grid.xi**2) ** (s / 2.0)
    d1 = np.sqrt(np.sum((w * np.abs(1j * grid.xi * c)) ** 2))
    d2 = np.sqrt(np.sum((w * np.abs(-(grid.xi**2) * c)) ** 2))
    profile = ShearProfile(grid, float(d1 + d2), c0, np.nonzero(kept)[0])

    uprime = heat_evolve_shear(profile, 0.0, 0.0)(grid.Y, 1)
    if validate and np.min(uprime) <= 0.0:
        raise ShearError(
            f"shear is not strictly increasing (min U' = {np.min(uprime):.3e}); "
            "the frame change degenerates"
        )
    if validate and profile.delta > _DELTA_CAP:
        raise ShearError(
            f"measured delta = {profile.delta:.4g} exceeds cap {_DELTA_CAP}; "
            "pass validate=False for exploratory runs"
        )

    # smoothness across the periodic seam: the top sixth of the spectrum
    # must carry a negligible fraction of the deviation from Couette
    total = np.sum(np.abs(c0))
    tail = np.sum(np.abs(c0[np.abs(grid.xi) > (np.pi / grid.Ly) * (grid.ny / 3.0)]))
    if not (total == 0.0 or tail <= 1e-6 * total):
        warnings.warn(
            "shear deviation is not smooth across the Y truncation edge; "
            "frame functions may show wrap artifacts",
            stacklevel=2,
        )
    return profile


def couette(grid: Grid) -> ShearProfile:
    """The exact linear shear U(y) = y; its delta is 0 at every index s."""
    return make_profile(grid, grid.Y.copy())


def couette_plus_sine(
    grid: Grid,
    amplitude: float,
    wavenumber: float,
    s: float = 7.0,
    validate: bool = True,
) -> ShearProfile:
    """U(y) = y + amplitude * sin(wavenumber * y).

    The wavenumber must sit on the xi lattice (a multiple of pi/Ly), else the
    profile is not periodic on the truncation.
    """
    dxi = np.pi / grid.Ly
    if abs(wavenumber / dxi - round(wavenumber / dxi)) > 1e-9:
        raise ShearError(
            f"wavenumber {wavenumber} is not a multiple of pi/Ly = {dxi:.6g}"
        )
    U = grid.Y + amplitude * np.sin(wavenumber * grid.Y)
    return make_profile(grid, U, s=s, validate=validate)


def load_profile(path, grid: Grid, s: float = 7.0) -> ShearProfile:
    """Load a (y, U) two-column text table and resample onto the Y grid."""
    try:
        table = np.loadtxt(path)
    except ValueError as exc:
        raise ShearError(f"{path}: not a table of numbers ({exc})") from exc
    if table.ndim != 2 or table.shape[1] < 2:
        raise ShearError(f"{path}: expected two columns (y, U)")
    y, U = table[:, 0], table[:, 1]
    if not np.all(np.isfinite(table[:, :2])):
        raise ShearError(f"{path}: the table holds a non-finite value")
    if not np.all(np.diff(y) > 0):
        raise ShearError(f"{path}: y is not strictly increasing")
    if y[0] > grid.Y[0] or y[-1] < grid.Y[-1]:
        raise ShearError(f"{path}: table range [{y[0]}, {y[-1]}] does not cover the grid")
    return make_profile(grid, grid.Y + _not_a_knot_spline(y, U - y, grid.Y), s=s)


def _not_a_knot_spline(x: np.ndarray, f: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values at ``pts``, inside [x[0], x[-1]], of the not-a-knot cubic
    spline through the points (x, f), x strictly increasing: a cubic on each
    interval, with continuous second derivative everywhere and continuous
    third derivative at x[1] and x[-2] (de Boor, *A Practical Guide to
    Splines*, 1978).  Two points give their line, three their parabola.

    The second derivatives M solve the tridiagonal system of the interior
    knots, the two end conditions folded into its first and last rows, by
    Thomas's elimination.
    """
    n = len(x)
    if n < 4:
        return np.polyval(np.polyfit(x, f, n - 1), pts)
    h = np.diff(x)
    d = np.diff(f) / h
    r = 6.0 * np.diff(d)
    # row i of the interior knot i + 1: lo M_i + di M_(i+1) + up M_(i+2) = r
    lo, di, up = h[:-1].copy(), 2.0 * (h[:-1] + h[1:]), h[1:].copy()
    di[0] += h[0] * (h[0] + h[1]) / h[1]        # M_0 from the end condition
    up[0] -= h[0] ** 2 / h[1]
    di[-1] += h[-1] * (h[-2] + h[-1]) / h[-2]   # and M_(n-1)
    lo[-1] -= h[-1] ** 2 / h[-2]
    for i in range(1, n - 2):
        w = lo[i] / di[i - 1]
        di[i] -= w * up[i - 1]
        r[i] -= w * r[i - 1]
    M = np.empty(n)
    M[n - 2] = r[-1] / di[-1]
    for i in range(n - 4, -1, -1):
        M[i + 1] = (r[i] - up[i] * M[i + 2]) / di[i]
    M[0] = ((h[0] + h[1]) * M[1] - h[0] * M[2]) / h[1]
    M[-1] = ((h[-2] + h[-1]) * M[-2] - h[-1] * M[-3]) / h[-2]
    i = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, n - 2)
    t = pts - x[i]
    return (f[i] + t * (d[i] - h[i] * (2.0 * M[i] + M[i + 1]) / 6.0)
            + t * t * M[i] / 2.0 + t**3 * (M[i + 1] - M[i]) / (6.0 * h[i]))


def heat_evolve_shear(profile: ShearProfile, nu: float, t: float):
    """``ubar(pts, order=0)``: the y-derivative of order 0, 1 or 2 of
    Ubar(t, .) = exp(nu t d_yy) U at any points, a series over the active
    modes of U - y, each damped by exp(-nu t xi^2); its coefficients are
    built once, here, and the table of exponentials once per point set: the
    orders asked of one set of points share it."""
    if nu < 0 or t < 0:
        raise ValueError("heat evolution needs nu >= 0 and t >= 0")
    grid = profile.grid
    xi = grid.xi[profile.active]
    c = (profile.c0 * np.exp(-nu * t * grid.xi**2) * grid._phase_y)[profile.active]
    series = (c, 1j * xi * c, -(xi**2) * c)
    last = [None, None]  # the bytes of the last point set, its exp(i xi y)

    def ubar(pts: np.ndarray, order: int = 0) -> np.ndarray:
        key = np.asarray(pts, dtype=float).tobytes()
        if key != last[0]:
            last[:] = key, np.exp(1j * np.outer(pts, xi))
        s = np.real(last[1] @ series[order])
        if order == 0:
            return pts + s
        return 1.0 + s if order == 1 else s

    return ubar


# ---------------------------------------------------------------------------
# frame construction


@dataclass(frozen=True)
class BandTables:
    """The tables of :func:`laplace_t` and :func:`invert_laplace_t` at one
    frame, built once with it: the frame's symbols, its Delta_L^-1 and the
    2/3 mask on the rows k <= nx/3 that the mask keeps, where a band block
    (an array of those rows alone) lives, as views; the Y profiles of the
    operator; and the k = 0 projection pair of the solve."""

    dyy: np.ndarray
    ieta: np.ndarray
    inv: np.ndarray
    mask: np.ndarray
    prof: np.ndarray      # (a^2, b) on the Y grid, shape (2, 1, ny)
    neg_k2: np.ndarray    # -k^2, the symbol of d_XX, as a column of all rows
    a_hat: np.ndarray     # coefficients of a inside the 2/3 band
    w_minus: np.ndarray   # coefficients of 1/a at -xi


def _band_tables(grid: Grid, a, b, ieta, dyy, inv) -> BandTables:
    rows = grid._kept_rows
    # on the Y grid the k = 0 projection is r0 -= mean(r0 / a) a.  In
    # coefficients, mean(r0 / a) is sum_xi c(xi) w(-xi), with w the
    # coefficients of 1/a and a_hat those of a inside the 2/3 band:
    # laplace_t's output is masked, so a direction outside it would leave a
    # residual no update can remove.
    a_hat, w = fft_y(np.array([a, 1.0 / a]))
    return BandTables(dyy[rows], ieta[rows], inv[rows], grid.dealias_mask[rows],
                      np.array([a**2, b])[:, None], -(grid.k**2)[:, None],
                      a_hat * grid.dealias_mask[0],
                      np.concatenate((w[:1], w[:0:-1])))  # w(-xi); -ny/2 is its own alias


@dataclass(frozen=True)
class ShearFrame:
    """Frozen snapshot of the frame at one time t: a, b, the maps and the
    symbols every operator at t multiplies by, ``ieta = 1j*(xi - k t)``
    (d_Y^L), ``dyy = -(xi - k t)^2`` (d_YY^L), ``gl = k^2 + (xi - k t)^2``
    (-Delta_L) and ``inv_lap`` (Delta_L^-1, 0 at the gauge mode k = xi = 0);
    ``dyy`` is None for Couette, where no operator reads it.  ``band`` holds
    the tables of :func:`laplace_t` and its inversion (None for Couette).
    """

    grid: Grid
    profile: ShearProfile
    t: float
    a: np.ndarray         # d_y Ubar at y(Y_j)
    b: np.ndarray         # d_yy Ubar at y(Y_j)
    y_of_Y: np.ndarray
    Y_of_y: np.ndarray    # Ubar(t, y_j) on the y grid
    is_couette: bool
    ieta: np.ndarray
    dyy: np.ndarray | None
    gl: np.ndarray
    inv_lap: np.ndarray
    band: BandTables | None = None

    @property
    def a2m1(self) -> np.ndarray:
        """a^2 - 1, the coefficient of the frame diffusion correction."""
        return self.a**2 - 1.0


def build_frame(profile: ShearProfile, nu: float, t: float) -> ShearFrame:
    """Frame snapshot at time t: heat-evolve the shear, invert y -> Y by
    Newton, and build the mode tables of t."""
    grid = profile.grid
    Y = grid.Y
    eta, gl = mode_tables(grid, t)
    with np.errstate(divide="ignore"):  # gl vanishes only at the gauge mode
        inv = np.divide(1.0, -gl)
    inv[0, 0] = 0.0
    if profile.is_couette:
        ones = np.ones(grid.ny)
        zeros = np.zeros(grid.ny)
        return ShearFrame(grid, profile, t, ones, zeros, Y.copy(), Y.copy(), True,
                          1j * eta, None, gl, inv)
    tables = (1j * eta, np.negative(np.square(eta, out=eta), out=eta), gl, inv)

    ubar = heat_evolve_shear(profile, nu, t)
    Ubar, dU_grid = ubar(Y), ubar(Y, 1)
    if np.min(dU_grid) <= 0.0:
        raise ShearError(
            f"Ubar(t={t}) is not strictly increasing (min = {np.min(dU_grid):.3e})"
        )

    # Newton for y(Y): solve Ubar(y) = Y_j, quadratic thanks to Ubar' > 0
    y = Y.copy()
    for _ in range(80):
        res = ubar(y) - Y
        if np.max(np.abs(res)) <= _NEWTON_TOL * max(1.0, grid.Ly):
            break
        y = y - res / ubar(y, 1)
    else:
        raise ShearError("y(Y) Newton inversion did not converge")

    a, b = ubar(y, 1), ubar(y, 2)
    band = _band_tables(grid, a, b, tables[0], tables[1], tables[3])
    return ShearFrame(grid, profile, t, a, b, y, Ubar, False, *tables, band)


# ---------------------------------------------------------------------------
# frame differential operators


def sheared_xi(grid: Grid, t: float) -> np.ndarray:
    """xi - k t on the mode mesh, the symbol of -i d_Y^L at time t."""
    return grid.xi - (grid.k * t)[:, None]


def mode_tables(grid: Grid, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(xi - k t, k^2 + (xi - k t)^2), the latter the symbol of -Delta_L.

    The one formula for the sheared tables: :func:`build_frame` stores them
    for its time, and diagnostics at an arbitrary t call it directly.
    """
    eta = sheared_xi(grid, t)
    return eta, (grid.k**2)[:, None] + eta**2


def frame_diffusion_term(c: np.ndarray, frame: ShearFrame):
    """(a^2 - 1) dYY^L c, the variable-coefficient part of laplace_tilde_t,
    of the coefficient array ``c``; 0.0 (adds as a zero array does) for
    Couette."""
    if frame.is_couette:
        return 0.0
    return multiply_y_profile(frame.grid, c * frame.dyy, frame.a2m1)


def laplace_tilde_t(c: np.ndarray, frame: ShearFrame) -> np.ndarray:
    """Laplacian with the b d_Y^L part stripped: Delta_L + (a^2-1) d_YY^L,
    of the coefficient array ``c``.

    The paper's diffusion operator of the transformed equations, which the
    stepper applies split into its Delta_L part (the integrating factor) and
    :func:`frame_diffusion_term`.  It implements acceptance criterion 2's
    identity laplace_t = laplace_tilde_t + b d_Y^L and stays in the library
    as the unsplit operator that split must add up to.
    """
    out = c * -frame.gl
    if not frame.is_couette:
        out += frame_diffusion_term(c, frame)
    return out


def laplace_t(c: np.ndarray, frame: ShearFrame) -> np.ndarray:
    """Full frame Laplacian d_XX + a^2 d_YY^L + b d_Y^L at the frame's time,
    of the coefficient array ``c`` or of a band block (its rows k <= nx/3
    alone), which gives the band block of the result.

    The two Y-profile products share one mixed-space pass, as in
    :func:`multiply_y_profile` and only on the rows k <= nx/3 that the 2/3
    mask keeps: one inverse partial transform of the pair -eta^2 c, i eta c,
    whose halves are multiplied by a^2 and b on the Y grid, added, and
    transformed forward once.  Above those rows a full array keeps -k^2 c.
    The tables are the frame's :class:`BandTables`.
    """
    if frame.is_couette:
        return c * -frame.gl
    ops, rows = frame.band, frame.grid._kept_rows
    band = len(c) == rows.stop
    kept = c if band else c[rows]
    mixed = np.empty((2,) + kept.shape, dtype=complex)
    np.multiply(ops.dyy, kept, out=mixed[0])
    np.multiply(ops.ieta, kept, out=mixed[1])
    np.fft.ifft(mixed, axis=-1, out=mixed)
    mixed *= ops.prof
    part = np.add(mixed[0], mixed[1], out=mixed[0])
    np.fft.fft(part, axis=-1, out=part)
    part *= ops.mask
    out = c * ops.neg_k2[rows if band else slice(None)]
    out[rows] += part
    return out


# ---------------------------------------------------------------------------
# elliptic inversion


def _frame_part(solve, rows) -> np.ndarray:
    """E psi = omega - Delta_L psi on the rows ``rows`` of an earlier solve
    ``(omega, psi, frame)``."""
    omega, psi, frame = solve
    return omega[rows] + frame.gl[rows] * psi[rows]


def invert_laplace_t(
    omega: np.ndarray,
    frame: ShearFrame,
    tol: float = 1e-10,
    max_iter: int = 50,
    prev: tuple[np.ndarray, np.ndarray, ShearFrame] | None = None,
    older: tuple[np.ndarray, np.ndarray, ShearFrame] | None = None,
) -> np.ndarray:
    """Coefficients of psi solving laplace_t(psi) = omega at the frame's
    time, with zero-mean gauge; ``omega`` is a coefficient array, zero on
    the rows k > nx/3 (dealiased, as every solver array is).

    Fixed-point iteration preconditioned by the diagonal Delta_L inverse:
    psi <- psi + Delta_L^{-1} (omega - laplace_t psi).  Contracts when the
    frame functions are small (a^2-1, b = O(delta)).  psi, the residual and
    the update are band blocks, the rows k <= nx/3, and psi is padded with
    zero rows once, on return.  On the k = 0 row the periodic truncation
    imposes a compatibility condition (the a-weighted Y-mean of the data);
    the incompatible part, an O(delta) artifact of truncation, is projected
    out of the residual along the 2/3-band part of a, the only part of that
    direction laplace_t can produce.  The solve does not report its size;
    ``elliptic_defect`` in ``tests/layout.py`` measures it.  A non-finite
    omega is not iterated on: Delta_L^{-1} omega is returned, as on
    Couette, and the caller's stop test labels the state.

    ``prev = (omega_prev, psi_prev, frame_prev)``, the coefficients and
    frame of an earlier solve on the same shear, sets the first guess.  Its
    frame part E psi_prev = omega_prev - Delta_L(t_prev) psi_prev moves
    little over a stage, so only Delta_L is inverted afresh:
    psi0 = Delta_L(t)^{-1} (omega - E psi_prev), which follows the sheared
    symbol from t_prev to t.  ``older``, a solve of the same form at a time
    before t_prev, extrapolates the frame part linearly in t through the
    two instead.  Without ``prev`` the guess is Delta_L(t)^{-1} omega.
    """
    grid = frame.grid

    if frame.is_couette:
        c = omega * frame.inv_lap
        c[0, 0] = 0.0
        return c

    norm = grid.rms(omega)
    if norm == 0.0:
        return grid.zeros()
    if not math.isfinite(norm):
        return omega * frame.inv_lap

    ops, rows = frame.band, grid._kept_rows
    om = omega[rows]
    rhs = om
    if prev is not None:
        E = _frame_part(prev, rows)
        t2 = prev[2].t
        if older is not None and older[2].t != t2:  # equal: a step too short to tell
            E += (E - _frame_part(older, rows)) * ((frame.t - t2) / (t2 - older[2].t))
        rhs = om - E
    psi = rhs * ops.inv
    psi[0, 0] = 0.0

    res_prev = None
    for _ in range(max_iter):
        r = laplace_t(psi, frame)
        np.subtract(om, r, out=r)
        r[0] -= (r[0] @ ops.w_minus) * ops.a_hat  # the k = 0 projection
        res = grid.rms(r)
        if res <= tol * norm:
            out = grid.zeros()
            out[rows] = psi
            return out
        r *= ops.inv
        r += psi
        psi = r
        ratio = res / res_prev if res_prev else None
        res_prev = res
    raise EllipticError(
        f"no convergence in {max_iter} iterations: residual {res:.3e} vs "
        f"target {tol * norm:.3e}, last contraction ratio "
        f"{ratio if ratio is not None else float('nan'):.3f} "
        "(delta likely too large for the fixed-point regime)"
    )


def velocity_from_psi(psi: np.ndarray, frame: ShearFrame, *, out=None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Perpendicular frame gradient of the streamfunction at the frame's time,
    as the coefficient arrays (u^X, u^Y) of psi's.

    u^X = -a (d_Y - t d_X) psi, u^Y = d_X psi; the X-average of u^Y is zero
    by construction.

    With ``out``, a pair of arrays of psi's shape that are zero on the rows
    k > nx/3 (two arrays of a :meth:`~bqlab.grid.Grid.workspace`), only the
    rows k <= nx/3 are computed, into ``out``, which is returned; psi must
    be zero outside the 2/3 mask, as the solver's is.
    """
    if out is None:
        rows, out = slice(None), (np.empty_like(psi), np.empty_like(psi))
    else:
        rows = frame.grid._kept_rows
    ux, c = out[0][rows], psi[rows]
    np.multiply(c, frame.ieta[rows], out=ux)
    if frame.is_couette:
        np.negative(ux, out=ux)
    else:
        np.multiply(multiply_y_profile(frame.grid, out[0], frame.a)[rows], -1.0, out=ux)
    np.multiply(c, frame.grid.ik[rows], out=out[1][rows])
    return out


# ---------------------------------------------------------------------------
# frame <-> physical resampling


def eval_frame_on_physical_grid(c: np.ndarray, frame: ShearFrame) -> np.ndarray:
    """Point values on the physical (x, y) grid at the frame's time of the
    frame-coordinates field with coefficient array ``c``.

    Evaluates the Fourier series at (X, Y) = (x - t*Ubar(y), Ubar(y)); the
    Y-series of true coefficients is summed directly at the mapped
    ordinates, the uniform X-shift per row becomes a phase, and one real
    inverse transform along X sums the rows.
    """
    grid = frame.grid
    Ys = frame.Y_of_y
    E = np.exp(1j * np.outer(grid.xi, Ys))
    h = (c * grid._phase_y) @ E
    H = h * np.exp(-1j * frame.t * np.outer(grid.k, Ys))
    return np.fft.irfft(H, n=grid.nx, axis=0, norm="forward")
