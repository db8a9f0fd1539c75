"""Low-order cross-check solver in untransformed (x, y) coordinates.

Deliberately plain: second-order centered differences, midpoint RK2, a
Poisson solve that is spectral in x and a centred second difference in y,
homogeneous Dirichlet walls for the streamfunction and vorticity at
y = +-Ly.  It validates the moving-frame solver on short horizons; it is
not built for speed or long runs.  Fields here are real point values,
periodic in x, pinned to zero at the y walls, so data must be supported
well inside the strip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import Params, SimState
from .grid import Grid
from .shear import ShearProfile, eval_frame_on_physical_grid, heat_evolve_shear


class FdStabilityError(RuntimeError):
    """Step size violates the explicit scheme's stability limit."""


@dataclass
class FdState:
    t: float
    omega: np.ndarray
    theta: np.ndarray


def _dx(f: np.ndarray, hx: float) -> np.ndarray:
    return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * hx)


def _dxx(f: np.ndarray, hx: float) -> np.ndarray:
    return (np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)) / hx**2


def _shift_y(f: np.ndarray, n: int) -> np.ndarray:
    """Shift along y with zero extension beyond the walls."""
    out = np.zeros_like(f)
    if n > 0:
        out[:, n:] = f[:, :-n]
    else:
        out[:, :n] = f[:, -n:]
    return out


def _dy(f: np.ndarray, hy: float) -> np.ndarray:
    return (_shift_y(f, -1) - _shift_y(f, 1)) / (2.0 * hy)


def _dyy(f: np.ndarray, hy: float) -> np.ndarray:
    return (_shift_y(f, -1) - 2.0 * f + _shift_y(f, 1)) / hy**2


def _pin_walls(f: np.ndarray) -> np.ndarray:
    f[:, 0] = 0.0
    return f


def _dst1(f: np.ndarray) -> np.ndarray:
    """DST-I along y, sum_j f[:, j-1] sin(pi j m/n) for m = 1..n-1, where
    n - 1 = f.shape[1]: one rfft of the odd extension.  Applied twice it
    multiplies by n/2."""
    rows, n = f.shape[0], f.shape[1] + 1
    ext = np.zeros((rows, 2 * n))
    ext[:, 1:n] = f
    ext[:, n + 1:] = -f[:, ::-1]
    return -0.5 * np.fft.rfft(ext, axis=1)[:, 1:n].imag


def poisson_fd(omega: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve lap psi = omega, periodic in x, psi = 0 at y = -Ly and +Ly.

    The operator is -k^2 along x and the centred second difference over the
    interior y nodes 1..ny-1 (node 0 and the ghost at +Ly are walls).  Sines
    diagonalise the latter, with eigenvalues lam_m = (2 cos(pi m/ny) - 2)/hy^2,
    so the solve is a DST-I in y and an rfft in x, a division by
    lam_m - k^2, and the two inverses (Hockney, J. ACM 12, 1965).
    """
    nx, ny = omega.shape
    hy = 2.0 * grid.Ly / ny
    lam = (2.0 * np.cos(np.pi * np.arange(1, ny) / ny) - 2.0) / hy**2
    ksq = np.fft.rfftfreq(nx, d=1.0 / nx)[:, None] ** 2
    coef = np.fft.rfft(_dst1(omega[:, 1:]), axis=0) / (lam - ksq)
    psi = np.zeros_like(omega)
    psi[:, 1:] = (2.0 / ny) * _dst1(np.fft.irfft(coef, n=nx, axis=0))
    return psi


def fd_velocity(psi: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    hx = 2.0 * np.pi / grid.nx
    hy = 2.0 * grid.Ly / grid.ny
    return -_dy(psi, hy), _dx(psi, hx)


def _shear_rows(profile: ShearProfile | None, nu: float, t: float, grid: Grid):
    """(Ubar, Ubar'') rows at time t; zeros when no background is given."""
    if profile is None:
        z = np.zeros(grid.ny)
        return z, z
    ubar = heat_evolve_shear(profile, nu, t)
    return ubar(grid.Y), ubar(grid.Y, 2)


def _fd_rhs(omega, theta, t, params: Params, profile, grid: Grid):
    hx = 2.0 * np.pi / grid.nx
    hy = 2.0 * grid.Ly / grid.ny
    ub, upp = _shear_rows(profile, params.nu, t, grid)

    psi = poisson_fd(omega, grid)
    ux, uy = fd_velocity(psi, grid)

    dom = (-ub[None, :] * _dx(omega, hx)
           + upp[None, :] * _dx(psi, hx)
           + params.nu * (_dxx(omega, hx) + _dyy(omega, hy))
           + _dx(theta, hx))
    dth = (-ub[None, :] * _dx(theta, hx)
           - params.alpha * uy
           + params.mu * (_dxx(theta, hx) + _dyy(theta, hy)))
    dom -= ux * _dx(omega, hx) + uy * _dy(omega, hy)
    dth -= ux * _dx(theta, hx) + uy * _dy(theta, hy)
    return dom, dth, ux, uy, ub


def fd_stability_limit(ux, uy, ub, params: Params, grid: Grid) -> float:
    """Largest dt the explicit scheme tolerates for the velocity (ux, uy)
    over the shear row ub, as :func:`_fd_rhs` returns them."""
    hx = 2.0 * np.pi / grid.nx
    hy = 2.0 * grid.Ly / grid.ny
    dcoef = max(params.nu, params.mu)
    limits = [1.0 / (2.0 * dcoef * (1.0 / hx**2 + 1.0 / hy**2))] if dcoef > 0 else []

    vx = float(np.max(np.abs(ub[None, :] + ux)))
    vy = float(np.max(np.abs(uy)))
    if vx > 0:
        limits.append(0.5 * hx / vx)
    if vy > 0:
        limits.append(0.5 * hy / vy)
    return min(limits) if limits else np.inf


def fd_first_stage(state: FdState, params: Params, profile, grid: Grid, dt: float):
    """Tendencies (omega, theta) of the first stage of :func:`fd_step` from
    ``state``; raises FdStabilityError if dt breaks the stability limit of
    that stage's velocity."""
    k1o, k1t, ux, uy, ub = _fd_rhs(state.omega, state.theta, state.t, params, profile, grid)
    limit = fd_stability_limit(ux, uy, ub, params, grid)
    if dt > limit:
        raise FdStabilityError(f"dt = {dt:.3e} above the explicit limit {limit:.3e}")
    return k1o, k1t


def fd_step(state: FdState, params: Params, profile, grid: Grid,
            dt: float | None = None) -> FdState:
    """One midpoint-RK2 step; raises if dt breaks the stability limit of
    the velocity of its first stage."""
    if dt is None:
        dt = params.dt
    k1o, k1t = fd_first_stage(state, params, profile, grid, dt)
    om_h = _pin_walls(state.omega + 0.5 * dt * k1o)
    th_h = _pin_walls(state.theta + 0.5 * dt * k1t)
    k2o, k2t, *_ = _fd_rhs(om_h, th_h, state.t + 0.5 * dt, params, profile, grid)
    om = _pin_walls(state.omega + dt * k2o)
    th = _pin_walls(state.theta + dt * k2t)
    return FdState(state.t + dt, om, th)


def fd_run(state: FdState, params: Params, profile, grid: Grid, t_end: float,
           dt: float | None = None) -> FdState:
    if dt is None:
        dt = params.dt
    while state.t < t_end - 1e-12:
        state = fd_step(state, params, profile, grid, min(dt, t_end - state.t))
    return state


def make_fd_initial(state: SimState) -> FdState:
    """Sample the frame solver's initial fields on the physical grid."""
    om = eval_frame_on_physical_grid(state.omega.coeffs, state.frame)
    th = eval_frame_on_physical_grid(state.theta.coeffs, state.frame)
    return FdState(state.t, _pin_walls(om), _pin_walls(th))


def compare_runs(frame_state: SimState, fd_state: FdState) -> float:
    """Relative L2 difference of the vorticity fields in physical coordinates."""
    if abs(frame_state.t - fd_state.t) > 1e-9 * max(1.0, abs(fd_state.t)):
        raise ValueError(f"time mismatch: frame t={frame_state.t}, oracle t={fd_state.t}")
    if fd_state.omega.shape != (frame_state.grid.nx, frame_state.grid.ny):
        raise ValueError("grid shape mismatch between solvers")
    w = eval_frame_on_physical_grid(frame_state.omega.coeffs, frame_state.frame)
    denom = np.linalg.norm(fd_state.omega)
    if denom == 0.0:
        return float(np.linalg.norm(w))
    return float(np.linalg.norm(w - fd_state.omega) / denom)
