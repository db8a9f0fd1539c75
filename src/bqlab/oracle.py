"""Low-order cross-check solver in untransformed (x, y) coordinates.

Deliberately plain: second-order centered differences, midpoint RK2, an
FFT-in-x/tridiagonal-in-y Poisson solve, homogeneous Dirichlet walls for the
streamfunction and vorticity at y = +-Ly.  It validates the moving-frame
solver on short horizons; it is not built for speed or long runs.  Fields
here are real point values, periodic in x, pinned to zero at the y walls,
so data must be supported well inside the strip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import Params, SimState
from .grid import Grid, ifft_y
from .shear import ShearProfile, eval_frame_on_physical_grid, heat_evolve_shear, heat_modes


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


def poisson_fd(omega: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve lap psi = omega, periodic in x, psi = 0 at y = -Ly and +Ly.

    FFT along x, then one tridiagonal solve per distinct k^2 over the
    interior y nodes (the +Ly wall is a ghost layer of zeros).  scipy is
    imported here, so that ``import bqlab`` loads numpy only.
    """
    from scipy.linalg import solve_banded

    nx, ny = omega.shape
    hy = 2.0 * grid.Ly / ny
    kx = np.fft.fftfreq(nx, d=1.0 / nx)
    rhs = np.fft.fft(omega, axis=0)

    psi_hat = np.zeros_like(rhs)
    n_int = ny - 1  # nodes 1 .. ny-1; node 0 and the ghost at +Ly are walls
    diag_base = -2.0 / hy**2
    off = 1.0 / hy**2
    ksq_vals, inverse = np.unique(kx**2, return_inverse=True)
    for idx, ksq in enumerate(ksq_vals):
        cols = np.nonzero(inverse == idx)[0]
        ab = np.zeros((3, n_int))
        ab[0, 1:] = off
        ab[1, :] = diag_base - ksq
        ab[2, :-1] = off
        B = rhs[cols, 1:].T  # (n_int, len(cols))
        sol = solve_banded((1, 1), ab, B)
        psi_hat[cols, 1:] = sol.T
    psi = np.real(np.fft.ifft(psi_hat, axis=0))
    psi[:, 0] = 0.0
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
    upp = np.real(ifft_y(-(grid.xi**2) * heat_modes(profile, nu, t)))
    return heat_evolve_shear(profile, nu, t), upp


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
    if not params.linearized:
        dom -= ux * _dx(omega, hx) + uy * _dy(omega, hy)
        dth -= ux * _dx(theta, hx) + uy * _dy(theta, hy)
    return dom, dth, ux, uy, ub


def fd_stability_limit(state: FdState, params: Params, profile, grid: Grid) -> float:
    """Largest dt the explicit scheme tolerates for this state."""
    hx = 2.0 * np.pi / grid.nx
    hy = 2.0 * grid.Ly / grid.ny
    dcoef = max(params.nu, params.mu)
    limits = [1.0 / (2.0 * dcoef * (1.0 / hx**2 + 1.0 / hy**2))] if dcoef > 0 else []

    psi = poisson_fd(state.omega, grid)
    ux, uy = fd_velocity(psi, grid)
    ub, _ = _shear_rows(profile, params.nu, state.t, grid)
    vx = float(np.max(np.abs(ub[None, :] + ux)))
    vy = float(np.max(np.abs(uy)))
    if vx > 0:
        limits.append(0.5 * hx / vx)
    if vy > 0:
        limits.append(0.5 * hy / vy)
    return min(limits) if limits else np.inf


def fd_step(state: FdState, params: Params, profile, grid: Grid,
            dt: float | None = None) -> FdState:
    """One midpoint-RK2 step; raises if dt breaks the stability limit."""
    if dt is None:
        dt = params.dt
    limit = fd_stability_limit(state, params, profile, grid)
    if dt > limit:
        raise FdStabilityError(f"dt = {dt:.3e} above the explicit limit {limit:.3e}")

    k1o, k1t, *_ = _fd_rhs(state.omega, state.theta, state.t, params, profile, grid)
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
    om = eval_frame_on_physical_grid(state.omega, state.frame)
    th = eval_frame_on_physical_grid(state.theta, state.frame)
    return FdState(state.t, _pin_walls(om), _pin_walls(th))


def compare_runs(frame_state: SimState, fd_state: FdState) -> float:
    """Relative L2 difference of the vorticity fields in physical coordinates."""
    if abs(frame_state.t - fd_state.t) > 1e-9 * max(1.0, abs(fd_state.t)):
        raise ValueError(f"time mismatch: frame t={frame_state.t}, oracle t={fd_state.t}")
    if fd_state.omega.shape != (frame_state.grid.nx, frame_state.grid.ny):
        raise ValueError("grid shape mismatch between solvers")
    w = eval_frame_on_physical_grid(frame_state.omega, frame_state.frame)
    denom = np.linalg.norm(fd_state.omega)
    if denom == 0.0:
        return float(np.linalg.norm(w))
    return float(np.linalg.norm(w - fd_state.omega) / denom)
