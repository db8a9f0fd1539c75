"""Time integration of the transformed vorticity/temperature system.

The evolution in frame coordinates is

    d_t omega + u . grad_t omega = b dX psi + nu * lapl_tilde omega + dX theta
    d_t theta + u . grad_t theta = mu * lapl_tilde theta
                                   + (mu - nu) b dYL theta - alpha u^Y
    omega = laplace_t psi,   u = (-a dYL psi, dX psi)

Splitting: the diagonal Delta_L part of the diffusion has a closed-form
integrating factor (its symbol -(k^2 + (xi - k t)^2) integrates exactly in
t), so it is removed from the stiff explicit balance; everything else --
advection, the O(delta) frame corrections, lift, buoyancy -- is advanced by
Kutta's third-order Runge-Kutta scheme (stage times 0, dt/2, dt; weights
1/6, 2/3, 1/6) on the integrating-factor-transformed variables.  Its third
stage carries -dt n1, so the scheme is not strong-stability-preserving
(SSP).  Zero perturbation is a bitwise fixed point.  On Couette, a vorticity
of one phase k X + xi Y (Kelvin's sheared wave) has u . grad_t omega = 0 at
every point, so with alpha = 0 and theta = 0 it is integrated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    dealias,
    field_from_physical,
    l2_norm,
    multiply_y_profile,
    sobolev_norm,
    to_physical,
)
from .shear import (
    ShearFrame,
    ShearProfile,
    build_frame,
    frame_diffusion_term,
    invert_laplace_t,
    sheared_xi,
    velocity_from_psi,
)

# fraction of the advective CFL limit a step may use
_CFL_SAFETY = 0.4

# the blow-up guard: a run stops once its H^N vorticity norm passes this
# factor times the size of its data
_GUARD_FACTOR = 1e3


class CflError(RuntimeError):
    """Step size violates an explicit stability constraint."""


@dataclass
class Params:
    """Physical and numerical parameters of one run."""

    nu: float
    mu: float
    alpha: float
    T_end: float
    dt: float
    N: float = 5.0
    check_divergence: bool = False
    stop_factor: float | None = None

    def __post_init__(self):
        # every comparison with NaN is False: a NaN would pass the sign
        # checks below, and a NaN T_end never ends a run
        for name in ("nu", "mu", "alpha", "T_end", "dt", "N"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # nu = 0 is allowed for inviscid conservation checks
        if self.nu < 0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if self.mu < 0 or self.alpha < 0:
            raise ValueError("mu and alpha must be nonnegative")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.T_end < 0:
            raise ValueError(f"T_end must be nonnegative, got {self.T_end}")
        if self.N < 0:
            raise ValueError(f"N must be nonnegative, got {self.N}")
        if self.stop_factor is not None and not self.stop_factor > 0:
            raise ValueError(f"stop_factor must be positive, got {self.stop_factor}")

    def theorem1_regime(self) -> bool:
        """Small-alpha regime: nu, mu in (0,1) with nu comparable to mu."""
        return 0 < self.nu < 1 and 0 < self.mu < 1 and self.nu <= 2.0 * self.mu

    def theorem2_regime(self) -> bool:
        """Fixed-alpha regime: strong heat diffusion, alpha > 0."""
        return self.mu >= 2.0 and self.alpha > 0 and 0 < self.nu < 1


@dataclass
class SimState:
    """Solver state at one time: (omega, theta) plus the derived psi; the
    time is the frame's.  The velocity is not stored: each stage's
    :func:`advection_term` makes it from psi."""

    omega: SpectralField
    theta: SpectralField
    psi: SpectralField
    frame: ShearFrame

    @property
    def t(self) -> float:
        return self.frame.t

    @property
    def grid(self) -> Grid:
        return self.omega.grid


def make_state(
    omega: SpectralField,
    theta: SpectralField,
    profile: ShearProfile,
    params: Params,
    t: float = 0.0,
) -> SimState:
    """Assemble a consistent state: build the frame, solve for psi."""
    omega = dealias(omega)
    theta = dealias(theta)
    frame = build_frame(profile, params.nu, t)
    psi = SpectralField(omega.grid, invert_laplace_t(omega.coeffs, frame))
    return SimState(omega, theta, psi, frame)


# ---------------------------------------------------------------------------
# right-hand side


def advection_term(arrays, state: SimState, vel=None):
    """u . grad_t f = u^X dX f + u^Y a dYL f, dealiased, for each coefficient
    array f of the sequence ``arrays``, in their order, and the velocity u of
    ``state`` as point values (u^X, u^Y) on the frame grid: the pair
    ``(terms, u)``.  ``vel`` is the state's velocity as the coefficient pair
    that :func:`bqlab.shear.velocity_from_psi` returns; when not given it is
    made here, in place in the workspace.  Every array and the velocity
    must be zero outside the 2/3 mask, as the solver's are.

    One transform pass at every grid size: the rows k <= nx/3 of the
    velocity pair and of the gradients dX f, dYL f of all the arrays are
    written into the grid's :meth:`~bqlab.grid.Grid.workspace`, one inverse
    call turns the stack into point values in its real buffer, the products
    are formed there in place, and one forward call brings them back,
    dealiased.  Each field of the stack is bitwise equal to its own general
    transform.  The terms are new arrays; u is a view into the workspace,
    valid only until the next pass on that grid.
    """
    grid, frame = state.grid, state.frame
    rows, n = grid._kept_rows, len(arrays)
    spec, phys = grid.workspace(2 + 2 * n)
    if vel is None:
        velocity_from_psi(state.psi.coeffs, frame, out=spec[:2])
    else:
        spec[0, rows], spec[1, rows] = vel[0][rows], vel[1][rows]
    for j, c in enumerate(arrays, 2):
        np.multiply(c[rows], grid.ik[rows], out=spec[j, rows])
        np.multiply(c[rows], frame.ieta[rows], out=spec[j + n, rows])
    vals = to_physical(SpectralField(grid, spec), out=phys)
    u = (vals[0], vals[1])
    fx, fy = vals[2:2 + n], vals[2 + n:]  # dX f and dYL f; products in place
    fx *= u[0]
    if not frame.is_couette:
        fy *= frame.a
    fy *= u[1]
    fx += fy
    return field_from_physical(grid, fx, dealias=True).coeffs, u


def lift_term(psi: np.ndarray, frame: ShearFrame):
    """b dX psi, the shear-curvature source in the vorticity equation, of the
    coefficient array ``psi``; 0.0 (adds as a zero array does) for Couette."""
    if frame.is_couette:
        return 0.0
    return multiply_y_profile(frame.grid, psi * frame.grid.ik, frame.b)


def b_dYL_term(c: np.ndarray, frame: ShearFrame):
    """b dYL c of the coefficient array ``c``, the coupling active when
    mu != nu; 0.0 for Couette."""
    if frame.is_couette:
        return 0.0
    return multiply_y_profile(frame.grid, c * frame.ieta, frame.b)


def rhs_explicit(state: SimState, params: Params) -> tuple:
    """Explicitly-treated tendencies (everything except the Delta_L diffusion)
    as the coefficient arrays (d_omega, d_theta), summed in place (d_th may
    start as the zero 0.0), and the velocity of ``state`` that
    :func:`advection_term` made on the way: the pair ``((d_om, d_th), u)``.
    u is a view into the grid's workspace, valid until the next pass on the
    grid.

    Every term but the source -alpha u^Y is linear in theta, so while theta
    has no nonzero coefficient (the Navier-Stokes subcase alpha = 0,
    theta_0 = 0) they are exactly zero and are skipped; a NaN counts as
    nonzero.
    """
    frame = state.frame
    om, th, ik = state.omega.coeffs, state.theta.coeffs, state.grid.ik
    live = th.any()
    # the pass runs before the tendency arrays are made: after them, a
    # 20-step 256^2 inviscid run took 15.5k minor page faults, not 13.0k
    adv, u = advection_term((om, th) if live else (om,), state)
    d_om = th * ik if live else np.zeros_like(om)
    d_om += lift_term(state.psi.coeffs, frame)
    d_th = state.psi.coeffs * ik * (-params.alpha) if params.alpha != 0 else 0.0
    d_om -= adv[0]
    if live:
        d_th = np.subtract(d_th, adv[1], out=adv[1])
    if not frame.is_couette:
        d_om += np.multiply(frame_diffusion_term(om, frame), params.nu)
        if live:
            fd = np.multiply(frame_diffusion_term(th, frame), params.mu)
            d_th = np.add(d_th, fd, out=fd)
            if params.mu != params.nu:
                d_th += np.multiply(b_dYL_term(th, frame), params.mu - params.nu)
    if np.ndim(d_th) == 0:
        d_th = np.zeros_like(d_om)
    return (d_om, d_th), u


# ---------------------------------------------------------------------------
# diagonal diffusion with exact integrating factor


def diffusion_integral(grid: Grid, t0: float, t1: float) -> np.ndarray:
    """Integral of k^2 + (xi - k s)^2 over s in [t0, t1], per mode.

    Expanded about the midpoint the quadratic integrates exactly to
    dt (k^2 (1 + dt^2/12) + (xi - k t_m)^2): no k = 0 branch, and no
    difference of cubes cancelling far from the critical layer.
    """
    dt = t1 - t0
    eta_m = sheared_xi(grid, 0.5 * (t0 + t1))
    return dt * ((grid.k**2)[:, None] * (1.0 + dt * dt / 12.0) + eta_m**2)


# ---------------------------------------------------------------------------
# stepping


def cfl_limit(state: SimState, params: Params, u) -> float:
    """Largest stable dt for the explicit terms of this state; ``u`` is its
    velocity as point values, as :func:`advection_term` returns it."""
    grid = state.grid
    t = state.t
    hx = 2.0 * np.pi / grid.nx
    hy = 2.0 * grid.Ly / grid.ny

    limits = [math.inf]
    a_row = state.frame.a[None, :] if not state.frame.is_couette else 1.0
    auy = np.abs(a_row * u[1])
    speed_x = float(np.max(np.abs(u[0]) + t * auy))
    speed_y = float(np.max(auy))
    if speed_x > 0:
        limits.append(_CFL_SAFETY * hx / speed_x)
    if speed_y > 0:
        limits.append(_CFL_SAFETY * hy / speed_y)

    if not state.frame.is_couette:
        # explicit frame corrections: (a^2-1) second order, b first order
        mask = grid.dealias_mask
        sym_max = -float(np.min(state.frame.dyy[mask])) if np.any(mask) else 0.0
        c2 = max(params.nu, params.mu) * float(np.max(np.abs(state.frame.a2m1)))
        if c2 * sym_max > 0:
            limits.append(1.8 / (c2 * sym_max))
        c1 = abs(params.mu - params.nu) * float(np.max(np.abs(state.frame.b)))
        if c1 > 0 and sym_max > 0:
            limits.append(math.sqrt(3.0) / (c1 * math.sqrt(sym_max)))
    return min(limits)


# The propagator triple of a zero diffusion coefficient; the stage sums
# skip its factors.
_NO_DECAY = (1.0, 1.0, 1.0)


def _propagators(grid: Grid, coeffs, t: float, dt: float) -> tuple:
    """Decay factors over [t, t+dt], [t, t+dt/2] and [t+dt/2, t+dt], one
    triple per diffusion coefficient.

    The mode integrals do not depend on the coefficient: they are computed
    once, and not at all when every coefficient is zero.  Equal
    coefficients share one triple; a zero coefficient gets ``_NO_DECAY``.
    """
    triples = {0.0: _NO_DECAY}
    nonzero = set(coeffs) - {0.0}
    if nonzero:
        I_full = diffusion_integral(grid, t, t + dt)
        I_h1 = diffusion_integral(grid, t, t + 0.5 * dt)
        I_h2 = I_full - I_h1
        for c in nonzero:
            triples[c] = (np.exp(-c * I_full), np.exp(-c * I_h1), np.exp(-c * I_h2))
    return tuple(triples[c] for c in coeffs)


def step(state: SimState, params: Params, dt: float | None = None) -> SimState:
    """One step of Kutta's third-order scheme with exact integrating-factor
    diffusion.

    Stage times increase (0, dt/2, dt), so every diffusion propagator
    applied is a decay: with strong heat diffusion the shear-frame symbol
    (xi - k t)^2 grows without bound and any backward (amplifying) stage
    factor would exponentially inflate the nonlinear tail.

    Each stage's transform pass returns the velocity as a view into the
    grid's workspace, which the next pass overwrites; only the first
    stage's CFL check reads it.
    """
    if dt is None:
        dt = params.dt
    t = state.t
    grid = state.grid
    # a rejected dt raises before any new state is built
    n1, vel = rhs_explicit(state, params)
    limit = cfl_limit(state, params, vel)
    if dt > limit:
        raise CflError(f"dt = {dt:.3e} exceeds the stability limit; "
                       f"suggested dt <= {limit:.3e}")

    props = _propagators(grid, (params.nu, params.mu), t, dt)
    profile = state.frame.profile
    c0 = (state.omega.coeffs, state.theta.coeffs)

    def _stage(om_c, th_c, frame, prev):
        # prev: the stage before, whose solve gives the first guess
        psi = invert_laplace_t(om_c, frame, prev=(prev.omega.coeffs, prev.psi.coeffs, prev.frame))
        return SimState(*(SpectralField(grid, c) for c in (om_c, th_c, psi)), frame)

    # each stage state or tendency is dropped once nothing reads it
    u2 = [_rk3_u2(c, n, E, dt) for c, n, E in zip(c0, n1, props)]
    s = _stage(*u2, build_frame(profile, params.nu, t + 0.5 * dt), state)
    n2, _ = rhs_explicit(s, params)
    u3 = [_rk3_u3(c, n, m, E, dt) for c, n, m, E in zip(c0, n1, n2, props)]
    del n2
    s = _stage(*u3, build_frame(profile, params.nu, t + dt), s)
    n3, _ = rhs_explicit(s, params)
    new = [_rk3_final(c, n, m, E, dt) for c, n, m, E in zip(c0, n1, n3, props)]
    del n1, n3
    return _stage(*new, s.frame, s)


# Kutta's third-order stage sums (not SSP: u3 carries -dt n1) of one field,
# propagators E = (Ef, Eh1, Eh2), in place and in the operation order of the
# formulas.  With E = _NO_DECAY no factor is applied: a product with 1.0
# changes nothing but the sign of a zero.

def _rk3_u2(c, n1, E, dt):
    """Eh1 (c + dt/2 n1)."""
    x = np.multiply(0.5 * dt, n1)
    x += c
    return x if E is _NO_DECAY else np.multiply(E[1], x, out=x)


def _rk3_u3(c, n1, n2, E, dt):
    """Ef (c - dt n1) + 2 dt Eh2 n2; n1 becomes Ef n1 + 4 Eh2 n2."""
    Ef, _, Eh2 = E
    x = np.multiply(dt, n1)
    x = np.subtract(c, x, out=x)
    if E is not _NO_DECAY:
        np.multiply(Ef, x, out=x)
        np.multiply(Ef, n1, out=n1)
    x += 2.0 * dt * Eh2 * n2
    n1 += np.multiply(4.0 * Eh2, n2, out=n2)
    return x


def _rk3_final(c, acc, n3, E, dt):
    """Ef c + dt/6 (acc + n3), acc as left by :func:`_rk3_u3`."""
    acc += n3
    if E is _NO_DECAY:
        x = np.multiply(dt / 6.0, acc, out=acc)
        x += c
        return x
    x = E[0] * c
    x += np.multiply(dt / 6.0, acc, out=acc)
    return x


def divergence_residual(state: SimState) -> float:
    """|grad_t . u| relative to |omega|; zero to roundoff by construction."""
    grid, frame = state.grid, state.frame
    ux, uy = velocity_from_psi(state.psi.coeffs, frame)
    dyl = uy * frame.ieta
    if not frame.is_couette:
        dyl = multiply_y_profile(grid, dyl, frame.a)
    scale = max(l2_norm(state.omega), 1e-300)
    return grid.rms(ux * grid.ik + dyl) / scale


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Observer samples plus run metadata, the unit consumed by diagnostics."""

    times: np.ndarray
    columns: dict
    stop_reason: str
    n_steps: int
    final_state: SimState
    snapshots: list
    max_divergence: float
    sup_hN_omega: float     # the largest H^N vorticity norm of any step (NaN if one was)
    t_sup_hN_omega: float   # the time of the first step that reached it

    @property
    def label(self) -> str:
        return "stable" if self.stop_reason == "T_end" else "unstable"


def run(
    initial: SimState,
    params: Params,
    observer=None,
    stride: int = 10,
    snapshot_stride: int = 0,
) -> Trajectory:
    """Step until T_end or a stop; sample the observer on a stride.

    ``stop_reason`` says why the run ended: ``"T_end"`` (label "stable"),
    or one of ``"guard"`` (the H^N vorticity norm passed the blow-up
    guard), ``"bootstrap"`` (the H^N vorticity norm passed
    ``params.stop_factor`` times its initial size) and ``"non_finite"``
    (omega or theta stopped being finite), each labelled "unstable" -- a
    valid outcome, not an error.  Every stop test runs on every step, the
    initial state included, so the verdict, like ``sup_hN_omega``, does not
    depend on ``stride``.
    """
    records: list[dict] = []
    snaps: list[tuple] = []

    def _sample(state):
        row = {"t": state.t}
        if observer is not None:
            row.update(observer(state, params))
        records.append(row)

    state = initial
    eps1 = sobolev_norm(state.omega, params.N)
    eps2 = sobolev_norm(state.theta, params.N)
    # buoyancy can seed omega from theta-only data, so the guard scales
    # with whichever field carries the perturbation
    guard_level = _GUARD_FACTOR * max(eps1, eps2, 1e-300)
    stop_level = (math.inf if params.stop_factor is None
                  else params.stop_factor * max(eps1, 1e-300))
    sup_hN, t_sup = -math.inf, state.t

    def _stop_reason(state, done):
        nonlocal sup_hN, t_sup
        hN = sobolev_norm(state.omega, params.N)
        if not hN <= sup_hN:  # a NaN becomes the sup
            sup_hN, t_sup = hN, state.t
        if not (math.isfinite(hN) and math.isfinite(sobolev_norm(state.theta, params.N))):
            return "non_finite"
        if hN > guard_level:
            return "guard"
        if hN > stop_level:
            return "bootstrap"
        return "T_end" if done else None

    t_final = params.T_end
    reason = _stop_reason(state, state.t >= t_final - 1e-12)
    _sample(state)
    if snapshot_stride:
        snaps.append((state.t, state.omega.copy(), state.theta.copy()))

    n_steps = 0
    max_div = divergence_residual(state) if params.check_divergence else 0.0
    while reason is None:
        dt = min(params.dt, t_final - state.t)
        state = step(state, params, dt)
        n_steps += 1
        if params.check_divergence:
            max_div = max(max_div, divergence_residual(state))
        reason = _stop_reason(state, state.t >= t_final - 1e-12)
        if reason or n_steps % stride == 0:
            _sample(state)
        if snapshot_stride and (reason or n_steps % snapshot_stride == 0):
            snaps.append((state.t, state.omega.copy(), state.theta.copy()))

    times = np.array([r["t"] for r in records])
    keys = [k for k in records[0] if k != "t"]
    columns = {k: np.array([r[k] for r in records]) for k in keys}
    return Trajectory(times, columns, reason, n_steps, state, snaps, max_div,
                      sup_hN, t_sup)
