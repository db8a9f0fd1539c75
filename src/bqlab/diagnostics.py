"""Weighted energy functionals, term-by-term budgets and regime monitors.

Everything here is a pure function of trajectory samples or of a single
state.  The central objects are the weighted energies

    E_omega(T) = sup_t ||A omega||^2 + nu * int ||grad_L A omega||^2
                 + int ||sqrt(-Mdot M) <D>^N omega||^2

(and the analogue for theta with mu), the instantaneous budget pairings of
each tendency term against A-weighted fields, and verdicts that compare the
measured ratios against the bootstrap constant of the stability estimates
(default 8).  Monitors never assert; they report ratios and a pass flag so
sweeps can study the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import (
    Params,
    SimState,
    Trajectory,
    advection_term,
    b_dYL_term,
    lift_term,
    step,
)
from .grid import (
    SpectralField,
    fft_y,
    ifft_y,
    field_from_physical,
    sobolev_norm,
    to_physical,
)
from .multiplier import MultiplierTable
from .shear import frame_diffusion_term, mode_tables, velocity_from_psi


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(y) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


# ---------------------------------------------------------------------------
# observer


def standard_observer(table: MultiplierTable, budgets: bool = False):
    """Observer recording every norm column the reports need and, with
    ``budgets``, the ``bud_*`` columns :func:`budget_residuals` needs.

    The norm columns are weighted sums over coefficients (no transforms), so
    sampling is cheap enough for small strides.  The row weight of the
    stored half spectrum is folded into the squared moduli once, and the
    multiplier weights are built once per sample.
    """

    def observe(state: SimState, params: Params) -> dict:
        grid = state.grid
        t = state.t
        A = table.A_weights(grid, t)
        W = table.dissipation_weights(grid, t)
        gl = state.frame.gl
        sobN = grid.sobolev_weights(params.N)

        om2 = grid.row_weight * np.abs(state.omega.coeffs) ** 2
        th2 = grid.row_weight * np.abs(state.theta.coeffs) ** 2

        vel = velocity_from_psi(state.psi.coeffs, state.frame)
        u0 = vel[0][0]  # the k = 0 row of u^X, its own mirror
        row = {
            "l2_omega": math.sqrt(float(np.sum(om2))),
            "l2_omega_nonzero": math.sqrt(float(np.sum(om2[1:]))),
            # the same float run() compares against its guard and stop levels
            "hN_omega": sobolev_norm(state.omega, params.N),
            "hN_omega_nonzero": math.sqrt(float(np.sum(sobN[1:]**2 * om2[1:]))),
            "hN_theta": sobolev_norm(state.theta, params.N),
            "hN_theta_nonzero": math.sqrt(float(np.sum(sobN[1:]**2 * th2[1:]))),
            "A_omega_sq": float(np.sum(A**2 * om2)),
            "A_theta_sq": float(np.sum(A**2 * th2)),
            "gradL_A_omega_sq": float(np.sum(gl * A**2 * om2)),
            "gradL_A_theta_sq": float(np.sum(gl * A**2 * th2)),
            "decay_omega_sq": float(np.sum(W**2 * om2)),
            "decay_theta_sq": float(np.sum(W**2 * th2)),
            "lapL_A_theta_sq": float(np.sum(gl**2 * A**2 * th2)),
            "sqrtlapL_decay_theta_sq": float(np.sum(gl * W**2 * th2)),
            "u0x_l2": math.sqrt(float(np.sum(np.abs(u0) ** 2))),
            "dY_u0x_l2": math.sqrt(float(np.sum(grid.xi**2 * np.abs(u0) ** 2))),
        }
        if budgets:
            row.update(budget_snapshot(state, params, A, vel))
            row["bud_lhs_nu_gradL"] = params.nu * row["gradL_A_omega_sq"]
            row["bud_lhs_mu_gradL"] = params.mu * row["gradL_A_theta_sq"]
        return row

    return observe


# ---------------------------------------------------------------------------
# energy functionals


@dataclass
class EnergyReport:
    """Scalar summary of one trajectory's weighted energies."""

    E_omega: float
    E_theta: float
    mean_flow: tuple[float, float]          # sup ||u0^X||, nu^1/2 L2-in-time of dY u0^X
    nonzero_integrals: tuple[float, float]  # L2-in-time H^N of omega_neq, theta_neq
    eps1: float
    eps2: float
    thm2_functional: float
    thm2_eps_sq: float     # max(alpha ||A omega_0||^2, ||grad_L A theta_0||^2)


def energy_functionals(traj: Trajectory, params: Params) -> EnergyReport:
    """Trapezoid the observer columns of a trajectory into an EnergyReport."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    t = traj.times
    col = traj.columns

    def integral(values):  # 0.0 for a single sample
        return float(np.trapezoid(values, t))

    E_om = float(np.max(col["A_omega_sq"])) + params.nu * integral(col["gradL_A_omega_sq"]) \
        + integral(col["decay_omega_sq"])
    E_th = float(np.max(col["A_theta_sq"])) + params.mu * integral(col["gradL_A_theta_sq"]) \
        + integral(col["decay_theta_sq"])
    mean_flow = (
        float(np.max(col["u0x_l2"])),
        math.sqrt(params.nu) * math.sqrt(integral(col["dY_u0x_l2"] ** 2)),
    )
    nonzero = (
        math.sqrt(integral(col["hN_omega_nonzero"] ** 2)),
        math.sqrt(integral(col["hN_theta_nonzero"] ** 2)),
    )

    rate_sq = (params.nu * params.alpha * col["gradL_A_omega_sq"]
               + 0.5 * params.alpha * col["decay_omega_sq"]
               + col["sqrtlapL_decay_theta_sq"]
               + 0.25 * params.mu * col["lapL_A_theta_sq"])
    running_sq = (params.alpha * col["A_omega_sq"] + col["gradL_A_theta_sq"]
                  + _cumtrapz(rate_sq, t))

    return EnergyReport(
        E_omega=E_om,
        E_theta=E_th,
        mean_flow=mean_flow,
        nonzero_integrals=nonzero,
        eps1=float(col["hN_omega"][0]),
        eps2=float(col["hN_theta"][0]),
        thm2_functional=float(np.max(running_sq)),
        thm2_eps_sq=max(params.alpha * float(col["A_omega_sq"][0]),
                        float(col["gradL_A_theta_sq"][0])),
    )


# ---------------------------------------------------------------------------
# budgets


def budget_snapshot(state: SimState, params: Params, A: np.ndarray, vel) -> dict:
    """A-weighted pairings <A term, A f> of each tendency term, as the
    ``bud_*`` columns: the vorticity budget (transport, lift, frame
    diffusion, buoyancy) and the temperature budget (transport, frame
    diffusion, b-coupling, feedback).  ``A`` holds the multiplier weights at
    the state's time, ``vel`` the state's velocity as the coefficient pair
    that :func:`bqlab.shear.velocity_from_psi` returns."""
    frame, ik = state.frame, state.grid.ik
    om, th, psi = state.omega.coeffs, state.theta.coeffs, state.psi.coeffs
    wA2 = state.grid.row_weight * A**2  # the row weight of the stored half

    def pair(f, g):  # <A f, A g>; f coefficients, or 0.0 for a zero term
        return float(np.real(np.sum(wA2 * np.conj(f) * g)))

    (adv_om, adv_th), _ = advection_term((om, th), state, vel)
    return {
        "bud_T_omega": pair(adv_om, om),
        "bud_S": pair(lift_term(psi, frame), om),
        "bud_D_omega": params.nu * pair(frame_diffusion_term(om, frame), om),
        "bud_T_omega_theta": pair(th * ik, om),
        "bud_T_theta": pair(adv_th, th),
        "bud_D_theta": params.mu * pair(frame_diffusion_term(th, frame), th),
        "bud_T_b": (params.mu - params.nu) * pair(b_dYL_term(th, frame), th),
        "bud_T_theta_omega": params.alpha * pair(psi * ik, th),
    }


def budget_residuals(times: np.ndarray, col: dict) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the omega and theta budget identities between samples.

    Pairs consecutive samples: the difference quotient of 1/2 ||A f||^2
    plus the trapezoid average of the budget terms.  ``col`` holds the
    columns of :func:`standard_observer` with budgets; entry i of each
    result belongs to the interval [t_i, t_(i+1)] and carries an
    O((t_(i+1) - t_i)^2) error, so sample at stride 1 for sharp values.
    """
    rate_om = (col["bud_lhs_nu_gradL"] + col["decay_omega_sq"] + col["bud_T_omega"]
               - col["bud_S"] - col["bud_D_omega"] - col["bud_T_omega_theta"])
    rate_th = (col["bud_lhs_mu_gradL"] + col["decay_theta_sq"] + col["bud_T_theta"]
               - col["bud_D_theta"] - col["bud_T_b"] + col["bud_T_theta_omega"])

    def paired(A_sq, rate):
        return np.diff(0.5 * A_sq) / np.diff(times) + 0.5 * (rate[1:] + rate[:-1])

    return paired(col["A_omega_sq"], rate_om), paired(col["A_theta_sq"], rate_th)


def discrete_budget_residual(state: SimState, params: Params, table: MultiplierTable,
                             dt: float | None = None):
    """Budget identity residuals across one step.

    Steps the state once and applies :func:`budget_residuals` to the two
    samples; the residuals vanish at second order in dt.  Returns
    (residual_omega, residual_theta, next_state).  It implements acceptance
    criterion 5 (second-order budget residuals) and stays in the library
    because it checks the stepper through the shipped observer.
    """
    nxt = step(state, params, dt)
    observe = standard_observer(table, budgets=True)
    rows = [observe(s, params) for s in (state, nxt)]
    col = {k: np.array([r[k] for r in rows]) for k in rows[0]}
    r_om, r_th = budget_residuals(np.array([state.t, nxt.t]), col)
    return float(r_om[0]), float(r_th[0]), nxt


# ---------------------------------------------------------------------------
# regime monitors


@dataclass
class Verdict:
    status: str            # "pass" | "fail" | "out-of-regime"
    ratios: dict
    notes: str = ""


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def thm1_monitor(report: EnergyReport, params: Params, gamma1: float,
                 gamma2: float, bound: float = 8.0) -> Verdict:
    """Small-alpha regime verdict: weighted energies against the data size.

    Checks the regime preconditions (coefficient window, data-size caps, the
    alpha ceiling) and then compares every measured ratio with ``bound``.
    """
    eps1, eps2 = report.eps1, report.eps2
    m = min(params.nu, params.mu)
    notes = []
    if not params.theorem1_regime():
        notes.append("coefficients outside (0,1) window or nu > 2 mu")
    if eps1 > gamma1 * math.sqrt(m):
        notes.append(f"eps1 = {eps1:.3g} above gamma1*min(nu,mu)^1/2")
    if eps2 > gamma2 * math.sqrt(params.nu * params.mu) * math.sqrt(m):
        notes.append(f"eps2 = {eps2:.3g} above gamma2*sqrt(nu mu)*min^1/2")
    alpha_cap = (params.nu ** (1.0 / 3.0)) * math.sqrt(params.mu) * _ratio(eps2, eps1)
    if eps1 > 0 and params.alpha >= alpha_cap:
        notes.append(f"alpha = {params.alpha:.3g} at or above cap {alpha_cap:.3g}")
    if eps1 == 0 and params.alpha > 0:
        notes.append("alpha > 0 with zero vorticity data")

    scale = params.nu ** (1.0 / 6.0)
    ratios = {
        "E_omega": _ratio(report.E_omega, eps1**2),
        "E_theta": _ratio(report.E_theta, eps2**2),
        "omega_nonzero": _ratio(report.nonzero_integrals[0] * scale, eps1),
        "theta_nonzero": _ratio(report.nonzero_integrals[1] * scale, eps2),
        "mean_flow": _ratio(report.mean_flow[0] + report.mean_flow[1], eps1),
    }
    if notes:
        return Verdict("out-of-regime", ratios, "; ".join(notes))
    ok = all(r <= bound for r in ratios.values())
    return Verdict("pass" if ok else "fail", ratios)


def thm2_monitor(report: EnergyReport, params: Params, bound: float = 8.0) -> Verdict:
    """Fixed-alpha regime verdict on the combined alpha-weighted functional,
    measured against the size of the data, ``sqrt(report.thm2_eps_sq)``."""
    eps_sq = report.thm2_eps_sq
    ratios = {
        "functional": _ratio(report.thm2_functional, eps_sq),
        "omega_nonzero": _ratio(
            report.nonzero_integrals[0] * math.sqrt(params.alpha)
            * params.nu ** (1.0 / 6.0), math.sqrt(eps_sq)),
    }
    if not params.theorem2_regime():
        return Verdict("out-of-regime", ratios, "needs mu >= 2, alpha > 0, nu in (0,1)")
    ok = all(r <= bound for r in ratios.values())
    return Verdict("pass" if ok else "fail", ratios)


# ---------------------------------------------------------------------------
# structural identities used by the fixed-alpha estimate


def alpha_pairing_sum(theta: SpectralField, omega: SpectralField,
                      table: MultiplierTable, t: float, alpha: float) -> float:
    """alpha<A dX theta, A omega> + alpha<A theta, Delta_L A dX Delta_L^-1 omega>.

    Cancels identically (integration by parts in X).  It implements the
    cancellation half of acceptance criterion 6 and stays in the library
    because it pairs the shipped multiplier weights on the solver's layout.
    """
    grid = theta.grid
    A = table.A_weights(grid, t)
    w = grid.row_weight
    sym = -mode_tables(grid, t)[1]
    term1 = alpha * float(np.real(np.sum(
        w * A**2 * np.conj(theta.coeffs * grid.ik) * omega.coeffs)))
    g = omega.coeffs * grid.ik
    ginv = np.zeros_like(g)
    nzmask = sym != 0
    ginv[nzmask] = g[nzmask] / sym[nzmask]
    term2 = alpha * float(np.real(np.sum(
        w * np.conj(A * theta.coeffs) * (A * sym * ginv))))
    return term1 + term2


def pairing_bound(theta: SpectralField, table: MultiplierTable, t: float
                  ) -> tuple[float, float]:
    """(|2 <dX dYL A theta, A theta>|, ||Delta_L A theta||^2).

    The first is dominated by the second mode-by-mode, which is what lets
    the combined functional absorb it when mu >= 2.  It implements the
    bound half of acceptance criterion 6 and stays in the library because it
    evaluates the paper's estimate with the shipped multiplier weights.
    """
    grid = theta.grid
    A = table.A_weights(grid, t)
    eta, gl = mode_tables(grid, t)
    th2 = grid.row_weight * (A * np.abs(theta.coeffs)) ** 2
    lhs = abs(2.0 * float(np.sum(-grid.k[:, None] * eta * th2)))
    rhs = float(np.sum(gl**2 * th2))
    return lhs, rhs


# ---------------------------------------------------------------------------
# mean-flow cross-check


def _ddx_phys(grid, arr):
    d = field_from_physical(grid, arr).coeffs * grid.ik
    d[-1] = 0.0  # 1j*k makes the self-mirrored row k = nx/2 anti-Hermitian
    return to_physical(SpectralField(grid, d))


def _ddy_phys(grid, arr):
    d = field_from_physical(grid, arr).coeffs * (1j * grid.xi)
    d[:, grid.ny // 2] = 0.0  # 1j*xi makes the column xi = -ny/2 anti-Hermitian
    return to_physical(SpectralField(grid, d))


def mean_flow_residual(traj: Trajectory, params: Params) -> float:
    """Residual of the x-averaged horizontal momentum equation.

    Pulls the velocity back to physical coordinates at consecutive stored
    snapshots and checks d_t u0 + (u . grad u^X)_0 - nu d_yy u0 = 0 with a
    centered difference in time.  Returns the worst-case residual relative
    to the magnitude of the terms; integrator-order small on resolved runs.
    It checks, in physical coordinates and without frame operators, the mean
    flow whose size the Theorem 1 monitor of acceptance criterion 8 bounds
    (``EnergyReport.mean_flow``); it stays in the library so that any run
    that stored snapshots can be audited with it.
    """
    from .evolve import make_state
    from .shear import eval_frame_on_physical_grid

    if len(traj.snapshots) < 2:
        raise ValueError("need at least two stored snapshots")
    profile = traj.final_state.frame.profile
    grid = traj.final_state.grid

    def velocity_on_physical_grid(t, om, th):
        st = make_state(om, th, profile, params, t=t)
        ux, uy = velocity_from_psi(st.psi.coeffs, st.frame)
        return (eval_frame_on_physical_grid(ux, st.frame),
                eval_frame_on_physical_grid(uy, st.frame))

    worst = 0.0
    prev = None
    for t, om, th in traj.snapshots:
        ux_p, uy_p = velocity_on_physical_grid(t, om, th)
        adv = ux_p * _ddx_phys(grid, ux_p) + uy_p * _ddy_phys(grid, ux_p)
        adv0 = np.mean(adv, axis=0)
        u0 = np.mean(ux_p, axis=0)
        lap0 = np.real(ifft_y(-(grid.xi**2) * fft_y(u0)))
        entry = (t, u0, adv0 - params.nu * lap0)
        if prev is not None:
            t0, u0a, rhs_a = prev
            t1, u0b, rhs_b = entry
            dudt = (u0b - u0a) / (t1 - t0)
            resid = dudt + 0.5 * (rhs_a + rhs_b)
            scale = max(np.max(np.abs(dudt)), np.max(np.abs(0.5 * (rhs_a + rhs_b))),
                        1e-300)
            worst = max(worst, float(np.max(np.abs(resid)) / scale))
        prev = entry
    return worst
