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
from dataclasses import dataclass, field

import numpy as np

from .evolve import (
    Params,
    SimState,
    Trajectory,
    advection_term,
    b_dYL_term,
    frame_diffusion_term,
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
from .shear import dX, laplaceL_symbol


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(y) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


# ---------------------------------------------------------------------------
# observer


def standard_observer(table: MultiplierTable):
    """Observer recording every norm column the reports need.

    All columns are weighted sums over coefficients (no transforms), so
    sampling is cheap enough for small strides.
    """

    def observe(state: SimState, params: Params) -> dict:
        grid = state.grid
        t = state.t
        A = table.A_weights(grid, t)
        W = table.dissipation_weights(grid, t)
        gl = grid.K**2 + (grid.XI - grid.K * t) ** 2
        sobN = grid.sobolev_weights(params.N)
        i0 = grid.nx // 2

        om2 = np.abs(state.omega.coeffs) ** 2
        th2 = np.abs(state.theta.coeffs) ** 2
        neq = np.ones_like(om2)
        neq[i0, :] = 0.0

        u0 = state.ux.coeffs[i0, :]
        row = {
            "l2_omega": math.sqrt(float(np.sum(om2))),
            "l2_omega_nonzero": math.sqrt(float(np.sum(neq * om2))),
            # the same float run() compares against its guard and stop levels
            "hN_omega": sobolev_norm(state.omega, params.N),
            "hN_omega_nonzero": math.sqrt(float(np.sum(neq * sobN**2 * om2))),
            "hN_theta": sobolev_norm(state.theta, params.N),
            "hN_theta_nonzero": math.sqrt(float(np.sum(neq * sobN**2 * th2))),
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
    thm2_functional_unsquared: float


def energy_functionals(traj: Trajectory, params: Params, table: MultiplierTable
                       ) -> EnergyReport:
    """Trapezoid the observer columns of a trajectory into an EnergyReport."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    t = traj.times
    col = traj.columns

    def integral(name):
        return float(np.trapezoid(col[name], t)) if len(t) > 1 else 0.0

    E_om = float(np.max(col["A_omega_sq"])) + params.nu * integral("gradL_A_omega_sq") \
        + integral("decay_omega_sq")
    E_th = float(np.max(col["A_theta_sq"])) + params.mu * integral("gradL_A_theta_sq") \
        + integral("decay_theta_sq")
    dY_u0x_int = float(np.trapezoid(col["dY_u0x_l2"] ** 2, t)) if len(t) > 1 else 0.0
    mean_flow = (
        float(np.max(col["u0x_l2"])),
        math.sqrt(params.nu) * math.sqrt(dY_u0x_int),
    )
    nonzero = (
        math.sqrt(float(np.trapezoid(col["hN_omega_nonzero"] ** 2, t)) if len(t) > 1 else 0.0),
        math.sqrt(float(np.trapezoid(col["hN_theta_nonzero"] ** 2, t)) if len(t) > 1 else 0.0),
    )

    rate_sq = (params.nu * params.alpha * col["gradL_A_omega_sq"]
               + 0.5 * params.alpha * col["decay_omega_sq"]
               + col["sqrtlapL_decay_theta_sq"]
               + 0.25 * params.mu * col["lapL_A_theta_sq"])
    running_sq = (params.alpha * col["A_omega_sq"] + col["gradL_A_theta_sq"]
                  + _cumtrapz(rate_sq, t))
    rate_un = (params.nu * params.alpha * col["gradL_A_omega_sq"]
               + 0.5 * params.alpha * col["decay_omega_sq"]
               + np.sqrt(col["sqrtlapL_decay_theta_sq"])
               + 0.25 * params.mu * col["lapL_A_theta_sq"])
    running_un = (params.alpha * col["A_omega_sq"] + col["gradL_A_theta_sq"]
                  + _cumtrapz(rate_un, t))

    return EnergyReport(
        E_omega=E_om,
        E_theta=E_th,
        mean_flow=mean_flow,
        nonzero_integrals=nonzero,
        eps1=float(col["hN_omega"][0]),
        eps2=float(col["hN_theta"][0]),
        thm2_functional=float(np.max(running_sq)),
        thm2_functional_unsquared=float(np.max(running_un)),
    )


# ---------------------------------------------------------------------------
# budgets


@dataclass
class BudgetSnapshot:
    """Instantaneous A-weighted pairings of each tendency term.

    ``residual_*`` stay NaN until a finite-difference-in-time estimate of
    d/dt (1/2 ||A f||^2) is available, see :func:`discrete_budget_residual`.
    """

    t: float
    omega_terms: dict = field(default_factory=dict)
    theta_terms: dict = field(default_factory=dict)
    lhs_rates: dict = field(default_factory=dict)
    residual_omega: float = math.nan
    residual_theta: float = math.nan


def _inner_A(f: SpectralField, g: SpectralField, A: np.ndarray) -> float:
    return float(np.real(np.sum(A**2 * np.conj(f.coeffs) * g.coeffs)))


def budget_omega(state: SimState, params: Params, table: MultiplierTable
                 ) -> BudgetSnapshot:
    """Vorticity budget terms: transport, lift, frame diffusion, buoyancy."""
    grid = state.grid
    t = state.t
    A = table.A_weights(grid, t)
    W = table.dissipation_weights(grid, t)
    gl = grid.K**2 + (grid.XI - grid.K * t) ** 2

    snap = BudgetSnapshot(t=t)
    snap.omega_terms = {
        "T_omega": _inner_A(advection_term(state.omega, state), state.omega, A),
        "S": _inner_A(lift_term(state), state.omega, A),
        "D_omega": params.nu * _inner_A(
            frame_diffusion_term(state.omega, state.frame, t), state.omega, A),
        "T_omega_theta": _inner_A(dX(state.theta), state.omega, A),
    }
    om2 = np.abs(state.omega.coeffs) ** 2
    snap.lhs_rates.update({
        "nu_gradL_A_omega_sq": params.nu * float(np.sum(gl * A**2 * om2)),
        "decay_omega_sq": float(np.sum(W**2 * om2)),
    })
    return snap


def budget_theta(state: SimState, params: Params, table: MultiplierTable
                 ) -> BudgetSnapshot:
    """Temperature budget terms: transport, frame diffusion, b-coupling, feedback."""
    grid = state.grid
    t = state.t
    A = table.A_weights(grid, t)
    W = table.dissipation_weights(grid, t)
    gl = grid.K**2 + (grid.XI - grid.K * t) ** 2

    snap = BudgetSnapshot(t=t)
    snap.theta_terms = {
        "T_theta": _inner_A(advection_term(state.theta, state), state.theta, A),
        "D_theta": params.mu * _inner_A(
            frame_diffusion_term(state.theta, state.frame, t), state.theta, A),
        "T_b": (params.mu - params.nu) * _inner_A(
            b_dYL_term(state.theta, state.frame, t), state.theta, A),
        "T_theta_omega": params.alpha * _inner_A(dX(state.psi), state.theta, A),
    }
    th2 = np.abs(state.theta.coeffs) ** 2
    snap.lhs_rates.update({
        "mu_gradL_A_theta_sq": params.mu * float(np.sum(gl * A**2 * th2)),
        "decay_theta_sq": float(np.sum(W**2 * th2)),
    })
    return snap


def budget_snapshot(state: SimState, params: Params, table: MultiplierTable
                    ) -> BudgetSnapshot:
    """Both budgets merged into one snapshot."""
    om = budget_omega(state, params, table)
    th = budget_theta(state, params, table)
    om.theta_terms = th.theta_terms
    om.lhs_rates.update(th.lhs_rates)
    return om


def _half_A_norm_sq(f: SpectralField, A: np.ndarray) -> float:
    return 0.5 * float(np.sum((A * np.abs(f.coeffs)) ** 2))


def discrete_budget_residual(state: SimState, params: Params, table: MultiplierTable,
                             dt: float | None = None):
    """Budget identity residuals across one step, trapezoid-paired.

    Steps the state once and compares the finite difference of
    1/2 ||A f||^2 with the averaged budget terms; the residuals vanish at
    second order in dt.  Returns (residual_omega, residual_theta, next_state).
    """
    if dt is None:
        dt = params.dt
    nxt = step(state, params, dt)
    b0 = budget_snapshot(state, params, table)
    b1 = budget_snapshot(nxt, params, table)

    A0 = table.A_weights(state.grid, state.t)
    A1 = table.A_weights(nxt.grid, nxt.t)
    d_om = (_half_A_norm_sq(nxt.omega, A1) - _half_A_norm_sq(state.omega, A0)) / dt
    d_th = (_half_A_norm_sq(nxt.theta, A1) - _half_A_norm_sq(state.theta, A0)) / dt

    def _avg(getter):
        return 0.5 * (getter(b0) + getter(b1))

    r_om = d_om + _avg(lambda b: b.lhs_rates["nu_gradL_A_omega_sq"]
                       + b.lhs_rates["decay_omega_sq"]
                       + b.omega_terms["T_omega"] - b.omega_terms["S"]
                       - b.omega_terms["D_omega"] - b.omega_terms["T_omega_theta"])
    r_th = d_th + _avg(lambda b: b.lhs_rates["mu_gradL_A_theta_sq"]
                       + b.lhs_rates["decay_theta_sq"]
                       + b.theta_terms["T_theta"] - b.theta_terms["D_theta"]
                       - b.theta_terms["T_b"] + b.theta_terms["T_theta_omega"])
    return r_om, r_th, nxt


# ---------------------------------------------------------------------------
# regime monitors


@dataclass
class Verdict:
    status: str            # "pass" | "fail" | "out-of-regime"
    ratios: dict
    bound: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


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
        return Verdict("out-of-regime", ratios, bound, "; ".join(notes))
    ok = all(r <= bound for r in ratios.values())
    return Verdict("pass" if ok else "fail", ratios, bound)


def thm2_monitor(traj: Trajectory, params: Params, table: MultiplierTable,
                 eps: float | None = None, bound: float = 8.0) -> Verdict:
    """Fixed-alpha regime verdict on the combined alpha-weighted functional."""
    report = energy_functionals(traj, params, table)
    col = traj.columns
    if eps is None:
        eps_sq = max(params.alpha * float(col["A_omega_sq"][0]),
                     float(col["gradL_A_theta_sq"][0]))
        eps = math.sqrt(eps_sq)
    else:
        eps_sq = eps * eps

    ratios = {
        "functional": _ratio(report.thm2_functional, eps_sq),
        "omega_nonzero": _ratio(
            report.nonzero_integrals[0] * math.sqrt(params.alpha)
            * params.nu ** (1.0 / 6.0), eps),
    }
    if not params.theorem2_regime():
        return Verdict("out-of-regime", ratios, bound,
                       "needs mu >= 2, alpha > 0, nu in (0,1)")
    ok = all(r <= bound for r in ratios.values())
    return Verdict("pass" if ok else "fail", ratios, bound)


# ---------------------------------------------------------------------------
# decay fitting


@dataclass
class DecayFit:
    c: float        # coefficient of the nu t^3 / 3 exponent
    lam: float      # linear decay rate
    r2: float


def decay_fit(traj: Trajectory, params: Params, window: tuple[float, float] | None = None
              ) -> DecayFit:
    """Fit log ||omega_neq||_L2 to -c nu t^3/3 - lam t over a time window."""
    t = traj.times
    vals = traj.columns["l2_omega_nonzero"]
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t, vals = t[mask], vals[mask]
    if len(t) < 3 or np.min(vals) <= 1e-280:
        raise ValueError("degenerate decay fit: too few samples or no nonzero modes")
    y = np.log(vals)
    X = np.column_stack([np.ones_like(t), -t, -params.nu * t**3 / 3.0])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(c=float(beta[2]), lam=float(beta[1]), r2=r2)


# ---------------------------------------------------------------------------
# structural identities used by the fixed-alpha estimate


def alpha_pairing_sum(theta: SpectralField, omega: SpectralField,
                      table: MultiplierTable, t: float, alpha: float) -> float:
    """alpha<A dX theta, A omega> + alpha<A theta, Delta_L A dX Delta_L^-1 omega>.

    Cancels identically (integration by parts in X); returned for testing.
    """
    grid = theta.grid
    A = table.A_weights(grid, t)
    sym = laplaceL_symbol(grid, t)
    term1 = alpha * float(np.real(np.sum(
        A**2 * np.conj((dX(theta)).coeffs) * omega.coeffs)))
    g = dX(omega).coeffs
    ginv = np.zeros_like(g)
    nzmask = sym != 0
    ginv[nzmask] = g[nzmask] / sym[nzmask]
    term2 = alpha * float(np.real(np.sum(
        np.conj(A * theta.coeffs) * (A * sym * ginv))))
    return term1 + term2


def pairing_bound(theta: SpectralField, table: MultiplierTable, t: float
                  ) -> tuple[float, float]:
    """(|2 <dX dYL A theta, A theta>|, ||Delta_L A theta||^2).

    The first is dominated by the second mode-by-mode, which is what lets
    the combined functional absorb it when mu >= 2.
    """
    grid = theta.grid
    A = table.A_weights(grid, t)
    gl = grid.K**2 + (grid.XI - grid.K * t) ** 2
    th2 = (A * np.abs(theta.coeffs)) ** 2
    lhs = abs(2.0 * float(np.sum(-grid.K * (grid.XI - grid.K * t) * th2)))
    rhs = float(np.sum(gl**2 * th2))
    return lhs, rhs


# ---------------------------------------------------------------------------
# mean-flow cross-check


def _ddx_phys(grid, arr):
    f = field_from_physical(grid, arr)
    return to_physical(SpectralField(grid, f.coeffs * (1j * grid.K)))


def _ddy_phys(grid, arr):
    f = field_from_physical(grid, arr)
    return to_physical(SpectralField(grid, f.coeffs * (1j * grid.XI)))


def mean_flow_residual(traj: Trajectory, params: Params) -> float:
    """Residual of the x-averaged horizontal momentum equation.

    Pulls the velocity back to physical coordinates at consecutive stored
    snapshots and checks d_t u0 + (u . grad u^X)_0 - nu d_yy u0 = 0 with a
    centered difference in time.  Returns the worst-case residual relative
    to the magnitude of the terms; integrator-order small on resolved runs.
    """
    from .evolve import make_state
    from .shear import eval_frame_on_physical_grid

    if len(traj.snapshots) < 2:
        raise ValueError("need at least two stored snapshots")
    profile = traj.final_state.frame.profile
    grid = traj.final_state.grid

    def physical_velocity(t, om, th):
        st = make_state(om, th, profile, params, t=t)
        ux_p = eval_frame_on_physical_grid(st.ux, st.frame, t)
        uy_p = eval_frame_on_physical_grid(st.uy, st.frame, t)
        return ux_p, uy_p

    worst = 0.0
    prev = None
    for t, om, th in traj.snapshots:
        ux_p, uy_p = physical_velocity(t, om, th)
        adv = ux_p * _ddx_phys(grid, ux_p) + uy_p * _ddy_phys(grid, ux_p)
        adv0 = np.mean(adv, axis=0)
        u0 = np.mean(ux_p, axis=0)
        lap0 = np.real(ifft_y(grid, -(grid.xi**2) * fft_y(grid, u0)))
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
