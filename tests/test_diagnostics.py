"""Energy functionals, budgets, monitors and fits."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from bqlab import diagnostics, evolve
from bqlab.diagnostics import (
    alpha_pairing_sum,
    budget_snapshot,
    discrete_budget_residual,
    energy_functionals,
    mean_flow_residual,
    pairing_bound,
    standard_observer,
    thm1_monitor,
    thm2_monitor,
)
from bqlab.evolve import Params, make_state, run
from bqlab.grid import (
    SpectralField,
    dealias,
    field_from_function,
    field_from_physical,
    make_grid,
    sobolev_norm,
    zero_field,
)
from bqlab.initial_data import single_mode
from bqlab.multiplier import MultiplierTable, make_multiplier
from bqlab.shear import couette, couette_plus_sine, velocity_from_psi
from layout import (
    apply_A,
    inner,
    meshes,
    ref_weights,
    set_mode,
    sorted_meshes,
    to_sorted_full,
)

LY = 4 * np.pi


def smooth_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    f = field_from_physical(grid, rng.standard_normal((grid.nx, grid.ny)))
    K, XI = meshes(grid)
    return dealias(SpectralField(grid, scale * f.coeffs * (1 + K**2 + XI**2) ** -3.5))


def small_run(nu=1e-2, mu=1e-2, alpha=0.0, T=0.5, dt=0.01, stride=2, couette_frame=True,
              eps1=1e-3, eps2=1e-4, snapshot_stride=0, N=5.0):
    g = make_grid(32, 64, LY)
    prof = couette(g) if couette_frame else couette_plus_sine(g, 0.03, 0.25)
    p = Params(nu=nu, mu=mu, alpha=alpha, T_end=T, dt=dt, N=N)
    table = make_multiplier(N)
    om = single_mode(g, eps1, N, width=2.0)
    th = single_mode(g, eps2, N, width=2.0)
    st = make_state(om, th, prof, p)
    traj = run(st, p, observer=standard_observer(table), stride=stride,
               snapshot_stride=snapshot_stride)
    return g, p, table, traj


class TestEnergyFunctionals:
    def test_zero_trajectory(self):
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=0.05, dt=0.01)
        table = make_multiplier(5.0)
        st = make_state(zero_field(g), zero_field(g), couette(g), p)
        traj = run(st, p, observer=standard_observer(table), stride=1)
        rep = energy_functionals(traj, p)
        assert rep.E_omega == 0.0 and rep.E_theta == 0.0
        assert rep.eps1 == 0.0 and rep.eps2 == 0.0
        assert rep.thm2_functional == 0.0

    def test_single_snapshot_equals_data_size(self):
        # at T_end = 0 the whole functional is ||A(0) omega||^2 = eps1^2
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=0.0, dt=0.01)
        table = make_multiplier(5.0)
        om = single_mode(g, 1e-3, 5.0, width=2.0)
        st = make_state(om, zero_field(g), couette(g), p)
        traj = run(st, p, observer=standard_observer(table), stride=1)
        rep = energy_functionals(traj, p)
        assert abs(rep.E_omega - rep.eps1**2) <= 1e-12 * rep.eps1**2

    def test_linear_run_against_quadrature(self):
        # one Couette mode, whose advection vanishes: every weighted integral
        # is an explicit quadrature
        g = make_grid(16, 32, LY)
        nu = 1e-2
        p = Params(nu=nu, mu=nu, alpha=0.0, T_end=2.0, dt=5e-3)
        table = make_multiplier(5.0)
        om = set_mode(zero_field(g), 1, 4, 1e-3)
        st = make_state(om, zero_field(g), couette(g), p)
        traj = run(st, p, observer=standard_observer(table), stride=1)
        rep = energy_functionals(traj, p)

        from bqlab.multiplier import eval_M

        xi = 4 * np.pi / g.Ly
        ts = np.linspace(0.0, 2.0, 4001)
        amp2 = np.array([
            2e-6 * np.exp(-2 * nu * (t + xi**2 * t - xi * t**2 + t**3 / 3.0))
            for t in ts])
        wN = (1.0 + 1.0 + xi**2) ** 5.0
        A2 = np.array([eval_M(t, 1, xi) ** 2 * wN for t in ts])
        gl = np.array([1.0 + (xi - t) ** 2 for t in ts])
        E_expected = float(np.max(A2 * amp2)) \
            + nu * float(np.trapezoid(gl * A2 * amp2, ts)) \
            + float(np.trapezoid(
                np.array([eval_M(t, 1, xi) ** 2 / (1 + (xi - t) ** 2) for t in ts])
                * wN * amp2, ts))
        assert abs(rep.E_omega - E_expected) <= 1e-4 * E_expected

    def test_empty_trajectory_rejected(self):
        g, p, table, traj = small_run(T=0.02)
        traj.times = np.array([])
        with pytest.raises(ValueError):
            energy_functionals(traj, p)


def budgets(state, params, table):
    """The budget pairings of one state, as the budget observer records them."""
    return budget_snapshot(state, params, table.A_weights(state.grid, state.t),
                           velocity_from_psi(state.psi.coeffs, state.frame))


class TestBudgets:
    def test_couette_lift_and_frame_diffusion_vanish(self):
        g, p, table, traj = small_run(T=0.05)
        snap = budgets(traj.final_state, p, table)
        assert snap["bud_S"] == 0.0
        assert snap["bud_D_omega"] == 0.0

    def test_equal_diffusivities_kill_T_b(self):
        g, p, table, traj = small_run(T=0.05, couette_frame=False)
        snap = budgets(traj.final_state, p, table)
        assert snap["bud_T_b"] == 0.0

    def test_alpha_zero_kills_feedback(self):
        g, p, table, traj = small_run(T=0.05, alpha=0.0)
        snap = budgets(traj.final_state, p, table)
        assert snap["bud_T_theta_omega"] == 0.0

    def test_zero_mode_only_fields_have_no_feedback(self):
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=1.0, T_end=0.1, dt=0.01)
        table = make_multiplier(5.0)
        f = field_from_function(g, lambda X, Y: 1e-3 * np.sin(np.pi * Y / LY))
        st = make_state(dealias(f), dealias(f), couette(g), p)
        snap = budgets(st, p, table)
        assert abs(snap["bud_T_theta_omega"]) < 1e-30

    def test_advection_pairing_vanishes_for_constant_velocity(self):
        # constant u against the Couette frame: pure skew transport
        g = make_grid(32, 32, np.pi)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=0.1, dt=0.01)
        table = make_multiplier(4.0)
        st = make_state(smooth_field(g, seed=1, scale=0.1), zero_field(g),
                        couette(g), p)
        vel = [field_from_physical(g, np.full((g.nx, g.ny), c)).coeffs for c in (0.7, -0.4)]
        from bqlab.evolve import advection_term

        (adv,), u = advection_term((st.omega.coeffs,), st, vel)
        assert np.all(u[0] == 0.7) and np.all(u[1] == -0.4)
        adv = SpectralField(g, adv)
        val = inner(apply_A(adv, table, st.t), apply_A(st.omega, table, st.t))
        scale = sobolev_norm(st.omega, 4.0) ** 2
        assert abs(val) <= 1e-10 * scale

    def test_one_velocity_per_budget_sample(self, monkeypatch):
        # the u0 row and the budget pairings read the same velocity
        g, p, table, traj = small_run(T=0.05, couette_frame=False)
        calls = []

        def counted(psi, frame):
            calls.append(1)
            return velocity_from_psi(psi, frame)

        monkeypatch.setattr(diagnostics, "velocity_from_psi", counted)
        monkeypatch.setattr(evolve, "velocity_from_psi", counted)
        standard_observer(table, budgets=True)(traj.final_state, p)
        assert len(calls) == 1

    def test_residual_second_order_in_dt(self):
        g = make_grid(32, 64, 2 * np.pi)
        prof = couette_plus_sine(g, 0.03, 0.5)
        table = make_multiplier(5.0)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.05 * np.cos(X) * np.exp(-Y**2)
            + 0.02 * np.sin(2 * X) * np.exp(-((Y - 0.5) ** 2))))
        set_mode(om, 0, 0, 0.0)
        th = dealias(field_from_function(
            g, lambda X, Y: 0.03 * np.sin(X) * np.exp(-Y**2)))
        worst = {}
        for dt in (4e-3, 1e-3):
            p = Params(nu=2e-3, mu=4e-3, alpha=0.5, T_end=0.1, dt=dt)
            st = make_state(om, th, prof, p)
            wo = wt = 0.0
            for _ in range(3):
                ro, rt, st = discrete_budget_residual(st, p, table, dt)
                wo, wt = max(wo, abs(ro)), max(wt, abs(rt))
            worst[dt] = (wo, wt)
        order_om = math.log(worst[4e-3][0] / worst[1e-3][0]) / math.log(4.0)
        order_th = math.log(worst[4e-3][1] / worst[1e-3][1]) / math.log(4.0)
        assert order_om >= 1.9
        assert order_th >= 1.9

    def test_combined_snapshot_merges_sides(self):
        g, p, table, traj = small_run(T=0.05, alpha=0.1)
        st = traj.final_state
        row = standard_observer(table, budgets=True)(st, p)
        assert {k for k in row if k.startswith("bud_")} == {
            "bud_T_omega", "bud_S", "bud_D_omega", "bud_T_omega_theta",
            "bud_T_theta", "bud_D_theta", "bud_T_b", "bud_T_theta_omega",
            "bud_lhs_nu_gradL", "bud_lhs_mu_gradL"}
        plain = standard_observer(table)(st, p)
        assert not any(k.startswith("bud_") for k in plain)
        assert row.items() >= plain.items() | budgets(st, p, table).items()

    def test_budget_sample_builds_each_weight_once(self, monkeypatch):
        g, p, table, traj = small_run(T=0.05, alpha=0.1)
        calls = []
        for name in ("A_weights", "dissipation_weights"):
            def counted(self, *args, _name=name, _weights=getattr(MultiplierTable, name)):
                calls.append(_name)
                return _weights(self, *args)
            monkeypatch.setattr(MultiplierTable, name, counted)
        standard_observer(table, budgets=True)(traj.final_state, p)
        assert sorted(calls) == ["A_weights", "dissipation_weights"]


class TestStructuralIdentities:
    def test_alpha_pairing_cancellation(self):
        g = make_grid(32, 64, LY)
        table = make_multiplier(5.0)
        rng_seeds = range(6)
        for seed in rng_seeds:
            th = smooth_field(g, seed=seed)
            om = smooth_field(g, seed=seed + 100)
            val = alpha_pairing_sum(th, om, table, t=0.9, alpha=1.3)
            scale = sobolev_norm(th, 5.0) * sobolev_norm(om, 5.0)
            assert abs(val) <= 1e-10 * max(scale, 1e-30)

    def test_pairing_bound_holds(self):
        g = make_grid(32, 64, LY)
        table = make_multiplier(5.0)
        rng = np.random.default_rng(0)
        for seed in range(25):
            th = smooth_field(g, seed=seed)
            t = float(rng.uniform(0, 10))
            lhs, rhs = pairing_bound(th, table, t)
            assert lhs <= rhs * (1 + 1e-12)


# The observer sums on the full sorted layout, every mode once: the
# references of the row weights of the stored half.

def ref_observer(state, params, table):
    g = state.grid
    A, W, gl = ref_weights(g, table, state.t)
    K, XI = sorted_meshes(g)
    sob2 = (1.0 + K**2 + XI**2) ** params.N
    om2 = np.abs(to_sorted_full(state.omega)) ** 2
    th2 = np.abs(to_sorted_full(state.theta)) ** 2
    neq = K != 0
    ux = velocity_from_psi(state.psi.coeffs, state.frame)[0]
    u0 = to_sorted_full(SpectralField(g, ux))[g.nx // 2]

    def norm(x):
        return math.sqrt(float(np.sum(x)))

    return {
        "l2_omega": norm(om2),
        "l2_omega_nonzero": norm(om2[neq]),
        "hN_omega": norm(sob2 * om2),
        "hN_omega_nonzero": norm((sob2 * om2)[neq]),
        "hN_theta": norm(sob2 * th2),
        "hN_theta_nonzero": norm((sob2 * th2)[neq]),
        "A_omega_sq": float(np.sum(A**2 * om2)),
        "A_theta_sq": float(np.sum(A**2 * th2)),
        "gradL_A_omega_sq": float(np.sum(gl * A**2 * om2)),
        "gradL_A_theta_sq": float(np.sum(gl * A**2 * th2)),
        "decay_omega_sq": float(np.sum(W**2 * om2)),
        "decay_theta_sq": float(np.sum(W**2 * th2)),
        "lapL_A_theta_sq": float(np.sum(gl**2 * A**2 * th2)),
        "sqrtlapL_decay_theta_sq": float(np.sum(gl * W**2 * th2)),
        "u0x_l2": norm(np.abs(u0) ** 2),
        "dY_u0x_l2": norm(XI[0] ** 2 * np.abs(u0) ** 2),
    }


def ref_budget(state, params, table):
    from bqlab.evolve import advection_term, b_dYL_term, lift_term
    from bqlab.shear import frame_diffusion_term

    g, frame = state.grid, state.frame
    A, _, gl = ref_weights(g, table, state.t)

    def full(c):  # a term's coefficients, or 0.0 for a zero term
        return c if np.ndim(c) == 0 else to_sorted_full(SpectralField(g, c))

    om_c, th_c, psi_c = state.omega.coeffs, state.theta.coeffs, state.psi.coeffs
    om, th = full(om_c), full(th_c)

    def pair(f, h):
        return float(np.real(np.sum(A**2 * np.conj(f) * h)))

    nu, mu, alpha = params.nu, params.mu, params.alpha
    return (
        {"bud_T_omega": pair(full(advection_term((om_c,), state)[0][0]), om),
         "bud_S": pair(full(lift_term(psi_c, frame)), om),
         "bud_D_omega": nu * pair(full(frame_diffusion_term(om_c, frame)), om),
         "bud_T_omega_theta": pair(full(th_c * g.ik), om)},
        {"bud_T_theta": pair(full(advection_term((th_c,), state)[0][0]), th),
         "bud_D_theta": mu * pair(full(frame_diffusion_term(th_c, frame)), th),
         "bud_T_b": (mu - nu) * pair(full(b_dYL_term(th_c, frame)), th),
         "bud_T_theta_omega": alpha * pair(full(psi_c * g.ik), th)},
        {"bud_lhs_nu_gradL": nu * float(np.sum(gl * A**2 * np.abs(om) ** 2)),
         "bud_lhs_mu_gradL": mu * float(np.sum(gl * A**2 * np.abs(th) ** 2))},
    )


def noise_field(g, seed):
    """Random data, not dealiased but for the column xi = -ny/2: that column
    is its own alias, and the mirror of its entry (k, -ny/2) is weighted at
    (-k, -ny/2) in the full layout but at (-k, +ny/2) in the half."""
    f = field_from_physical(g, np.random.default_rng(seed).standard_normal((g.nx, g.ny)))
    f.coeffs[:, g.ny // 2] = 0.0
    return f


class TestFullLayoutSums:
    """Observer sums over the stored half, row-weighted, against the same
    sums over the full sorted layout."""

    @pytest.mark.parametrize("nx,ny,Ly", [(8, 16, 2.5), (16, 64, LY), (32, 64, 1.7)])
    def test_standard_observer(self, nx, ny, Ly):
        g = make_grid(nx, ny, Ly)
        p = Params(nu=1e-3, mu=2e-3, alpha=0.3, T_end=1.0, dt=0.01)
        table = make_multiplier(p.N)
        prof = couette_plus_sine(g, 0.05, np.pi / Ly, validate=False)
        st = make_state(zero_field(g), zero_field(g), prof, p, t=0.7)
        # not dealiased: the row k = nx/2 and every row k > nx/3 are set
        st = dataclasses.replace(st, omega=noise_field(g, 1), theta=noise_field(g, 2),
                                 psi=noise_field(g, 3))
        got = standard_observer(table)(st, p)
        want = ref_observer(st, p, table)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-13 * abs(value), name

    @pytest.mark.parametrize("sine", [False, True])
    def test_budget_snapshot(self, sine):
        g = make_grid(32, 64, LY)
        p = Params(nu=1e-3, mu=3e-3, alpha=0.4, T_end=1.0, dt=0.01)
        table = make_multiplier(p.N)
        prof = couette_plus_sine(g, 0.05, 0.25) if sine else couette(g)
        om = set_mode(smooth_field(g, seed=1, scale=0.1), 0, 0, 0.0)
        st = make_state(om, smooth_field(g, seed=2, scale=0.05), prof, p, t=0.6)
        got = standard_observer(table, budgets=True)(st, p)
        want = ref_budget(st, p, table)
        assert {k for k in got if k.startswith("bud_")} == {k for ref in want for k in ref}
        for ref in want:  # each side against its own largest term
            scale = max(abs(v) for v in ref.values())
            assert scale > 0
            for name, value in ref.items():
                assert abs(got[name] - value) <= 1e-13 * scale, name


class TestMonitors:
    def test_zero_data_passes(self):
        g, p, table, traj = small_run(eps1=0.0, eps2=0.0, T=0.05)
        rep = energy_functionals(traj, p)
        v = thm1_monitor(rep, p, gamma1=0.1, gamma2=0.1)
        assert v.status == "pass"

    def test_compliant_run_passes_with_small_ratios(self):
        nu = 1e-3
        g, p, table, traj = small_run(nu=nu, mu=nu, T=2.0,
                                      eps1=0.05 * math.sqrt(nu),
                                      eps2=0.05 * nu**1.5)
        rep = energy_functionals(traj, p)
        v = thm1_monitor(rep, p, gamma1=0.1, gamma2=0.1)
        assert v.status == "pass"
        assert all(r <= 8.0 for r in v.ratios.values())

    def test_alpha_above_cap_flags_out_of_regime(self):
        nu = 1e-3
        g, p, table, traj = small_run(nu=nu, mu=nu, T=0.05, alpha=0.5,
                                      eps1=0.05 * math.sqrt(nu),
                                      eps2=0.05 * nu**1.5)
        rep = energy_functionals(traj, p)
        v = thm1_monitor(rep, p, gamma1=0.1, gamma2=0.1)
        assert v.status == "out-of-regime"
        assert "alpha" in v.notes
        assert v.ratios  # ratios still reported

    def test_thm2_zero_data_passes(self):
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=2.0, alpha=1.0, T_end=0.05, dt=0.01)
        table = make_multiplier(5.0)
        st = make_state(zero_field(g), zero_field(g), couette(g), p)
        traj = run(st, p, observer=standard_observer(table), stride=1)
        v = thm2_monitor(energy_functionals(traj, p), p)
        assert v.status == "pass"

    def test_thm2_out_of_regime_when_mu_small(self):
        g, p, table, traj = small_run(mu=1e-2, alpha=1.0, T=0.05)
        v = thm2_monitor(energy_functionals(traj, p), p)
        assert v.status == "out-of-regime"


@dataclass
class DecayFit:
    c: float        # coefficient of the nu t^3 / 3 exponent
    lam: float      # linear decay rate
    r2: float


def decay_fit(traj, params):
    """Fit log ||omega_neq||_L2 to -c nu t^3/3 - lam t."""
    t = traj.times
    vals = traj.columns["l2_omega_nonzero"]
    if len(t) < 3 or np.min(vals) <= 1e-280:
        raise ValueError("degenerate decay fit: too few samples or no nonzero modes")
    y = np.log(vals)
    X = np.column_stack([np.ones_like(t), -t, -params.nu * t**3 / 3.0])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(c=float(beta[2]), lam=float(beta[1]), r2=r2)


class TestDecayFit:
    def test_closed_form_coefficient(self):
        # single (k, xi) = (1, 0) mode: log amplitude is exactly -nu(t + t^3/3)
        g = make_grid(16, 32, LY)
        nu = 1e-2
        p = Params(nu=nu, mu=nu, alpha=0.0, T_end=3.0, dt=0.01)
        table = make_multiplier(5.0)
        om = set_mode(zero_field(g), 1, 0, 1e-3)
        st = make_state(om, zero_field(g), couette(g), p)
        traj = run(st, p, observer=standard_observer(table), stride=2)
        fit = decay_fit(traj, p)
        assert abs(fit.c - 1.0) <= 0.05
        assert abs(fit.lam - nu) <= 0.05 * nu
        assert fit.r2 > 0.9999

    def test_two_viscosities_track(self):
        fits = {}
        for nu in (2e-2, 1e-2):
            g, p, table, traj = small_run(nu=nu, mu=nu, T=3.0, dt=0.01,
                                          eps1=1e-3, eps2=0.0, stride=2)
            fits[nu] = decay_fit(traj, p)
        ratio = (fits[2e-2].c * 2e-2) / (fits[1e-2].c * 1e-2)
        assert abs(ratio - 2.0) <= 0.2

    def test_degenerate_rejected(self):
        g, p, table, traj = small_run(eps1=0.0, eps2=0.0, T=0.05)
        with pytest.raises(ValueError, match="degenerate"):
            decay_fit(traj, p)


class TestMeanFlow:
    def test_x_averaged_momentum_balance(self):
        # needs k=0 flow: use data with interacting modes so omega_0 develops
        g = make_grid(32, 64, 2 * np.pi)
        p = Params(nu=5e-2, mu=5e-2, alpha=0.0, T_end=0.2, dt=2e-3)
        table = make_multiplier(5.0)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.2 * np.cos(X) * np.exp(-Y**2)
            + 0.1 * np.sin(2 * X) * np.exp(-((Y - 0.4) ** 2))))
        set_mode(om, 0, 0, 0.0)
        st = make_state(om, zero_field(g), couette(g), p)
        traj = run(st, p, observer=standard_observer(table), stride=10,
                   snapshot_stride=10)
        resid = mean_flow_residual(traj, p)
        assert resid <= 0.05

    def test_needs_snapshots(self):
        g, p, table, traj = small_run(T=0.05)
        with pytest.raises(ValueError, match="snapshots"):
            mean_flow_residual(traj, p)
