"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS ...` line (run with `pytest -s` to
see them inline) and asserts both the tolerance and the runtime budget.
"""

import math
import time

import numpy as np

from bqlab.diagnostics import (
    alpha_pairing_sum,
    budget_snapshot,
    discrete_budget_residual,
    energy_functionals,
    pairing_bound,
    standard_observer,
    thm1_monitor,
    thm2_monitor,
)
from bqlab.evolve import Params, make_state, run, step
from bqlab.grid import (
    SpectralField,
    dealias,
    fft_y,
    field_from_function,
    field_from_physical,
    ifft_y,
    l2_norm,
    make_grid,
    multiply_y_profile,
    sobolev_norm,
    zero_field,
)
from bqlab.harness import SweepSpec, scan_threshold
from bqlab.initial_data import single_mode
from bqlab.multiplier import LOWER_BOUND, make_multiplier, property_report
from bqlab.oracle import compare_runs, fd_run, make_fd_initial
from bqlab.shear import (
    build_frame,
    couette,
    couette_plus_sine,
    laplace_t,
    laplace_tilde_t,
    velocity_from_psi,
)
from layout import meshes, mode, set_mode


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def smooth_random(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    f = field_from_physical(grid, rng.standard_normal((grid.nx, grid.ny)))
    K, XI = meshes(grid)
    return dealias(SpectralField(grid, scale * f.coeffs * (1 + K**2 + XI**2) ** -3.0))


def test_criterion_1_multiplier_lemma():
    start = time.time()
    rep = property_report(n_samples=100_000)
    elapsed = time.time() - start
    ok = (
        rep["norm_t0"] < 1e-12
        and rep["norm_k0"] < 1e-12
        and rep["max_M"] <= 1.0 + 1e-12
        and rep["min_M"] >= LOWER_BOUND - 1e-12
        and rep["ratio_identity"] < 1e-12
        and rep["ratio_fd"] < 1e-6
        and rep["monotone"] <= 1e-15
        and np.isfinite(rep["nu16_constant"])
        and rep["nu16_spread"] < 3.0
        and np.isfinite(rep["shift_constant"])
        and elapsed < 10.0
    )
    report(1, ok,
           f"min M = {rep['min_M']:.5f} >= c = {LOWER_BOUND:.5f}, "
           f"FD mismatch {rep['ratio_fd']:.2e}, nu^-1/6 constant "
           f"{rep['nu16_constant']:.2f} (spread {rep['nu16_spread']:.2f}), "
           f"{elapsed:.1f}s")


def test_criterion_2_operator_identities():
    start = time.time()
    Ly = 4 * np.pi
    g = make_grid(32, 64, Ly)
    profiles = [
        couette(g),
        couette_plus_sine(g, 0.05, 0.25),
        couette_plus_sine(g, 0.02, 0.5),
        couette_plus_sine(g, 0.005, 1.0),
        couette_plus_sine(g, 0.03, 0.25),
    ]
    assert all(p.delta <= 0.1 for p in profiles)

    worst_op = 0.0
    for ip, prof in enumerate(profiles):
        frame = build_frame(prof, 1e-3, 0.6)
        for seed in range(20):  # 5 x 20 = 100 random fields
            c = smooth_random(g, seed=100 * ip + seed).coeffs
            t = 0.6
            lt = laplace_t(c, frame)
            K, XI = meshes(g)
            dyy = c * -((XI - K * t) ** 2)
            b_dyl = multiply_y_profile(g, c * frame.ieta, frame.b)
            composed = c * -frame.gl + multiply_y_profile(g, dyy, frame.a2m1) + b_dyl
            stripped = laplace_tilde_t(c, frame) + b_dyl
            scale = max(g.rms(lt), 1e-300)
            worst_op = max(worst_op, g.rms(lt - composed) / scale,
                           g.rms(lt - stripped) / scale)

    # the frame functions are evaluated from the trigonometric representation,
    # so the identity residual sits at the roundoff floor, far below the
    # O(h^2) envelope the tolerance allows
    worst_ab = 0.0
    for ny in (256, 512):
        gh = make_grid(8, ny, Ly)
        fr = build_frame(couette_plus_sine(gh, 0.05, 0.25), 1e-3, 0.4)
        da = np.real(ifft_y(1j * gh.xi * fft_y(fr.a - 1.0)))
        worst_ab = max(worst_ab, float(np.max(np.abs(fr.b - fr.a * da))))
    elapsed = time.time() - start
    ok = worst_op <= 1e-10 and worst_ab <= 1e-6 and elapsed < 30.0
    report(2, ok, f"operator identity {worst_op:.2e} <= 1e-10, "
                  f"b = a dYa residual {worst_ab:.2e} <= 1e-6, {elapsed:.1f}s")


def test_criterion_3_exact_solutions():
    start = time.time()
    g = make_grid(16, 32, 4 * np.pi)
    prof = couette(g)

    p = Params(nu=1e-3, mu=2e-3, alpha=0.3, T_end=10.0, dt=0.01)
    st = make_state(zero_field(g), zero_field(g), prof, p)
    zero_ok = True
    for _ in range(1000):
        st = step(st, p)
        if not (np.all(st.omega.coeffs == 0.0) and np.all(st.theta.coeffs == 0.0)):
            zero_ok = False
            break

    worst = 0.0
    for nu in (1e-2, 1e-3):
        pl = Params(nu=nu, mu=nu, alpha=0.0, T_end=1.0, dt=1e-3)
        om = set_mode(zero_field(g), 1, 4, 0.5)
        stl = make_state(om, zero_field(g), prof, pl)
        while stl.t < 1.0 - 1e-12:
            stl = step(stl, pl)
        xi = 4 * np.pi / g.Ly
        t = stl.t
        integral = t + (xi**2 * t - xi * t**2 + t**3 / 3.0)
        expected = 0.5 * math.exp(-nu * integral)
        worst = max(worst, abs(mode(stl.omega, 1, 4) - expected)
                    / abs(expected))
    elapsed = time.time() - start
    ok = zero_ok and worst <= 1e-6 and elapsed < 60.0
    report(3, ok, f"zero fixed over 1000 steps: {zero_ok}, "
                  f"closed-form relative error {worst:.2e} <= 1e-6, {elapsed:.1f}s")


def test_criterion_4_conservation():
    start = time.time()
    g = make_grid(256, 256, 2 * np.pi)
    p = Params(nu=0.0, mu=0.0, alpha=0.0, T_end=0.5, dt=5e-3,
               check_divergence=True)
    om = dealias(field_from_function(
        g, lambda X, Y: 0.05 * np.cos(X) * np.exp(-Y**2)
        + 0.03 * np.sin(2 * X + 1.0) * np.exp(-((Y - 1.0) ** 2))))
    set_mode(om, 0, 0, 0.0)
    st = make_state(om, zero_field(g), couette(g), p)
    e0 = l2_norm(st.omega)
    traj = run(st, p, stride=1000)
    drift = abs(l2_norm(traj.final_state.omega) - e0) / e0 / p.T_end
    elapsed = time.time() - start
    ok = drift <= 1e-6 and traj.max_divergence <= 1e-12 and elapsed < 300.0
    report(4, ok, f"enstrophy drift {drift:.2e} <= 1e-6 per unit time, "
                  f"divergence {traj.max_divergence:.2e} <= 1e-12, {elapsed:.1f}s")


def test_criterion_5_budget_identities():
    start = time.time()
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
    for dt in (4e-3, 2e-3, 1e-3):
        p = Params(nu=2e-3, mu=4e-3, alpha=0.5, T_end=0.1, dt=dt)
        st = make_state(om, th, prof, p)
        wo = wt = 0.0
        for _ in range(4):
            ro, rt, st = discrete_budget_residual(st, p, table, dt)
            wo, wt = max(wo, abs(ro)), max(wt, abs(rt))
        worst[dt] = (wo, wt)
    order_om = math.log(worst[4e-3][0] / worst[1e-3][0]) / math.log(4.0)
    order_th = math.log(worst[4e-3][1] / worst[1e-3][1]) / math.log(4.0)

    pz = Params(nu=1e-3, mu=1e-3, alpha=0.2, T_end=0.1, dt=1e-3)
    stc = make_state(om, th, couette(g), pz)
    b = budget_snapshot(stc, pz, table.A_weights(g, stc.t),
                        velocity_from_psi(stc.psi.coeffs, stc.frame))
    exact_zeros = b["bud_S"] == 0.0 and b["bud_D_omega"] == 0.0 and b["bud_T_b"] == 0.0
    elapsed = time.time() - start
    # measured orders carry O(dt) corrections of their own; 1.9 certifies
    # second-order convergence of the residual
    ok = order_om >= 1.9 and order_th >= 1.9 and exact_zeros and elapsed < 300.0
    report(5, ok, f"residual orders (omega, theta) = ({order_om:.2f}, {order_th:.2f})"
                  f" >= 2, Couette S = D = 0 and mu = nu gives T_b = 0 exactly: "
                  f"{exact_zeros}, {elapsed:.1f}s")


def test_criterion_6_fixed_alpha_cancellation():
    start = time.time()
    g = make_grid(32, 64, 4 * np.pi)
    table = make_multiplier(5.0)
    rng = np.random.default_rng(0)

    worst_cancel = 0.0
    for seed in range(20):
        th = smooth_random(g, seed=seed)
        om = smooth_random(g, seed=seed + 500)
        t = float(rng.uniform(0.0, 10.0))
        val = abs(alpha_pairing_sum(th, om, table, t, alpha=1.7))
        scale = max(sobolev_norm(th, 5.0) * sobolev_norm(om, 5.0), 1e-300)
        worst_cancel = max(worst_cancel, val / scale)

    bound_ok = True
    for seed in range(1000):
        th = smooth_random(g, seed=2000 + seed)
        t = float(rng.uniform(0.0, 20.0))
        lhs, rhs = pairing_bound(th, table, t)
        if lhs > rhs * (1 + 1e-12):
            bound_ok = False
            break
    elapsed = time.time() - start
    ok = worst_cancel <= 1e-10 and bound_ok and elapsed < 60.0
    report(6, ok, f"alpha-pairing cancellation {worst_cancel:.2e} <= 1e-10, "
                  f"|2<dX dYL A th, A th>| <= ||lap_L A th||^2 on 1000 fields: "
                  f"{bound_ok}, {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence():
    start = time.time()
    diffs = {}
    for n, dt in ((64, 4e-3), (128, 2e-3)):
        g = make_grid(n, n, 2 * np.pi)
        prof = couette(g)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=1.0, dt=dt)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.01 * np.cos(X) * np.exp(-Y**2)))
        set_mode(om, 0, 0, 0.0)
        th = dealias(field_from_function(
            g, lambda X, Y: 0.005 * np.sin(X) * np.exp(-Y**2)))
        st = make_state(om, th, prof, p)
        fd0 = make_fd_initial(st)
        traj = run(st, p, stride=10**9)
        fd = fd_run(fd0, p, prof, g, p.T_end, dt=dt)
        diffs[n] = compare_runs(traj.final_state, fd)
    ratio = diffs[64] / diffs[128]
    elapsed = time.time() - start
    ok = diffs[128] <= 1e-3 and ratio >= 2.0 and elapsed < 600.0
    report(7, ok, f"relative L2 difference at t=1, 128^2: {diffs[128]:.2e} <= 1e-3; "
                  f"refinement ratio 64->128: {ratio:.2f} >= 2 (first order), "
                  f"{elapsed:.1f}s")


def test_criterion_8_enhanced_dissipation_scaling():
    start = time.time()
    g = make_grid(64, 128, 4 * np.pi)
    prof = couette(g)
    table = make_multiplier(5.0)

    ratios = []
    monitors_ok = True
    nus = (1e-2, 1e-3, 1e-4)
    for nu in nus:
        eps1 = 0.05 * math.sqrt(nu)
        eps2 = 0.05 * nu**1.5
        # the runs are linear at these amplitudes and the integrating factor
        # integrates the linear part exactly, so this step gives the ratios
        # of a 5x smaller one to 11 digits
        p = Params(nu=nu, mu=nu, alpha=0.0, T_end=2.0 * nu ** (-1.0 / 3.0), dt=0.05)
        om = single_mode(g, eps1, 5.0, kx=1, width=2.0)
        th = single_mode(g, eps2, 5.0, kx=1, width=2.0)
        st = make_state(om, th, prof, p)
        traj = run(st, p, observer=standard_observer(table), stride=1)
        rep = energy_functionals(traj, p)
        v1 = thm1_monitor(rep, p, gamma1=0.1, gamma2=0.1)
        monitors_ok &= v1.status == "pass" and traj.label == "stable"
        ratios.append(rep.nonzero_integrals[0] / eps1)

    slope = np.polyfit(np.log(np.array(nus)), np.log(np.array(ratios)), 1)[0]

    # fixed-alpha regime: combined functional stays inside the bootstrap bound
    nu2, mu2, alpha2 = 1e-3, 2.0, 1.0
    eps = math.sqrt(0.1 * nu2)
    p2 = Params(nu=nu2, mu=mu2, alpha=alpha2, T_end=2.0 * nu2 ** (-1.0 / 3.0), dt=0.025)
    om2 = single_mode(g, 0.9 * eps / math.sqrt(alpha2), 5.0, kx=1, width=2.0)
    th_raw = single_mode(g, 1.0, 5.0, kx=1, width=2.0)
    K, XI = meshes(g)
    gl0 = np.sqrt(K**2 + XI**2)
    w0 = table.A_weights(g, 0.0)
    gnorm = math.sqrt(float(np.sum(g.row_weight * (gl0 * w0 * np.abs(th_raw.coeffs)) ** 2)))
    th2 = SpectralField(g, th_raw.coeffs * (0.9 * eps / gnorm))
    st2 = make_state(om2, th2, prof, p2)
    traj2 = run(st2, p2, observer=standard_observer(table), stride=1)
    v2 = thm2_monitor(energy_functionals(traj2, p2), p2)
    monitors_ok &= v2.status == "pass" and traj2.label == "stable"

    elapsed = time.time() - start
    ok = abs(slope - (-1.0 / 6.0)) <= 0.05 and monitors_ok and elapsed < 3600.0
    report(8, ok, f"||omega_neq|| L2-in-time scaling slope {slope:.4f} "
                  f"(target -1/6 +- 0.05); all compliant-run monitors pass: "
                  f"{monitors_ok}, {elapsed:.0f}s")


def test_criterion_9_threshold_scan_self_test():
    start = time.time()
    spec = SweepSpec(nu_list=list(np.logspace(-1, -5, 9)),
                     bracket=(1e-4, 1.0), bracket_rtol=0.02)
    res = scan_threshold(
        spec, verdict_fn=lambda nu, mu, eps: "stable" if eps <= math.sqrt(nu)
        else "unstable")
    elapsed = time.time() - start
    lo, hi = res.gamma_range
    ok = (res.gamma is not None and abs(res.gamma - 0.5) <= 0.01 and lo <= 0.5 <= hi
          and elapsed < 1.0)
    report(9, ok, f"synthetic-verdict slope gamma = {res.gamma:.4f} = 0.5 +- 0.01, "
                  f"brackets admit [{lo:.4f}, {hi:.4f}], {elapsed:.2f}s")
