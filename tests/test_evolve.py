"""Time integrator: exactness, conservation, convergence order, guards."""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from bqlab.evolve import (
    CflError,
    Params,
    SimState,
    _propagators,
    advection_term,
    cfl_limit,
    diffusion_integral,
    divergence_residual,
    make_state,
    rhs_explicit,
    run,
    step,
)
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
    to_physical,
    zero_field,
)
from bqlab.shear import couette, couette_plus_sine, mode_tables, velocity_from_psi
from layout import (
    index,
    meshes,
    mode,
    project_modes,
    ref_advection_term,
    set_mode,
    state_velocity,
)

LY = 4 * np.pi


def gauss_mode(grid, amp=0.05, kx=1, width=1.0, shift=0.0):
    f = field_from_function(
        grid, lambda X, Y: amp * np.cos(kx * X) * np.exp(-(((Y - shift) / width) ** 2)))
    return set_mode(dealias(f), 0, 0, 0.0)


def use_workspace(grid):
    """Leave the grid's workspace as a pass on other data leaves it: six
    fields, omega and theta live on a Couette frame."""
    p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=0.01)
    rhs_explicit(make_state(gauss_mode(grid, amp=0.3), gauss_mode(grid, amp=0.2, shift=0.5),
                            couette(grid), p), p)


def sheared_wave(grid, amps):
    """Harmonics n = 1, 2, ... of the phase X + Y, modes (n, 4n) on a grid
    with Ly = 4 pi, set to ``amps``: a field of that one phase."""
    f = zero_field(grid)
    for n, amp in enumerate(amps, 1):
        set_mode(f, n, 4 * n, amp)
    return f


@functools.lru_cache(maxsize=None)
def sheared_wave_reference(w0, th0, nu, mu, alpha, t_end, n_steps=2000):
    """Harmonics (k, xi) = (n, n) of :func:`sheared_wave` data (w0, th0) on
    Couette at t_end: w' = -nu g w + i k th, th' = -mu g th + alpha i k w / g,
    g = k^2 + (xi - k t)^2, each harmonic on its own; classical RK4."""
    k = np.arange(1.0, len(w0) + 1)

    def f(t, y):
        g = k**2 + (k - k * t) ** 2
        return np.array([-nu * g * y[0] + 1j * k * y[1],
                         -mu * g * y[1] + alpha * 1j * k * y[0] / g])

    y = np.array([w0, th0], dtype=complex)
    h = t_end / n_steps
    for i in range(n_steps):
        t = i * h
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Params(nu=-1.0, mu=0.0, alpha=0.0, T_end=1.0, dt=0.1)
        with pytest.raises(ValueError):
            Params(nu=1e-3, mu=-0.1, alpha=0.0, T_end=1.0, dt=0.1)
        with pytest.raises(ValueError):
            Params(nu=1e-3, mu=0.0, alpha=0.0, T_end=1.0, dt=0.0)

    @pytest.mark.parametrize("name", ["nu", "mu", "alpha", "T_end", "dt", "N"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, name, value):
        # a NaN passes every sign check (nan < 0 is False): T_end = nan ran
        # without end, N = nan labelled a sound run non_finite at t = 0
        good = dict(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=0.1, N=5.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Params(**{**good, name: value})

    def test_rejects_negative_sobolev_exponent(self):
        with pytest.raises(ValueError, match="N must be nonnegative"):
            Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=1.0, dt=0.1, N=-1.0)

    def test_regime_flags(self):
        p1 = Params(nu=1e-3, mu=2e-3, alpha=0.0, T_end=1.0, dt=0.1)
        assert p1.theorem1_regime() and not p1.theorem2_regime()
        p2 = Params(nu=1e-3, mu=2.5, alpha=1.0, T_end=1.0, dt=0.1)
        assert p2.theorem2_regime() and not p2.theorem1_regime()
        p3 = Params(nu=0.5, mu=0.1, alpha=0.0, T_end=1.0, dt=0.1)  # nu > 2 mu
        assert not p3.theorem1_regime()


class TestImplicitDiffusion:
    def test_zero_coefficient_is_identity(self):
        g = make_grid(16, 16, np.pi)
        assert _propagators(g, (0.0, 0.0), 0.3, 0.1) == ((1.0, 1.0, 1.0),) * 2

    def test_k_zero_column_is_heat_kernel(self):
        g = make_grid(8, 16, np.pi)
        ((full, half, _),) = _propagators(g, (0.5,), 7.0, 0.2)
        xi = 3.0
        assert abs(full[index(g, 0, 3)] - np.exp(-0.5 * xi**2 * 0.2)) < 1e-15
        assert abs(half[index(g, 0, 3)] - np.exp(-0.5 * xi**2 * 0.1)) < 1e-15

    def test_tilted_mode_integral(self):
        # k=1, xi=0, from t=0 over dt=1: integral of 1 + s^2 is 4/3
        g = make_grid(8, 8, np.pi)
        nu = 0.37
        ((full, _, _),) = _propagators(g, (nu,), 0.0, 1.0)
        assert abs(full[index(g, 1, 0)] - np.exp(-nu * 4.0 / 3.0)) < 1e-15

    @pytest.mark.parametrize("nu,mu,calls", [(1e-3, 1e-3, 2), (1e-3, 4e-3, 2),
                                             (0.0, 4e-3, 2), (0.0, 0.0, 0)])
    def test_one_integral_pair_per_step(self, nu, mu, calls, monkeypatch):
        # the integrals do not depend on the coefficient: mu != nu shares them
        import bqlab.evolve as evolve

        g = make_grid(16, 32, LY)
        p = Params(nu=nu, mu=mu, alpha=0.0, T_end=1.0, dt=0.01)
        st = make_state(gauss_mode(g, amp=1e-3), gauss_mode(g, amp=1e-4),
                        couette_plus_sine(g, 0.05, 0.25), p)
        seen = []

        def counted(*args):
            seen.append(args)
            return diffusion_integral(*args)

        monkeypatch.setattr(evolve, "diffusion_integral", counted)
        step(st, p)
        assert len(seen) == calls

    def test_shared_integrals_match_one_pair_per_coefficient(self):
        g = make_grid(8, 16, np.pi)
        t, dt = 2.0, 0.1
        for c, got in zip((0.3, 0.7), _propagators(g, (0.3, 0.7), t, dt)):
            I_full = diffusion_integral(g, t, t + dt)
            I_h1 = diffusion_integral(g, t, t + 0.5 * dt)
            ref = (np.exp(-c * I_full), np.exp(-c * I_h1), np.exp(-c * (I_full - I_h1)))
            assert all(np.array_equal(x, y) for x, y in zip(got, ref))

    def test_negative_coefficient_rejected(self):
        # the propagators trust their coefficient: Params is the guard
        for nu, mu in ((-0.1, 0.0), (0.0, -0.1)):
            with pytest.raises(ValueError):
                Params(nu=nu, mu=mu, alpha=0.0, T_end=1.0, dt=0.1)

    @pytest.mark.parametrize("t0,t1", [
        (0.0, 0.01),
        (1.995, 2.005),      # midpoint 2: every mode with xi = 2k is critical
        (7.0, 7.2),
        (123.4, 123.41),     # far from the critical layer, where cubes cancel
    ])
    def test_integral_matches_exact_rational(self, t0, t1):
        # exact integral of k^2 + (xi - k s)^2 over [t0, t1] in rational
        # arithmetic on the same float inputs
        g = make_grid(8, 16, np.pi)
        got = diffusion_integral(g, t0, t1)
        a, b = Fraction(t0), Fraction(t1)
        K, XI = meshes(g)
        assert np.any(K == 0) and np.any((K != 0) & (XI == 2.0 * K))
        for (i, j), k in np.ndenumerate(K):
            k, xi = Fraction(k), Fraction(XI[i, j])
            exact = (k * k * (b - a) + xi * xi * (b - a) - xi * k * (b * b - a * a)
                     + k * k * (b**3 - a**3) / 3)
            assert abs(got[i, j] - float(exact)) <= 1e-13 * float(exact)


class TestExactSolutions:
    def test_zero_perturbation_is_bitwise_fixed_point(self):
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=2e-3, alpha=0.5, T_end=1.0, dt=0.01)
        st = make_state(zero_field(g), zero_field(g), couette(g), p)
        for _ in range(25):
            st = step(st, p)
            assert np.all(st.omega.coeffs == 0.0)
            assert np.all(st.theta.coeffs == 0.0)

    def test_single_mode_is_nonlinear_fixed_shape(self):
        # one vorticity mode is an exact nonlinear solution: advection vanishes
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=0.1, dt=1e-3)
        om = set_mode(zero_field(g), 1, 4, 0.01)
        st = make_state(om, zero_field(g), couette(g), p)
        (d_om, _), _ = rhs_explicit(st, p)
        assert l2_norm(SpectralField(g, d_om)) < 1e-15


class TestShearedWaves:
    """Kelvin's sheared waves (Craik & Criminale, Proc. R. Soc. Lond. A 406,
    1986): on Couette, omega and theta of one phase k X + xi Y have
    u . grad_t = 0 at every point, so the full nonlinear step follows each
    harmonic's linear 2x2 ODE.  Two harmonics on one line, both kept by the
    2/3 rule, make the products and the dealias run while the answer stays
    exact; each runs on a fresh grid and on one whose transform workspace a
    pass on other data has used (``warm``)."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("amp", [1e-3, 50.0])
    def test_coupled_harmonics_follow_reference(self, amp, warm):
        g = make_grid(16, 32, LY)
        if warm:
            use_workspace(g)
        w0, th0 = (1.0, 0.5 - 0.3j), (0.4j, 0.2)
        p = Params(nu=1e-2, mu=3e-2, alpha=0.5, T_end=2.0, dt=2e-3)
        st = make_state(sheared_wave(g, amp * np.array(w0)),
                        sheared_wave(g, amp * np.array(th0)), couette(g), p)
        final = run(st, p, stride=10**6).final_state
        ref = amp * sheared_wave_reference(w0, th0, p.nu, p.mu, p.alpha, p.T_end)
        for name, want in zip(("omega", "theta"), ref):
            got = getattr(final, name)
            for n, c in enumerate(want, 1):
                assert abs(mode(got, n, 4 * n) - c) <= 1e-9 * abs(c), (name, n)
            want_field = sheared_wave(g, want)
            assert g.rms(got.coeffs - want_field.coeffs) <= 1e-9 * l2_norm(want_field), name

    @pytest.mark.parametrize("warm", [False, True])
    def test_long_time_closed_form(self, warm):
        # alpha = theta = 0: each harmonic decays by exp(-nu int g), to k t = 12
        # and 24, far past the Orr peak at t = 1
        g = make_grid(16, 32, LY)
        if warm:
            use_workspace(g)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=12.0, dt=0.02)
        om0 = sheared_wave(g, [1.0, 0.5j])
        final = run(make_state(om0, zero_field(g), couette(g), p), p, stride=10**6).final_state
        t = final.t
        assert abs(t - 12.0) < 1e-9
        want = []
        for k in (1, 2):  # xi = k
            integral = k**2 * t + (k**3 - (k - k * t) ** 3) / (3.0 * k)
            want.append(mode(om0, k, 4 * k) * math.exp(-p.nu * integral))
        want_field = sheared_wave(g, want)
        assert g.rms(final.omega.coeffs - want_field.coeffs) <= 1e-12 * l2_norm(want_field)
        assert not final.theta.coeffs.any()


class TestConservation:
    def test_inviscid_enstrophy_and_divergence(self):
        g = make_grid(64, 64, 2 * np.pi)
        p = Params(nu=0.0, mu=0.0, alpha=0.0, T_end=0.25, dt=2e-3,
                   check_divergence=True)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.05 * np.cos(X) * np.exp(-Y**2)
            + 0.03 * np.sin(2 * X + 1) * np.exp(-((Y - 1) ** 2))))
        set_mode(om, 0, 0, 0.0)
        st = make_state(om, zero_field(g), couette(g), p)
        e0 = l2_norm(st.omega)
        traj = run(st, p, stride=100)
        drift = abs(l2_norm(traj.final_state.omega) - e0) / e0 / p.T_end
        assert drift <= 1e-6
        assert traj.max_divergence <= 1e-12

    def test_uy_keeps_zero_x_average(self):
        g = make_grid(32, 64, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=0.05, dt=5e-3)
        st = make_state(gauss_mode(g), gauss_mode(g, amp=0.01), couette(g), p)
        for _ in range(10):
            st = step(st, p)
            _, uy = velocity_from_psi(st.psi.coeffs, st.frame)
            assert l2_norm(project_modes(SpectralField(g, uy), "zero")) == 0.0


class TestConvergenceOrder:
    def test_self_convergence_order(self):
        # nonlinear run with all couplings active; Richardson against dt/4
        g = make_grid(32, 64, 2 * np.pi)
        prof = couette_plus_sine(g, 0.03, 0.5)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.08 * np.cos(X) * np.exp(-Y**2)
            + 0.04 * np.sin(2 * X) * np.exp(-((Y - 0.5) ** 2))))
        set_mode(om, 0, 0, 0.0)
        th = dealias(field_from_function(
            g, lambda X, Y: 0.05 * np.sin(X) * np.exp(-Y**2)))
        T = 0.08
        finals = {}
        for dt in (8e-3, 4e-3, 2e-3):
            p = Params(nu=2e-3, mu=4e-3, alpha=0.5, T_end=T, dt=dt)
            st = make_state(om, th, prof, p)
            while st.t < T - 1e-12:
                st = step(st, p)
            finals[dt] = st.omega.coeffs
        e_coarse = g.rms(finals[8e-3] - finals[2e-3])
        e_fine = g.rms(finals[4e-3] - finals[2e-3])
        order = math.log(e_coarse / e_fine) / math.log(2.0)
        assert order >= 2.5

    def test_exact_diffusion_means_no_stiff_error(self):
        # a sheared wave's advection vanishes, so its diagonal diffusion is
        # integrated exactly regardless of dt
        g = make_grid(16, 32, LY)
        p = Params(nu=0.5, mu=0.5, alpha=0.0, T_end=1.0, dt=0.25)
        om0 = sheared_wave(g, [1e-4, 5e-5])
        st = make_state(om0, zero_field(g), couette(g), p)
        traj = run(st, p, stride=100)
        t = traj.final_state.t
        K, XI = meshes(g)
        safe = np.where(K != 0, K, 1.0)
        integral = K**2 * t + np.where(
            K != 0, (XI**3 - (XI - K * t) ** 3) / (3.0 * safe), XI**2 * t)
        expected = SpectralField(g, om0.coeffs * np.exp(-0.5 * integral))
        assert (g.rms(traj.final_state.omega.coeffs - expected.coeffs)
                <= 1e-12 * l2_norm(expected))


class TestGuards:
    def test_cfl_violation_reports_suggestion(self):
        g = make_grid(32, 32, np.pi)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=1.0, dt=10.0)
        st = make_state(gauss_mode(g, amp=5.0), zero_field(g), couette(g), p)
        with pytest.raises(CflError, match="suggested"):
            step(st, p)
        assert cfl_limit(st, p, state_velocity(st)) < 10.0

    @pytest.mark.parametrize("warm", [False, True])
    def test_cfl_check_reads_the_state_velocity(self, warm):
        # the step checks dt against cfl_limit of the velocity its first
        # stage makes; that limit equals the one of the state's own velocity
        # bit for bit, on a fresh workspace and on a used one: one ulp above
        # it raises and names it, at it the step runs, and neither touches
        # the input state
        g = make_grid(32, 32, np.pi)
        if warm:
            use_workspace(g)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=10.0)
        st = make_state(gauss_mode(g, amp=5.0), gauss_mode(g, amp=0.5), couette(g), p)
        before = [getattr(st, name).coeffs.copy() for name in ("omega", "theta", "psi")]
        limit = cfl_limit(st, p, state_velocity(st))
        assert limit < 10.0
        with pytest.raises(CflError) as err:
            step(st, p, math.nextafter(limit, math.inf))
        assert str(err.value).endswith(f"suggested dt <= {limit:.3e}")
        assert step(st, p, limit).t == st.t + limit
        for name, c in zip(("omega", "theta", "psi"), before):
            assert np.array_equal(getattr(st, name).coeffs, c), name

    def test_blowup_guard_labels_unstable(self, monkeypatch):
        # feed an amplitude far beyond stability at tiny viscosity
        monkeypatch.setattr("bqlab.evolve._GUARD_FACTOR", 1.5)
        g = make_grid(32, 32, np.pi)
        p = Params(nu=1e-6, mu=1e-6, alpha=0.0, T_end=20.0, dt=5e-3)
        st = make_state(gauss_mode(g, amp=2.0, width=0.8), zero_field(g),
                        couette(g), p)
        traj = run(st, p, stride=10)
        assert traj.label == "unstable"
        assert traj.stop_reason == "guard"
        assert traj.final_state.t < p.T_end

    def test_theta_only_data_does_not_trip_guard(self):
        # buoyancy seeds omega from theta; growth relative to theta is fine
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=0.3, dt=0.01)
        th = gauss_mode(g, amp=1e-4)
        st = make_state(zero_field(g), th, couette(g), p)
        traj = run(st, p, stride=5)
        assert traj.label == "stable"
        assert traj.stop_reason == "T_end"

    def test_bootstrap_stop_ends_at_first_step_past_level(self):
        # every step is tested whatever the stride: the level is first passed
        # between two 10-step samples, and the run stops on that step
        g = make_grid(16, 32, np.pi)
        kwargs = dict(nu=1e-3, mu=1e-3, alpha=0.0, T_end=1.0, dt=5e-3)

        def observer(s, q):
            return {"hN_omega": sobolev_norm(s.omega, q.N)}

        st = make_state(gauss_mode(g, amp=2.0, width=0.8), zero_field(g),
                        couette(g), Params(**kwargs))
        full = run(st, Params(**kwargs), observer=observer, stride=1)
        assert full.stop_reason == "T_end" and full.label == "stable"
        hN = full.columns["hN_omega"]
        first = int(np.argmax(hN > 1.5 * hN[0]))
        assert 0 < first < len(hN) - 1 and first % 10 != 0

        for stride in (1, 10):
            traj = run(st, Params(**kwargs, stop_factor=1.5), observer=observer,
                       stride=stride)
            assert traj.label == "unstable" and traj.stop_reason == "bootstrap"
            assert traj.n_steps == first
            assert traj.sup_hN_omega == hN[first] == np.max(hN[:first + 1])
            assert traj.t_sup_hN_omega == full.times[first]
            assert np.array_equal(traj.columns["hN_omega"],
                                  np.append(hN[:first:stride], hN[first]))

    def test_sup_is_over_every_step(self):
        # the largest H^N vorticity norm of every step and the time of the
        # first step that reached it, not the largest sample
        g = make_grid(16, 32, np.pi)
        p = Params(nu=3e-2, mu=3e-2, alpha=0.0, T_end=3.0, dt=1e-2)

        def observer(s, q):
            return {"hN_omega": sobolev_norm(s.omega, q.N)}

        st = make_state(gauss_mode(g, amp=2.0, width=0.8), zero_field(g), couette(g), p)
        every = run(st, p, observer=observer, stride=1)
        peak = int(np.argmax(every.columns["hN_omega"]))
        assert 0 < peak < every.n_steps and peak % 7 != 0
        assert every.sup_hN_omega == every.columns["hN_omega"][peak]
        assert every.t_sup_hN_omega == every.times[peak]
        sparse = run(st, p, observer=observer, stride=7)
        assert np.max(sparse.columns["hN_omega"]) < sparse.sup_hN_omega
        assert (sparse.sup_hN_omega, sparse.t_sup_hN_omega) == (
            every.sup_hN_omega, every.t_sup_hN_omega)

    @pytest.mark.parametrize("where", ["omega_t0", "theta_t0", "theta_step3"])
    def test_non_finite_state_is_never_stable(self, where, monkeypatch):
        import bqlab.evolve as evolve

        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=0.1, dt=0.01)
        st = make_state(gauss_mode(g, amp=1e-3), gauss_mode(g, amp=1e-4),
                        couette(g), p)
        if where == "theta_step3":
            real_step = evolve.step

            def poisoned(state, params, dt=None):
                new = real_step(state, params, dt)
                if abs(new.t - 0.03) < 1e-12:
                    set_mode(new.theta, 1, 0, np.nan)
                return new

            monkeypatch.setattr(evolve, "step", poisoned)
        else:
            set_mode(getattr(st, where[:-3]), 1, 0, np.nan)
        traj = run(st, p, stride=5)
        assert traj.label == "unstable" and traj.stop_reason == "non_finite"
        assert traj.n_steps == (3 if where == "theta_step3" else 0)

    def test_T_end_zero_returns_initial(self):
        g = make_grid(16, 16, np.pi)
        p = Params(nu=1e-3, mu=0.0, alpha=0.0, T_end=0.0, dt=0.01)
        st = make_state(gauss_mode(g), zero_field(g), couette(g), p)
        traj = run(st, p)
        assert traj.n_steps == 0
        assert traj.label == "stable" and traj.stop_reason == "T_end"
        assert np.array_equal(traj.final_state.omega.coeffs, st.omega.coeffs)

    def test_final_partial_step_lands_on_T_end(self):
        g = make_grid(16, 16, np.pi)
        p = Params(nu=1e-3, mu=0.0, alpha=0.0, T_end=0.025, dt=0.01)
        st = make_state(gauss_mode(g, amp=1e-3), zero_field(g), couette(g), p)
        traj = run(st, p)
        assert abs(traj.final_state.t - 0.025) < 1e-12


class TestTruncation:
    def test_doubling_Ly_leaves_solution_unchanged(self):
        # rapidly-decaying data must not feel the periodic Y truncation
        finals = {}
        for Ly, ny in ((4 * np.pi, 64), (8 * np.pi, 128)):
            g = make_grid(32, ny, Ly)
            p = Params(nu=1e-2, mu=1e-2, alpha=0.1, T_end=0.5, dt=5e-3)
            om = gauss_mode(g, amp=0.02, width=1.0)
            th = gauss_mode(g, amp=0.01, width=1.0)
            st = make_state(om, th, couette(g), p)
            traj = run(st, p, stride=1000)
            finals[Ly] = (l2_norm(traj.final_state.omega),
                          sobolev_norm(traj.final_state.omega, 3.0))
        a, b = finals[4 * np.pi], finals[8 * np.pi]
        # RMS norms scale with box size; compare via the L2 mass sqrt(2 Ly) factor
        mass_a = a[0] * math.sqrt(2 * 4 * np.pi)
        mass_b = b[0] * math.sqrt(2 * 8 * np.pi)
        assert abs(mass_a - mass_b) <= 1e-6 * mass_a


class TestStateConsistency:
    def test_psi_residual_tracked(self):
        g = make_grid(32, 64, LY)
        prof = couette_plus_sine(g, 0.05, 0.25)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=1.0, dt=0.01)
        st = make_state(gauss_mode(g), zero_field(g), prof, p)
        from bqlab.shear import laplace_t
        res = g.rms(laplace_t(st.psi.coeffs, st.frame) - st.omega.coeffs)
        assert res <= 2e-10 * l2_norm(st.omega)

    def test_divergence_free_with_frame(self):
        g = make_grid(32, 64, LY)
        prof = couette_plus_sine(g, 0.05, 0.25)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=1.0, dt=0.01)
        st = make_state(gauss_mode(g), zero_field(g), prof, p)
        assert divergence_residual(st) <= 1e-12

    def test_states_are_dealiased(self):
        g = make_grid(16, 16, np.pi)
        p = Params(nu=1e-3, mu=0.0, alpha=0.0, T_end=1.0, dt=0.01)
        rng = np.random.default_rng(0)
        noisy = SpectralField(g, rng.standard_normal(g.zeros().shape) * (1 + 0j))
        st = make_state(noisy, zero_field(g), couette(g), p)
        assert np.all(st.omega.coeffs[~g.dealias_mask] == 0.0)

    def test_replaced_velocity_refreshes_physical_values(self):
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=1.0, dt=0.01)
        st = make_state(gauss_mode(g), zero_field(g), couette_plus_sine(g, 0.05, 0.25), p)
        assert np.max(np.abs(state_velocity(st)[0])) > 0.0
        moved = dataclasses.replace(st, psi=zero_field(g))
        for u in state_velocity(moved):
            assert np.max(np.abs(u)) == 0.0


class TestStateFootprint:
    """A state holds omega, theta, psi and the frame; the velocity is made
    where it is read, once per stage."""

    @staticmethod
    def state():
        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=0.01)
        return make_state(gauss_mode(g), gauss_mode(g, amp=0.01), couette(g), p), p

    def test_state_holds_four_fields(self):
        names = [f.name for f in dataclasses.fields(SimState)]
        assert names == ["omega", "theta", "psi", "frame"]
        st, p = self.state()
        assert list(vars(step(st, p))) == names

    def test_transforms_per_step(self, monkeypatch):
        # a grid of more than 4,096 points, where the stages once made 24
        # calls, and a live theta: each of the 3 stages makes one inverse of
        # the stack of its velocity pair and the gradients of omega and
        # theta, and one forward of the two products
        import bqlab.evolve as evolve

        calls = {"inverse": [], "forward": []}

        def counted(kind, fn, arg):
            def wrapper(*args, **kwargs):
                calls[kind].append(len(args[arg] if arg else args[0].coeffs))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evolve, "to_physical", counted("inverse", evolve.to_physical, 0))
        monkeypatch.setattr(evolve, "field_from_physical",
                            counted("forward", evolve.field_from_physical, 1))
        g = make_grid(64, 128, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=0.01)
        st = make_state(gauss_mode(g), gauss_mode(g, amp=0.01), couette(g), p)
        assert calls == {"inverse": [], "forward": []}
        for _ in range(3):
            st = step(st, p)
            assert st.theta.coeffs.any()
            assert calls == {"inverse": [6] * 3, "forward": [2] * 3}
            calls.update(inverse=[], forward=[])

    def test_stacked_transforms_per_step(self, monkeypatch):
        # at every grid size a stage's inverse is one ifft along Y of the
        # kept rows of the stack of 6 and one irfft along X, its forward one
        # rfft of the 2 products and one fft along Y of their kept rows: no
        # 2D transform of numpy runs
        calls = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, a.shape))
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("irfftn", "rfftn", "irfft", "rfft", "ifft", "fft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        for nx, ny in ((32, 64), (64, 128)):
            g = make_grid(nx, ny, LY)
            p = Params(nu=1e-3, mu=1e-3, alpha=0.1, T_end=1.0, dt=0.01)
            st = make_state(gauss_mode(g), gauss_mode(g, amp=0.01), couette(g), p)
            kept, half = nx // 3 + 1, nx // 2 + 1
            stage = [("ifft", (6, kept, ny)), ("irfft", (6, half, ny)),
                     ("rfft", (2, nx, ny)), ("fft", (2, kept, ny))]
            for _ in range(2):
                calls.clear()
                st = step(st, p)
                assert st.theta.coeffs.any()
                assert calls == stage * 3


class TestOnePass:
    """The stage's one transform pass on the grid's workspace equals the
    general transforms of each array on its own, followed by the 2/3 mask,
    at every grid size, and keeps the band limit it relies on."""

    SHAPES = [(16, 32), (32, 64), (64, 128), (32, 256), (256, 256)]
    CASES = {
        "couette_live_theta": (couette, 0.1, 0.01),
        "couette_zero_theta": (couette, 0.0, 0.0),
        "near_couette": (lambda g: couette_plus_sine(g, 0.05, 0.25), 0.1, 0.01),
        "near_couette_zero_theta": (lambda g: couette_plus_sine(g, 0.05, 0.25), 0.0, 0.0),
    }

    @classmethod
    def state(cls, g, case, t=0.0):
        make_profile, alpha, theta_amp = cls.CASES[case]
        p = Params(nu=1e-3, mu=2e-3, alpha=alpha, T_end=1.0, dt=0.01)
        theta = gauss_mode(g, amp=theta_amp, shift=1.0) if theta_amp else zero_field(g)
        return make_state(gauss_mode(g), theta, make_profile(g), p, t=t), p

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("nx, ny", SHAPES)
    def test_pass_equals_general_transforms(self, nx, ny, case):
        # twice on one grid, at two frame times: the second pass runs on the
        # workspace the first one used
        g = make_grid(nx, ny, LY)
        for t in (0.0, 1.5):
            st, _ = self.state(g, case, t)
            th = st.theta.coeffs
            arrays = (st.omega.coeffs, th) if th.any() else (st.omega.coeffs,)
            terms, u = advection_term(arrays, st)
            want, want_u = ref_advection_term(arrays, st)
            assert len(terms) == len(want) == len(arrays)
            for got, ref in zip(terms, want):
                assert ref.any() and np.array_equal(got, ref)
            for got, ref in zip(u, want_u):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("case", CASES)
    def test_steps_equal_per_array_reference(self, case, monkeypatch):
        # five steps with the one pass and five with the per-array
        # transforms in its place: every coefficient is equal
        import bqlab.evolve as evolve

        g = make_grid(32, 64, LY)
        finals = []
        for advect in (evolve.advection_term, ref_advection_term):
            monkeypatch.setattr(evolve, "advection_term", advect)
            st, p = self.state(g, case)
            for _ in range(5):
                st = step(st, p)
            finals.append(st)
        one_pass, per_array = finals
        assert one_pass.omega.coeffs.any()
        assert one_pass.theta.coeffs.any() == bool(self.CASES[case][2])
        for name in ("omega", "theta", "psi"):
            assert np.array_equal(getattr(one_pass, name).coeffs,
                                  getattr(per_array, name).coeffs), name

    @pytest.mark.parametrize("case", ["couette_live_theta", "near_couette"])
    def test_fields_stay_inside_the_mask(self, case):
        # the pass reads only the rows k <= nx/3 of its inputs: omega,
        # theta, psi and the velocity pair must be zero outside the 2/3 mask
        g = make_grid(32, 64, LY)
        st, p = self.state(g, case)
        outside = ~g.dealias_mask
        for _ in range(5):
            st = step(st, p)
            for name in ("omega", "theta", "psi"):
                assert not getattr(st, name).coeffs[outside].any(), name
            for c in velocity_from_psi(st.psi.coeffs, st.frame):
                assert not c[outside].any()
        assert st.omega.coeffs.any() and st.theta.coeffs.any()

    def test_workspace_rows_above_the_band_stay_zero(self):
        # steps with passes on 6 fields (live theta) and on 4 (zero theta)
        # share one allocation and leave the rows k > nx/3 of all of it zero
        g = make_grid(64, 128, LY)
        spec = None
        for case in ("near_couette", "couette_zero_theta", "near_couette"):
            st, p = self.state(g, case)
            step(st, p)
            got, _ = g.workspace(6)
            assert spec is None or got.base is spec.base
            spec = got
            assert spec.shape == (6, g.nx // 2 + 1, g.ny)
            assert spec[:, g._kept_rows].any()
            assert not spec[:, g._kept_rows.stop:].any()


class TestShearFollowingGuess:
    def test_fewer_iterations_than_previous_psi(self, monkeypatch):
        # each stage solve of a near-Couette step, restarted twice: from the
        # shear-following guess the step passes, and from the previous
        # stage's psi (prev = (omega, psi_prev, frame) makes the guess psi_prev)
        import bqlab.evolve as evolve
        import bqlab.shear as shear

        g = make_grid(32, 64, LY)
        p = Params(nu=1e-3, mu=1e-3, alpha=0.0, T_end=1.0, dt=0.01)
        st = make_state(gauss_mode(g), gauss_mode(g, amp=0.01, shift=1.0),
                        couette_plus_sine(g, 0.05, 0.25), p)
        solves = []
        solve = shear.invert_laplace_t

        def recorded(omega, frame, **kw):
            solves.append((omega, frame, kw))
            return solve(omega, frame, **kw)

        monkeypatch.setattr(evolve, "invert_laplace_t", recorded)
        step(st, p)
        assert len(solves) == 3

        calls = []
        lap = shear.laplace_t
        monkeypatch.setattr(shear, "laplace_t",
                            lambda *a: calls.append(1) or lap(*a))

        def residual(omega, psi, frame):
            # the solver's residual: k = 0 row projected on its range
            r = omega - lap(psi, frame)
            r0 = ifft_y(r[0])
            r[0] = fft_y(r0 - np.mean(r0 / frame.a) * frame.a)
            return g.rms(r)

        counts = {"shear": 0, "psi_prev": 0}
        for omega, frame, kw in solves:
            _, psi_prev, _ = kw["prev"]
            for name, prev in (("shear", kw["prev"]), ("psi_prev", (omega, psi_prev, frame))):
                calls.clear()
                psi = solve(omega, frame, prev=prev)
                counts[name] += len(calls)
                # 1e-10: the solve's default tolerance, which the stepper uses
                assert residual(omega, psi, frame) <= 1e-10 * g.rms(omega)
        assert counts["shear"] < counts["psi_prev"]


class TestFrameTables:
    """The sheared-wavenumber tables are built once per stage time, by the
    frame, and the in-place stepper keeps every float of the parent's
    field arithmetic."""

    @pytest.mark.parametrize("sine", [False, True])
    def test_one_table_build_per_new_stage_time(self, sine, monkeypatch):
        import bqlab.shear as shear

        g = make_grid(16, 32, LY)
        p = Params(nu=1e-3, mu=2e-3, alpha=0.1, T_end=1.0, dt=0.01)
        prof = couette_plus_sine(g, 0.05, 0.25) if sine else couette(g)
        st = make_state(gauss_mode(g, amp=1e-3), gauss_mode(g, amp=1e-4), prof, p)
        built = []

        def counted(grid, t):
            built.append(t)
            return mode_tables(grid, t)

        monkeypatch.setattr(shear, "mode_tables", counted)
        st2 = step(st, p)
        step(st2, p)
        # t + dt/2 and t + dt; the tables of t come with state.frame
        assert built == [st.t + 0.005, st.t + 0.01, st2.t + 0.005, st2.t + 0.01]

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("sine, alpha", [
        (False, 0.2), (True, 0.2), (False, 0.0), (True, 0.0)])
    def test_step_bit_equal_to_field_arithmetic(self, sine, alpha, warm):
        # the reference transforms field by field, the step in one pass on
        # a fresh workspace or on one a pass on other data has used
        g = make_grid(32, 64, LY)
        if warm:
            use_workspace(g)
        p = Params(nu=1e-3, mu=3e-3, alpha=alpha, T_end=1.0, dt=0.01)
        prof = couette_plus_sine(g, 0.05, 0.25) if sine else couette(g)
        st = make_state(gauss_mode(g), gauss_mode(g, amp=0.01, shift=1.0), prof, p)
        for _ in range(2):
            got, want = step(st, p), ref_step(st, p)
            for name in ("omega", "theta", "psi"):
                assert (getattr(got, name).coeffs.tobytes()
                        == getattr(want, name).coeffs.tobytes()), name
            st = got

    def test_inviscid_step_skips_unit_propagators(self):
        # nu = mu = 0: the stage sums apply no propagator, and every value
        # equals the field arithmetic that multiplies by 1.0 (== ignores the
        # sign of a zero, the only thing the product changes)
        g = make_grid(32, 64, LY)
        p = Params(nu=0.0, mu=0.0, alpha=0.2, T_end=1.0, dt=0.01)
        st = make_state(gauss_mode(g), gauss_mode(g, amp=0.01, shift=1.0), couette(g), p)
        got, want = step(st, p), ref_step(st, p)
        for name in ("omega", "theta", "psi"):
            assert np.all(getattr(got, name).coeffs == getattr(want, name).coeffs), name


class TestDeadTheta:
    """While theta has no nonzero coefficient, rhs_explicit skips every
    theta-linear term: they are exactly zero, so the tendencies equal the
    reference that computes them all."""

    @staticmethod
    def state(sine, mu, alpha):
        g = make_grid(32, 64, LY)
        p = Params(nu=1e-3, mu=mu, alpha=alpha, T_end=1.0, dt=0.01)
        prof = couette_plus_sine(g, 0.05, 0.25) if sine else couette(g)
        return make_state(gauss_mode(g), zero_field(g), prof, p), p

    @pytest.mark.parametrize("sine, mu, alpha", [
        (False, 1e-3, 0.0), (True, 3e-3, 0.0), (True, 3e-3, 0.2)])
    def test_equals_reference_on_zero_theta(self, sine, mu, alpha):
        st, p = self.state(sine, mu, alpha)
        # == ignores the sign of a zero, the only thing a skipped term changes
        for got, want in zip(rhs_explicit(st, p)[0], ref_rhs_explicit(st, p)):
            assert np.all(got == want)

    def test_theta_advected_only_when_nonzero(self, monkeypatch):
        # one advected field, then two: the pass transforms a stack of the
        # velocity pair and the gradients of each advected field
        import bqlab.evolve as evolve

        calls = []

        def counted(arrays, state):
            calls.append(len(arrays))
            return advection_term(arrays, state)

        def inverse(f, **kwargs):
            calls.append(len(f.coeffs))
            return to_physical(f, **kwargs)

        monkeypatch.setattr(evolve, "advection_term", counted)
        monkeypatch.setattr(evolve, "to_physical", inverse)
        st, p = self.state(False, 1e-3, 0.0)
        rhs_explicit(st, p)
        assert calls == [1, 4]
        set_mode(st.theta, 1, 0, 1e-6)
        calls.clear()
        rhs_explicit(st, p)
        assert calls == [2, 6]

    def test_alpha_source_brings_theta_alive(self):
        st, p = self.state(True, 3e-3, 0.2)
        assert not st.theta.coeffs.any()
        assert step(st, p).theta.coeffs.any()


# The stepper as it was written on field arithmetic, now on coefficient
# arrays with the same floating-point operations, and with each symbol built
# from the wavenumber meshes: the reference for the in-place stepper and the
# frame's tables.

def ref_velocity(state):
    """(u^X, u^Y) = (-a dYL psi, dX psi), as coefficient arrays."""
    K, XI = meshes(state.grid)
    psi, frame = state.psi.coeffs, state.frame
    dyl = psi * (1j * (XI - K * state.t))
    ux = -dyl if frame.is_couette else -1.0 * multiply_y_profile(state.grid, dyl, frame.a)
    return ux, psi * (1j * K)


def ref_rhs_explicit(state, params):
    g, t, frame = state.grid, state.t, state.frame
    K, XI = meshes(g)
    eta = XI - K * t
    zero = g.zeros()
    om, th, psi = state.omega.coeffs, state.theta.coeffs, state.psi.coeffs
    ux, uy = ref_velocity(state)
    ux_phys, uy_phys = (to_physical(SpectralField(g, u)) for u in (ux, uy))

    def advection(c):
        fx = to_physical(SpectralField(g, c * (1j * K)))
        fy = to_physical(SpectralField(g, c * (1j * eta)))
        if not frame.is_couette:
            fy = fy * frame.a[None, :]
        prod = ux_phys * fx + uy_phys * fy
        return dealias(field_from_physical(g, prod)).coeffs

    def frame_diffusion(c):
        return multiply_y_profile(g, c * -(eta**2), frame.a2m1)

    lift = zero if frame.is_couette else multiply_y_profile(g, psi * (1j * K), frame.b)
    d_om = lift + th * (1j * K)
    d_th = (-params.alpha) * uy if params.alpha != 0 else zero
    d_om = d_om - advection(om)
    d_th = d_th - advection(th)
    if not frame.is_couette:
        d_om = d_om + params.nu * frame_diffusion(om)
        d_th = d_th + params.mu * frame_diffusion(th)
        if params.mu != params.nu:
            d_th = d_th + (params.mu - params.nu) * multiply_y_profile(
                g, th * (1j * eta), frame.b)
    return d_om, d_th


def ref_step(state, params):
    from bqlab.shear import build_frame, invert_laplace_t

    dt, t, g = params.dt, state.t, state.grid
    (Ef_o, Eh1_o, Eh2_o), (Ef_t, Eh1_t, Eh2_t) = _propagators(
        g, (params.nu, params.mu), t, dt)

    def stage(om_c, th_c, ts, prev, frame=None):
        if frame is None:
            frame = build_frame(state.frame.profile, params.nu, ts)
        psi = invert_laplace_t(om_c, frame, prev=(prev.omega.coeffs, prev.psi.coeffs,
                                                  prev.frame))
        return SimState(SpectralField(g, om_c), SpectralField(g, th_c),
                        SpectralField(g, psi), frame)

    om, th = state.omega.coeffs, state.theta.coeffs
    n1_om, n1_th = ref_rhs_explicit(state, params)
    u2_om = Eh1_o * (om + 0.5 * dt * n1_om)
    u2_th = Eh1_t * (th + 0.5 * dt * n1_th)
    s2 = stage(u2_om, u2_th, t + 0.5 * dt, state)
    n2_om, n2_th = ref_rhs_explicit(s2, params)
    u3_om = Ef_o * (om - dt * n1_om) + 2.0 * dt * Eh2_o * n2_om
    u3_th = Ef_t * (th - dt * n1_th) + 2.0 * dt * Eh2_t * n2_th
    s3 = stage(u3_om, u3_th, t + dt, s2)
    n3_om, n3_th = ref_rhs_explicit(s3, params)
    om_new = Ef_o * om + (dt / 6.0) * (Ef_o * n1_om + 4.0 * Eh2_o * n2_om + n3_om)
    th_new = Ef_t * th + (dt / 6.0) * (Ef_t * n1_th + 4.0 * Eh2_t * n2_th + n3_th)
    return stage(om_new, th_new, t + dt, s3, frame=s3.frame)
