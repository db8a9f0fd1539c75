"""Finite-difference cross-check solver."""

import numpy as np
import pytest

from bqlab import oracle
from bqlab.evolve import Params, make_state, run
from bqlab.grid import dealias, field_from_function, make_grid
from bqlab.initial_data import single_mode
from bqlab.oracle import (
    FdStabilityError,
    FdState,
    compare_runs,
    fd_run,
    fd_step,
    fd_stability_limit,
    fd_velocity,
    make_fd_initial,
    poisson_fd,
)
from bqlab.shear import couette, couette_plus_sine, heat_evolve_shear
from layout import ref_poisson_fd, set_mode, theta_integral

LY = 2 * np.pi


def compact(grid, amp, kx=1, width=1.0):
    XX, YY = np.meshgrid(grid.X, grid.Y, indexing="ij")
    out = amp * np.cos(kx * XX) * np.exp(-((YY / width) ** 2))
    out[:, 0] = 0.0
    return out


class TestPoisson:
    def test_manufactured_solution(self):
        g = make_grid(64, 64, LY)
        XX, YY = np.meshgrid(g.X, g.Y, indexing="ij")
        psi_true = np.sin(XX) * np.exp(-(YY**2))
        hy = 2 * g.Ly / g.ny
        hx = 2 * np.pi / g.nx
        lap = ((np.roll(psi_true, -1, 0) - 2 * psi_true + np.roll(psi_true, 1, 0)) / hx**2)
        pad = np.zeros_like(psi_true)
        pad[:, 1:-1] = (psi_true[:, 2:] - 2 * psi_true[:, 1:-1] + psi_true[:, :-2]) / hy**2
        pad[:, 0] = (psi_true[:, 1] - 2 * psi_true[:, 0]) / hy**2
        pad[:, -1] = (-2 * psi_true[:, -1] + psi_true[:, -2]) / hy**2
        rhs = lap + pad
        rhs[:, 0] = 0.0
        psi = poisson_fd(rhs, g)
        # discrete inverse of the same stencil: should match closely inside
        assert np.max(np.abs(psi - psi_true)[:, 2:-2]) < 5e-3

    def test_zero_maps_to_zero(self):
        g = make_grid(16, 16, LY)
        assert np.max(np.abs(poisson_fd(np.zeros((16, 16)), g))) == 0.0

    @pytest.mark.parametrize("nx, ny", [(16, 16), (32, 64), (64, 32), (128, 128)])
    def test_matches_banded_solve(self, nx, ny):
        g = make_grid(nx, ny, LY)
        omega = np.random.default_rng(nx + ny).standard_normal((nx, ny))
        want = ref_poisson_fd(omega, g)
        assert np.max(np.abs(poisson_fd(omega, g) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("k, m", [(0, 1), (2, 3), (8, 31)])
    def test_sine_eigenmode(self, k, m):
        # sin(pi m j/ny) cos(k x) maps to itself over lam_m - k^2
        g = make_grid(16, 32, LY)
        hy = 2 * g.Ly / g.ny
        lam = (2 * np.cos(np.pi * m / g.ny) - 2) / hy**2
        omega = np.outer(np.cos(k * g.X), np.sin(np.pi * m * np.arange(g.ny) / g.ny))
        want = omega / (lam - k**2)
        assert np.max(np.abs(poisson_fd(omega, g) - want)) <= 1e-13 * np.max(np.abs(want))


class TestFdStep:
    def test_zero_state_stays_zero(self):
        g = make_grid(32, 32, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.1, dt=1e-3)
        st = FdState(0.0, np.zeros((32, 32)), np.zeros((32, 32)))
        st = fd_step(st, p, couette(g), g)
        assert np.max(np.abs(st.omega)) == 0.0
        assert np.max(np.abs(st.theta)) == 0.0

    def test_pure_diffusion_rate(self):
        # no background: one Fourier mode decays at nu(k^2+xi^2).  It is an
        # eigenfunction of the discrete Laplacian, so psi is a multiple of
        # omega and the centred-difference advection vanishes at every node
        g = make_grid(64, 64, LY)
        nu = 1e-2
        p = Params(nu=nu, mu=nu, alpha=0.0, T_end=0.5, dt=2e-3)
        XX, YY = np.meshgrid(g.X, g.Y, indexing="ij")
        k, xi = 1, 1.0
        om0 = np.cos(k * XX) * np.sin(xi * (YY + g.Ly))  # vanishes at both walls
        st = FdState(0.0, om0.copy(), np.zeros_like(om0))
        st = fd_run(st, p, None, g, 0.5)
        # exclude wall bands from the rate fit
        inner = (slice(None), slice(8, -8))
        ratio = np.linalg.norm(st.omega[inner]) / np.linalg.norm(om0[inner])
        rate = -np.log(ratio) / 0.5
        expected = nu * (k**2 + xi**2)
        assert abs(rate - expected) <= 0.01 * expected

    def test_stability_limit_enforced(self):
        g = make_grid(32, 32, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=1.0, dt=1.0)
        st = FdState(0.0, compact(g, 0.1), np.zeros((32, 32)))
        with pytest.raises(FdStabilityError):
            fd_step(st, p, couette(g), g)
        ux, uy = fd_velocity(poisson_fd(st.omega, g), g)
        ub = heat_evolve_shear(couette(g), p.nu, st.t)(g.Y)
        assert fd_stability_limit(ux, uy, ub, p, g) < 1.0

    def test_two_poisson_solves_per_step(self, monkeypatch):
        # the stability limit reads the first stage's velocity
        g = make_grid(16, 16, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.1, dt=1e-3)
        calls = []

        def counted(omega, grid):
            calls.append(1)
            return poisson_fd(omega, grid)

        monkeypatch.setattr(oracle, "poisson_fd", counted)
        fd_step(FdState(0.0, compact(g, 0.01), compact(g, 0.005)), p, couette(g), g)
        assert len(calls) == 2

    def test_theta_mass_conserved(self):
        g = make_grid(64, 64, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.3, dt=2e-3)
        st = FdState(0.0, compact(g, 0.02), compact(g, 0.01) + 0.005 *
                     np.exp(-((np.meshgrid(g.X, g.Y, indexing="ij")[1]) ** 2)))
        st.theta[:, 0] = 0.0
        m0 = theta_integral(st, g)
        st = fd_run(st, p, couette(g), g, 0.3)
        m1 = theta_integral(st, g)
        assert abs(m1 - m0) / 0.3 <= 1e-8


class TestCrossValidation:
    def test_t0_identity(self):
        g = make_grid(64, 64, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.1, dt=1e-3)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.01 * np.cos(X) * np.exp(-Y**2)))
        st = make_state(om, single_mode(g, 1e-3, 5.0), couette(g), p)
        fd0 = make_fd_initial(st)
        assert compare_runs(st, fd0) <= 1e-8

    def test_short_nonlinear_agreement_couette(self):
        g = make_grid(64, 64, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.25, dt=1e-3)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.01 * np.cos(X) * np.exp(-Y**2)))
        set_mode(om, 0, 0, 0.0)
        th = dealias(field_from_function(
            g, lambda X, Y: 0.005 * np.sin(X) * np.exp(-Y**2)))
        st = make_state(om, th, couette(g), p)
        fd0 = make_fd_initial(st)
        traj = run(st, p, stride=10**9)
        fd = fd_run(fd0, p, couette(g), g, p.T_end, dt=2e-3)
        assert compare_runs(traj.final_state, fd) <= 5e-3

    def test_near_couette_frame_agreement(self):
        # exercises the lift term and the y <-> Y maps end to end
        g = make_grid(64, 64, LY)
        prof = couette_plus_sine(g, 0.02, 0.5)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.2, T_end=0.2, dt=1e-3)
        om = dealias(field_from_function(
            g, lambda X, Y: 0.01 * np.cos(X) * np.exp(-Y**2)))
        set_mode(om, 0, 0, 0.0)
        th = dealias(field_from_function(
            g, lambda X, Y: 0.005 * np.sin(X) * np.exp(-Y**2)))
        st = make_state(om, th, prof, p)
        fd0 = make_fd_initial(st)
        traj = run(st, p, stride=10**9)
        fd = fd_run(fd0, p, prof, g, p.T_end, dt=1e-3)
        assert compare_runs(traj.final_state, fd) <= 1e-2

    def test_time_mismatch_rejected(self):
        g = make_grid(32, 32, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.1, dt=1e-3)
        st = make_state(single_mode(g, 1e-3, 5.0), single_mode(g, 1e-4, 5.0),
                        couette(g), p)
        with pytest.raises(ValueError, match="time"):
            compare_runs(st, FdState(0.5, np.zeros((32, 32)), np.zeros((32, 32))))

    def test_grid_mismatch_rejected(self):
        g = make_grid(32, 32, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.1, dt=1e-3)
        st = make_state(single_mode(g, 1e-3, 5.0), single_mode(g, 1e-4, 5.0),
                        couette(g), p)
        with pytest.raises(ValueError, match="grid"):
            compare_runs(st, FdState(0.0, np.zeros((16, 16)), np.zeros((16, 16))))

    def test_identical_zero_runs_agree_exactly(self):
        g = make_grid(32, 32, LY)
        p = Params(nu=1e-2, mu=1e-2, alpha=0.0, T_end=0.05, dt=1e-3)
        st = make_state(field_from_function(g, lambda X, Y: 0.0 * X),
                        field_from_function(g, lambda X, Y: 0.0 * X), couette(g), p)
        fd = fd_run(make_fd_initial(st), p, couette(g), g, 0.05)
        traj = run(st, p, stride=10**9)
        assert compare_runs(traj.final_state, fd) == 0.0
