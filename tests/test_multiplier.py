"""Decaying Fourier weight: closed form, bounds and the norm operator."""

import numpy as np

from bqlab import multiplier
from bqlab.grid import (
    SpectralField,
    dealias,
    field_from_physical,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from bqlab.multiplier import (
    LOWER_BOUND,
    eval_M,
    eval_Mdot_over_M,
    make_multiplier,
    property_report,
)
from layout import apply_A, apply_dissipation_weight, index, meshes, project_modes


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    f = field_from_physical(grid, rng.standard_normal((grid.nx, grid.ny)))
    K, XI = meshes(grid)
    return dealias(SpectralField(grid, f.coeffs * (1 + K**2 + XI**2) ** -3.0))


class TestClosedForm:
    def test_one_at_t_zero(self):
        k = np.array([1, -3, 7])
        xi = np.array([0.5, -2.0, 11.0])
        assert np.allclose(eval_M(0.0, k, xi), 1.0)

    def test_one_on_k_zero(self):
        assert eval_M(17.0, 0, 3.3) == 1.0
        assert eval_Mdot_over_M(17.0, 0, 3.3) == 0.0

    def test_rate_at_critical_time(self):
        # k=1, xi=1, t=1 sits on xi = k t: rate is -1/(1+0)
        assert abs(eval_Mdot_over_M(1.0, 1, 1.0) - (-1.0)) < 1e-15

    def test_rate_matches_log_derivative(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.1, 50.0, 2000)
        k = rng.integers(1, 20, 2000) * rng.choice([-1, 1], 2000)
        xi = rng.uniform(-40, 40, 2000)
        dt = 1e-5
        fd = (np.log(eval_M(t + dt, k, xi)) - np.log(eval_M(t - dt, k, xi))) / (2 * dt)
        assert np.max(np.abs(fd - eval_Mdot_over_M(t, k, xi))) < 1e-6

    def test_bounds(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0.0, 200.0, 20000)
        k = rng.integers(1, 33, 20000) * rng.choice([-1, 1], 20000)
        xi = rng.uniform(-64, 64, 20000)
        m = eval_M(t, k, xi)
        assert np.all(m <= 1.0 + 1e-15)
        assert np.all(m >= LOWER_BOUND)

    def test_monotone_nonincreasing(self):
        t = np.linspace(0, 30, 200)
        for k, xi in [(1, 2.0), (-2, -5.0), (5, 0.0)]:
            m = eval_M(t, k, xi)
            assert np.all(np.diff(m) <= 1e-15)

    def test_symmetric_under_mode_reflection(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0, 50, 500)
        k = rng.integers(1, 10, 500)
        xi = rng.uniform(-20, 20, 500)
        assert np.allclose(eval_M(t, k, xi), eval_M(t, -k, -xi), rtol=0, atol=1e-15)


class TestWeightOperator:
    def test_A_at_time_zero_is_sobolev(self):
        g = make_grid(16, 32, np.pi)
        table = make_multiplier(5.0)
        f = random_field(g, seed=3)
        assert abs(l2_norm(apply_A(f, table, 0.0)) - sobolev_norm(f, 5.0)) < 1e-13

    def test_norm_equivalence(self):
        g = make_grid(16, 32, np.pi)
        table = make_multiplier(4.0)
        f = random_field(g, seed=4)
        hN = sobolev_norm(f, 4.0)
        for t in (0.0, 0.5, 3.0, 50.0):
            an = l2_norm(apply_A(f, table, t))
            assert an <= hN * (1 + 1e-13)
            assert an >= LOWER_BOUND * hN * (1 - 1e-13)

    def test_zero_field(self):
        g = make_grid(8, 8, 1.0)
        table = make_multiplier(2.0)
        f = SpectralField(g, g.zeros())
        assert l2_norm(apply_A(f, table, 1.0)) == 0.0

    def test_commutes_with_projection(self):
        g = make_grid(16, 16, np.pi)
        table = make_multiplier(3.0)
        f = random_field(g, seed=5)
        for which in ("zero", "nonzero"):
            a = apply_A(project_modes(f, which), table, 2.0)
            b = project_modes(apply_A(f, table, 2.0), which)
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_dissipation_weight_kills_zero_column(self):
        g = make_grid(16, 16, np.pi)
        table = make_multiplier(3.0)
        f = random_field(g, seed=6)
        w = apply_dissipation_weight(f, table, 1.0)
        assert l2_norm(project_modes(w, "zero")) == 0.0

    def test_dissipation_weight_at_critical_mode(self):
        # at (k=1, xi = t) the squared weight is M^2 (N = 0), bounded below by c^2
        g = make_grid(8, 8, np.pi)
        table = make_multiplier(0.0)
        t = 1.0  # equal to the grid xi of m = 1
        w = table.dissipation_weights(g, t)[index(g, 1, 1)]
        m = eval_M(t, 1, t)
        assert abs(w**2 - m**2) < 1e-14
        assert w**2 >= LOWER_BOUND**2

    def test_weights_cover_the_stored_half_of_each_grid(self):
        table = make_multiplier(3.0)
        for nx in (16, 8):
            g = make_grid(nx, 16, np.pi)
            for weights in (table.A_weights, table.dissipation_weights):
                assert weights(g, 2.5).shape == (nx // 2 + 1, 16)

    def test_weights_read_the_mode_tables_and_equal_the_pointwise_formulas(self, monkeypatch):
        calls = []
        mode_tables = multiplier.mode_tables
        monkeypatch.setattr(multiplier, "mode_tables",
                            lambda g, t: calls.append(t) or mode_tables(g, t))
        table = make_multiplier(5.0)
        g = make_grid(16, 32, 4 * np.pi)
        k, xi, wN = g.k[:, None], g.xi, g.sobolev_weights(5.0)
        for t in (0.0, 0.37, 123.4):
            m = eval_M(t, k, xi)
            assert np.array_equal(table.A_weights(g, t), m * wN)
            rate = -eval_Mdot_over_M(t, k, xi)
            assert np.array_equal(table.dissipation_weights(g, t), m * np.sqrt(rate) * wN)
        assert calls == [0.0, 0.0, 0.37, 0.37, 123.4, 123.4]


class TestLemmaInequalities:
    def test_pointwise_enhanced_dissipation_inequality(self):
        # 1 <= C nu^-1/6 (sqrt(-Mdot M) + nu^1/2 |k, xi - k t|) at nu = 1e-3
        rng = np.random.default_rng(7)
        t = rng.uniform(0, 100, 50000)
        k = rng.integers(1, 33, 50000) * rng.choice([-1, 1], 50000)
        xi = rng.uniform(-64, 64, 50000)
        nu = 1e-3
        m = eval_M(t, k, xi)
        mdotm = m**2 * np.abs(k) / (k**2 + (xi - k * t) ** 2)
        lower = np.sqrt(mdotm) + np.sqrt(nu) * np.sqrt(k**2.0 + (xi - k * t) ** 2)
        C = np.max(nu ** (1.0 / 6.0) / lower)
        assert np.isfinite(C) and C < 30.0

    def test_l2_version_of_inequality(self):
        g = make_grid(32, 32, np.pi)
        table = make_multiplier(0.0)
        f = project_modes(random_field(g, seed=8), "nonzero")
        nu, t = 1e-3, 2.0
        w = apply_dissipation_weight(f, table, t)
        K, XI = meshes(g)
        gl = np.sqrt(K**2 + (XI - K * t) ** 2)
        grad = SpectralField(g, f.coeffs * gl)
        lhs = l2_norm(f)
        rhs = nu ** (-1.0 / 6.0) * (l2_norm(w) + np.sqrt(nu) * l2_norm(grad))
        assert lhs <= 30.0 * rhs

    def test_property_report_passes(self):
        rep = property_report(n_samples=30000)
        assert rep["pass"], rep
