"""Heat-evolved shear, frame functions, operators and the elliptic solve."""

import numpy as np
import pytest

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
from bqlab.oracle import _shear_rows
from bqlab.shear import (
    EllipticError,
    ShearError,
    build_frame,
    couette,
    couette_plus_sine,
    eval_frame_on_physical_grid,
    heat_evolve_shear,
    invert_laplace_t,
    laplace_t,
    laplace_tilde_t,
    load_profile,
    make_profile,
    velocity_from_psi,
)
from layout import (
    elliptic_defect,
    meshes,
    mode,
    project_modes,
    ref_invert_laplace_t,
    ref_laplace_t as ref_laplace_t_full,
    set_mode,
    to_sorted_full,
)

LY = 4 * np.pi


def sine_profile(grid, amplitude=0.05, wavenumber=0.25):
    return couette_plus_sine(grid, amplitude, wavenumber)


def smooth_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    f = field_from_physical(grid, rng.standard_normal((grid.nx, grid.ny)))
    K, XI = meshes(grid)
    return dealias(SpectralField(grid, f.coeffs * (1 + K**2 + XI**2) ** -3.0))


class TestProfiles:
    def test_couette_is_exact(self):
        g = make_grid(16, 64, LY)
        p = couette(g)
        assert p.is_couette
        assert p.delta == 0.0

    def test_sine_profile_delta_small(self):
        g = make_grid(16, 128, LY)
        p = sine_profile(g)
        assert 0 < p.delta < 0.1

    def test_delta_value_frozen(self):
        # regression value from the spectral-norm definition: the unit-wavenumber
        # 0.05-amplitude sine weighs in at 0.8 under s = 7
        g = make_grid(16, 128, LY)
        d = make_profile(g, g.Y + 0.05 * np.sin(g.Y), s=7.0, validate=False).delta
        assert abs(d - 0.8) < 1e-9

    def test_delta_cap_enforced(self):
        g = make_grid(16, 128, LY)
        with pytest.raises(ShearError, match="delta"):
            couette_plus_sine(g, 0.05, 1.0)  # delta = 0.8

    def test_cap_override(self):
        g = make_grid(16, 128, LY)
        p = couette_plus_sine(g, 0.05, 1.0, validate=False)
        assert p.delta > 0.1

    def test_nonmonotone_rejected(self):
        g = make_grid(16, 128, LY)
        with pytest.raises(ShearError, match="increasing"):
            make_profile(g, g.Y + 2.0 * np.sin(g.Y))

    def test_off_lattice_wavenumber_rejected(self):
        g = make_grid(16, 64, LY)
        with pytest.raises(ShearError, match="multiple"):
            couette_plus_sine(g, 0.01, 0.3)

    def test_load_profile_roundtrip(self, tmp_path):
        g = make_grid(16, 128, LY)
        y = np.linspace(-LY - 0.5, LY + 0.5, 4001)
        table = np.column_stack([y, y + 0.05 * np.sin(0.25 * y)])
        path = tmp_path / "shear.txt"
        np.savetxt(path, table)
        p = load_profile(path, g)
        ref = sine_profile(g)
        assert np.max(np.abs(heat_evolve_shear(p, 0.0, 0.0)(g.Y)
                             - heat_evolve_shear(ref, 0.0, 0.0)(g.Y))) < 1e-9

    def test_load_profile_range_check(self, tmp_path):
        g = make_grid(16, 128, LY)
        y = np.linspace(-1.0, 1.0, 100)
        path = tmp_path / "short.txt"
        np.savetxt(path, np.column_stack([y, y]))
        with pytest.raises(ShearError, match="cover"):
            load_profile(path, g)


class TestHeatEvolution:
    def test_couette_invariant(self):
        g = make_grid(8, 64, LY)
        p = couette(g)
        for t in (0.0, 0.7, 12.0):
            assert np.array_equal(heat_evolve_shear(p, 0.5, t)(g.Y), g.Y)

    def test_single_mode_decay(self):
        # U = y + sin(y) at nu t = 1 relaxes to y + e^-1 sin(y)
        g = make_grid(8, 128, LY)
        p = make_profile(g, g.Y + np.sin(g.Y), validate=False)
        ub = heat_evolve_shear(p, 1.0, 1.0)(g.Y)
        assert np.max(np.abs(ub - (g.Y + np.exp(-1.0) * np.sin(g.Y)))) < 1e-12

    def test_identity_at_t_zero(self):
        g = make_grid(8, 128, LY)
        U = g.Y + 0.03 * np.sin(0.5 * g.Y) + 0.01 * np.cos(0.25 * g.Y)
        p = make_profile(g, U, validate=False)
        assert np.max(np.abs(heat_evolve_shear(p, 0.3, 0.0)(g.Y) - U)) < 1e-12

    def test_decay_is_modewise(self):
        g = make_grid(8, 128, LY)
        p = make_profile(g, g.Y + 0.02 * np.sin(0.5 * g.Y), validate=False)
        nu, t = 0.2, 3.0
        ub = heat_evolve_shear(p, nu, t)(g.Y)
        expected = g.Y + 0.02 * np.exp(-nu * t * 0.25) * np.sin(0.5 * g.Y)
        assert np.max(np.abs(ub - expected)) < 1e-12

    def test_negative_time_rejected(self):
        g = make_grid(8, 64, LY)
        with pytest.raises(ValueError):
            heat_evolve_shear(couette(g), 0.1, -1.0)

    @pytest.mark.parametrize("nut", [0.0, 0.3])
    def test_orders_match_closed_form(self, nut):
        # U = y + A sin(q y): Ubar = y + A e^{-nu t q^2} sin(q y), and its
        # derivatives, at points off the grid and at the Newton points y(Y)
        g = make_grid(8, 128, LY)
        A, q, nu = 0.05, 0.25, 0.1
        p = couette_plus_sine(g, A, q)
        ubar = heat_evolve_shear(p, nu, nut / nu)
        amp = A * np.exp(-nut * q**2)
        off_grid = np.random.default_rng(0).uniform(-LY, LY, 50)
        for y in (off_grid, build_frame(p, nu, nut / nu).y_of_Y):
            assert np.max(np.abs(ubar(y) - (y + amp * np.sin(q * y)))) < 1e-12
            assert np.max(np.abs(ubar(y, 1) - (1 + amp * q * np.cos(q * y)))) < 1e-12
            assert np.max(np.abs(ubar(y, 2) + amp * q**2 * np.sin(q * y))) < 1e-12

    @pytest.mark.parametrize("nx,ny", [(64, 128), (16, 64), (32, 256)])
    @pytest.mark.parametrize("nu,t", [(1e-3, 0.0), (1e-3, 20.0), (0.1, 3.0)])
    def test_oracle_curvature_row_is_closed_form(self, nx, ny, nu, t):
        # the oracle's Ubar'' row is the evaluator's series, without the
        # xi^2-amplified roundoff of a transform over every mode
        g = make_grid(nx, ny, LY)
        A, q = 0.05, 0.25
        upp = _shear_rows(couette_plus_sine(g, A, q), nu, t, g)[1]
        expected = -A * q**2 * np.exp(-nu * t * q**2) * np.sin(q * g.Y)
        assert np.max(np.abs(upp - expected)) < 1e-15


class TestFrame:
    def test_couette_frame_exact(self):
        g = make_grid(8, 64, LY)
        fr = build_frame(couette(g), 1e-3, 2.0)
        assert np.all(fr.a == 1.0)
        assert np.all(fr.b == 0.0)
        assert np.array_equal(fr.y_of_Y, g.Y)

    def test_sine_frame_against_implicit_equation(self):
        # y(Y) solves Y = y + A sin(q y); a = 1 + A q cos(q y(Y))
        g = make_grid(8, 256, LY)
        A, q = 0.05, 0.25
        fr = build_frame(couette_plus_sine(g, A, q), 1e-3, 0.0)
        y = fr.y_of_Y
        assert np.max(np.abs(y + A * np.sin(q * y) - g.Y)) < 1e-11
        assert np.max(np.abs(fr.a - (1 + A * q * np.cos(q * y)))) < 1e-12
        assert np.max(np.abs(fr.b - (-A * q**2 * np.sin(q * y)))) < 1e-12

    def test_b_is_a_dYa(self):
        for ny in (256, 512):
            g = make_grid(8, ny, LY)
            fr = build_frame(sine_profile(g), 1e-3, 0.4)
            da = np.real(ifft_y(1j * g.xi * fft_y(fr.a - 1.0)))
            assert np.max(np.abs(fr.b - fr.a * da)) < 1e-6

    def test_frame_decay_envelope(self):
        g = make_grid(8, 256, LY)
        p = sine_profile(g)
        nu = 0.05
        sizes = []
        for t in (0.0, 2.0, 10.0, 40.0):
            fr = build_frame(p, nu, t)
            s = 7.0
            w = (1.0 + g.xi**2) ** (s / 2.0)
            na = np.sqrt(np.sum((w * np.abs(fft_y(fr.a - 1.0))) ** 2))
            nb = np.sqrt(np.sum((w * np.abs(fft_y(fr.b))) ** 2))
            sizes.append(na + nb)
        assert all(s <= 2.0 * p.delta * 1.5 for s in sizes)
        assert sizes[-1] <= sizes[0] * 1.05

    def test_maps_are_inverse(self):
        g = make_grid(8, 256, LY)
        nu = 1e-2
        fr = build_frame(sine_profile(g), nu, 1.3)
        # Ubar(y(Y)) = Y on the grid
        ubar = heat_evolve_shear(sine_profile(g), nu, 1.3)
        assert np.max(np.abs(ubar(fr.y_of_Y) - g.Y)) < 1e-11


class TestOperators:
    def test_laplace_L_symbol(self):
        # mode (k=1, xi=2) at t=2: Delta_L's multiplier -gl = -(1 + 0)
        g = make_grid(8, 8, np.pi / 2)  # xi spacing 2
        f = set_mode(zero_field(g), 1, 1, 1.0)  # xi = 2
        out = SpectralField(g, f.coeffs * -build_frame(couette(g), 0.0, 2.0).gl)
        assert abs(mode(out, 1, 1) - (-1.0)) < 1e-14

    def test_dY_L_at_t_zero_is_plain_dY(self):
        g = make_grid(16, 32, np.pi)
        f = field_from_function(g, lambda X, Y: np.sin(Y))
        out = f.coeffs * build_frame(couette(g), 0.0, 0.0).ieta
        expected = field_from_function(g, lambda X, Y: np.cos(Y))
        assert g.rms(out - expected.coeffs) < 1e-12

    def test_laplace_t_reduces_to_laplace_L_at_couette(self):
        g = make_grid(16, 32, np.pi)
        fr = build_frame(couette(g), 1e-3, 1.7)
        c = smooth_field(g, seed=1).coeffs
        assert g.rms(laplace_t(c, fr) - c * -fr.gl) == 0.0

    def test_operator_identity_random_fields(self):
        # laplace_t = laplace_L + (a^2-1) dYY^L + b dY_L, different groupings
        g = make_grid(32, 64, LY)
        fr = build_frame(sine_profile(g), 1e-3, 0.9)
        t = 0.9
        for seed in range(5):
            c = smooth_field(g, seed=seed).coeffs
            lt = laplace_t(c, fr)
            K, XI = meshes(g)
            dyy = c * -((XI - K * t) ** 2)
            b_dyl = multiply_y_profile(g, c * fr.ieta, fr.b)
            alt = c * -fr.gl + multiply_y_profile(g, dyy, fr.a2m1) + b_dyl
            assert g.rms(lt - alt) <= 1e-10 * max(g.rms(lt), 1.0)
            tilde = laplace_tilde_t(c, fr) + b_dyl
            assert g.rms(lt - tilde) <= 1e-10 * max(g.rms(lt), 1.0)


def ref_laplace_t(g, c, frame, t):
    """The two-product form of laplace_t: d_XX + a^2 d_YY^L + b d_Y^L with
    one multiply_y_profile per frame function."""
    K, XI = meshes(g)
    eta = XI - K * t
    return (c * -(K**2) + multiply_y_profile(g, c * -(eta**2), frame.a**2)
            + multiply_y_profile(g, c * (1j * eta), frame.b))


FUSED_CASES = [(8, 16, 2.5, 0.7), (16, 64, LY, 1.3), (32, 64, 1.7, 2.9)]


def lattice_frame(g, t):
    # one lattice wavenumber; the frame need not meet the delta cap here
    prof = couette_plus_sine(g, 0.05, np.pi / g.Ly, validate=False)
    assert not prof.is_couette
    return build_frame(prof, 1e-2, t)


class TestFusedLaplace:
    """laplace_t's one mixed-space pass against the two-product form, and
    against the full-layout formula."""

    @pytest.mark.parametrize("nx, ny, Ly, t", FUSED_CASES)
    def test_matches_two_products(self, nx, ny, Ly, t):
        g = make_grid(nx, ny, Ly)
        fr = lattice_frame(g, t)
        rng = np.random.default_rng(nx + ny)
        # complex, not Hermitian, not dealiased: every row and column set
        shape = g.zeros().shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = ref_laplace_t(g, c, fr, t)
        out = laplace_t(c, fr)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the column xi = -ny/2 is its own alias: the full layout gives its
        # rows k < 0 the symbol at -ny/2, the half layout the one at +ny/2
        c[:, ny // 2] = 0.0
        ref = ref_laplace_t_full(g, to_sorted_full(SpectralField(g, c)), fr, t)
        out = to_sorted_full(SpectralField(g, laplace_t(c, fr)))
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nx, ny, Ly, t", [(16, 32, 2.5, 0.7)] + FUSED_CASES)
    def test_solve_matches_full_layout_solve(self, nx, ny, Ly, t):
        # the solver's domain is dealiased data with the gauge mode zero
        g = make_grid(nx, ny, Ly)
        fr = lattice_frame(g, t)
        om = set_mode(smooth_field(g, seed=nx), 0, 0, 0.0)
        psi = to_sorted_full(SpectralField(g, invert_laplace_t(om.coeffs, fr)))
        ref = ref_invert_laplace_t(g, to_sorted_full(om), fr, t)
        assert np.max(np.abs(psi - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestInvertLaplace:
    def test_couette_diagonal(self):
        g = make_grid(16, 16, np.pi)
        fr = build_frame(couette(g), 1e-3, 0.0)
        om = zero_field(g)
        ms = range(-g.ny // 2, g.ny // 2)
        for m in ms:
            set_mode(om, 1, m, 1.0)
        psi = SpectralField(g, invert_laplace_t(om.coeffs, fr))
        for m in ms:
            xi = m * np.pi / g.Ly
            assert abs(mode(psi, 1, m) - (-1.0 / (1.0 + xi**2))) < 1e-14

    def test_zero_maps_to_zero(self):
        g = make_grid(16, 64, LY)
        fr = build_frame(sine_profile(g), 1e-3, 0.0)
        assert g.rms(invert_laplace_t(g.zeros(), fr)) == 0.0

    def test_manufactured_solution_recovery(self):
        g = make_grid(32, 128, LY)
        fr = build_frame(sine_profile(g), 1e-3, 0.6)
        psi_true = set_mode(smooth_field(g, seed=3), 0, 0, 0.0).coeffs
        om = laplace_t(psi_true, fr)
        psi = invert_laplace_t(om, fr, tol=1e-11)
        assert g.rms(psi - psi_true) <= 1e-9 * g.rms(psi_true)

    def test_residual_below_tolerance(self):
        g = make_grid(32, 128, LY)
        fr = build_frame(sine_profile(g), 1e-3, 1.4)
        psi_true = smooth_field(g, seed=4).coeffs
        om = laplace_t(psi_true, fr)
        for tol in (1e-8, 1e-11):
            psi = invert_laplace_t(om, fr, tol=tol)
            res = g.rms(laplace_t(psi, fr) - om)
            assert res <= tol * g.rms(om) * 1.01

    def test_compatibility_defect_reported(self):
        g = make_grid(32, 64, LY)
        fr = build_frame(sine_profile(g), 1e-3, 0.0)
        om = set_mode(smooth_field(g, seed=5), 0, 0, 0.0)
        psi = invert_laplace_t(om.coeffs, fr, tol=1e-10)
        # generic data carries an O(delta ||omega_0||) truncation defect
        defect = elliptic_defect(om.coeffs, psi, fr)
        om0 = l2_norm(project_modes(om, "zero"))
        assert defect <= 2.0 * fr.profile.delta * max(om0, 1e-300)

    def test_only_incompatible_residual_left(self):
        # generic data with a shear that is not even in Y: what the solve
        # leaves on the k = 0 row is a multiple of a, the part it projects out
        g = make_grid(32, 64, LY)
        U = g.Y + 0.03 * np.sin(0.25 * g.Y) + 0.02 * np.cos(0.5 * g.Y)
        fr = build_frame(make_profile(g, U), 1e-3, 0.4)
        om = set_mode(smooth_field(g, seed=7), 0, 0, 0.0).coeffs
        psi = invert_laplace_t(om, fr, tol=1e-10)
        r = om - laplace_t(psi, fr)
        r0 = ifft_y(r[0])
        r[0] = fft_y(r0 - np.mean(r0 / fr.a) * fr.a)
        assert g.rms(r) <= 1e-10 * g.rms(om)
        assert elliptic_defect(om, psi, fr) > 1e-6 * g.rms(om)

    def test_coarse_grid_solve_converges(self):
        # at 8x16 a has 1e-8 outside the 2/3 band; projecting the k = 0
        # residual along those modes, which laplace_t never produces, left
        # it at 1.8x the target with contraction ratio 1.000
        g = make_grid(8, 16, 2.5)
        fr = lattice_frame(g, 0.7)
        om = set_mode(smooth_field(g, seed=8), 0, 0, 0.0)
        tol = 1e-10
        psi = invert_laplace_t(om.coeffs, fr, tol=tol)
        r = SpectralField(g, laplace_t(psi, fr) - om.coeffs)
        assert l2_norm(project_modes(r, "nonzero")) <= tol * l2_norm(om)

    def test_nonconvergence_reported(self):
        g = make_grid(16, 64, LY)
        fr = build_frame(couette_plus_sine(g, 0.05, 0.25), 1e-3, 0.3)
        om = smooth_field(g, seed=6).coeffs
        with pytest.raises(EllipticError, match="convergence"):
            invert_laplace_t(om, fr, tol=1e-30, max_iter=2)

    def test_near_identity_operator_bounds(self):
        # Delta_L Delta_t^-1 and dX Delta_t^-1 stay within (1 + C delta) in H^N
        g = make_grid(32, 128, LY)
        profile = sine_profile(g)
        fr = build_frame(profile, 1e-3, 0.8)
        N = 5.0
        for seed in range(3):
            f = project_modes(smooth_field(g, seed=seed), "nonzero")
            psi = invert_laplace_t(f.coeffs, fr, tol=1e-11)
            bound = (1.0 + 5.0 * profile.delta) * sobolev_norm(f, N)
            assert sobolev_norm(SpectralField(g, psi * -fr.gl), N) <= bound
            assert sobolev_norm(SpectralField(g, psi * g.ik), N) <= bound


class TestVelocity:
    def test_pure_y_streamfunction(self):
        g = make_grid(16, 32, np.pi)
        fr = build_frame(couette(g), 1e-3, 0.5)
        psi = field_from_function(g, lambda X, Y: np.sin(Y))
        ux, uy = velocity_from_psi(psi.coeffs, fr)
        expected = field_from_function(g, lambda X, Y: -np.cos(Y))
        assert g.rms(ux - expected.coeffs) < 1e-12
        assert g.rms(uy) < 1e-14

    def test_single_mode_symbols(self):
        # psi at (k, xi) = (1, 1), t = 1: u^X = -i(1-1) = 0, u^Y = i
        g = make_grid(8, 8, np.pi)
        psi = set_mode(zero_field(g), 1, 1, 1.0)
        fr = build_frame(couette(g), 1e-3, 1.0)
        ux, uy = velocity_from_psi(psi.coeffs, fr)
        assert abs(mode(SpectralField(g, ux), 1, 1)) < 1e-15
        assert abs(mode(SpectralField(g, uy), 1, 1) - 1j) < 1e-15

    def test_x_average_of_uy_vanishes(self):
        g = make_grid(16, 64, LY)
        fr = build_frame(sine_profile(g), 1e-3, 0.7)
        psi = smooth_field(g, seed=7)
        _, uy = velocity_from_psi(psi.coeffs, fr)
        assert l2_norm(project_modes(SpectralField(g, uy), "zero")) == 0.0

    def test_nonzero_psi_gives_no_mean_ux(self):
        g = make_grid(16, 32, np.pi)
        fr = build_frame(couette(g), 1e-3, 0.2)
        psi = project_modes(smooth_field(g, seed=8), "nonzero")
        ux, _ = velocity_from_psi(psi.coeffs, fr)
        assert l2_norm(project_modes(SpectralField(g, ux), "zero")) < 1e-14


def eval_physical_on_frame_grid(f, frame):
    """Point values of a physical-coordinates field on the frame (X, Y) grid."""
    grid = f.grid
    ystar = frame.y_of_Y if not frame.is_couette else grid.Y
    E = np.exp(1j * np.outer(grid.xi, ystar))
    h = (f.coeffs * grid._phase_y) @ E
    H = h * np.exp(1j * frame.t * np.outer(grid.k, grid.Y))
    return np.fft.irfft(H, n=grid.nx, axis=0, norm="forward")


def map_frame_physical(f, frame, direction):
    """Resample a scalar between frame (X, Y) and physical (x, y) coordinates."""
    if direction == "to_physical":
        return field_from_physical(f.grid, eval_frame_on_physical_grid(f.coeffs, frame))
    if direction == "to_frame":
        return field_from_physical(f.grid, eval_physical_on_frame_grid(f, frame))
    raise ValueError(f"unknown direction {direction!r}")


class TestCoordinateMaps:
    def test_couette_t0_identity(self):
        g = make_grid(16, 32, np.pi)
        fr = build_frame(couette(g), 1e-3, 0.0)
        f = smooth_field(g, seed=9)
        mapped = map_frame_physical(f, fr, "to_physical")
        assert g.rms(mapped.coeffs - f.coeffs) < 1e-12

    def test_couette_shear_substitution(self):
        # frame sin(X) seen in physical coordinates at t = 2 is sin(x - 2y)
        g = make_grid(32, 32, np.pi)
        fr = build_frame(couette(g), 1e-3, 2.0)
        f = field_from_function(g, lambda X, Y: np.sin(X))
        mapped = to_physical(map_frame_physical(f, fr, "to_physical"))
        XX, YY = np.meshgrid(g.X, g.Y, indexing="ij")
        assert np.max(np.abs(mapped - np.sin(XX - 2.0 * YY))) < 1e-12

    def test_roundtrip_high_resolution(self):
        g = make_grid(32, 512, LY)
        fr = build_frame(sine_profile(g), 1e-3, 0.8)
        f = dealias(field_from_function(
            g, lambda X, Y: np.cos(2 * X + 1) * np.exp(-((Y / 2) ** 2))
            + 0.4 * np.sin(X) * np.exp(-(((Y - 1) / 1.5) ** 2))))
        fp = map_frame_physical(f, fr, "to_physical")
        back = map_frame_physical(fp, fr, "to_frame")
        assert np.max(np.abs(to_physical(back) - to_physical(f))) <= 1e-8

    def test_unknown_direction_rejected(self):
        g = make_grid(8, 8, 1.0)
        fr = build_frame(couette(g), 0.1, 0.0)
        with pytest.raises(ValueError):
            map_frame_physical(smooth_field(g), fr, "sideways")
