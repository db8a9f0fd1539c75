"""Spectral grid and field primitives."""

import numpy as np
import pytest

from bqlab.diagnostics import _ddx_phys, _ddy_phys
from bqlab.grid import (
    GridError,
    SpectralField,
    dealias,
    field_from_function,
    field_from_physical,
    hermitian_defect,
    inner,
    l2_norm,
    make_grid,
    multiply_y_profile,
    project_modes,
    sobolev_norm,
    to_physical,
)


# The full complex transforms the real-input ones replaced, kept as the
# reference: fftshift-sorted fft2/ifft2 with the Y-offset phase exp(i xi Ly).


def ref_field_from_physical(g, values):
    c = np.fft.fftshift(np.fft.fft2(values), axes=(0, 1)) / (g.nx * g.ny)
    return c * np.exp(1j * g.xi * g.Ly)[None, :]


def ref_to_physical(g, coeffs):
    raw = np.fft.ifftshift(coeffs * np.conj(np.exp(1j * g.xi * g.Ly))[None, :], axes=(0, 1))
    return np.real(np.fft.ifft2(raw)) * (g.nx * g.ny)


def ref_multiply_y_profile(g, coeffs, profile):
    phase = np.exp(1j * g.xi * g.Ly)
    raw = np.fft.ifftshift(coeffs * np.conj(phase)[None, :], axes=1)
    mixed = np.fft.ifft(raw, axis=1) * g.ny * profile[None, :]
    c = np.fft.fftshift(np.fft.fft(mixed, axis=1), axes=1) / g.ny * phase[None, :]
    return c * g.dealias_mask


def multiply_fields(f, g):
    """Pointwise product computed in physical space, dealiased."""
    return dealias(field_from_physical(f.grid, to_physical(f) * to_physical(g)))


def max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def random_smooth_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    f = field_from_physical(grid, rng.standard_normal((grid.nx, grid.ny)))
    envelope = (1.0 + grid.K**2 + grid.XI**2) ** (-4.0)
    return dealias(SpectralField(grid, scale * f.coeffs * envelope))


class TestMakeGrid:
    def test_small_grid_wavenumbers(self):
        g = make_grid(4, 4, np.pi)
        assert list(g.k) == [-2, -1, 0, 1]
        assert list(g.xi) == [-2, -1, 0, 1]

    def test_xi_spacing(self):
        g = make_grid(64, 128, 4 * np.pi)
        assert np.allclose(np.diff(g.xi), 0.25)

    def test_wavenumbers_sorted(self):
        g = make_grid(16, 32, 2.0)
        assert np.all(np.diff(g.k) > 0)
        assert np.all(np.diff(g.xi) > 0)

    @pytest.mark.parametrize("nx,ny,Ly", [(3, 4, 1.0), (4, 5, 1.0), (2, 4, 1.0),
                                          (4, 4, 0.0), (4, 4, -2.0)])
    def test_rejects_bad_parameters(self, nx, ny, Ly):
        with pytest.raises(GridError):
            make_grid(nx, ny, Ly)


class TestTransforms:
    def test_roundtrip_smooth(self):
        g = make_grid(32, 64, 4 * np.pi)
        f = field_from_function(
            g, lambda X, Y: np.cos(X) * np.exp(np.sin(np.pi * Y / g.Ly)))
        rt = field_from_physical(g, to_physical(f))
        assert l2_norm(rt - f) <= 1e-12 * l2_norm(f)

    def test_parseval(self):
        g = make_grid(32, 32, np.pi)
        f = random_smooth_field(g, seed=1)
        phys = to_physical(f)
        assert abs(np.sqrt(np.mean(phys**2)) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_coefficients_are_true_fourier_coefficients(self):
        # sin(Y) on Ly = pi has coefficients -+ i/2 at xi = -+1
        g = make_grid(8, 16, np.pi)
        f = field_from_function(g, lambda X, Y: np.sin(Y))
        i0, j0 = g.nx // 2, g.ny // 2
        assert abs(f.coeffs[i0, j0 + 1] - (-0.5j)) < 1e-13
        assert abs(f.coeffs[i0, j0 - 1] - 0.5j) < 1e-13

    def test_hermitian_symmetry_of_real_fields(self):
        g = make_grid(16, 16, 2.0)
        f = random_smooth_field(g, seed=2)
        assert hermitian_defect(f) < 1e-14


REF_GRIDS = [(8, 16, 2.5), (16, 64, 4 * np.pi), (32, 64, 1.7)]


class TestTransformReference:
    """Real-input transforms against the full complex ones, on data that is
    not dealiased: the k = -nx/2 row and the xi = -ny/2 column are set."""

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_forward_matches_full_transform(self, nx, ny, Ly):
        g = make_grid(nx, ny, Ly)
        values = np.random.default_rng(nx + ny).standard_normal((nx, ny))
        ref = ref_field_from_physical(g, values)
        assert np.min(np.abs(ref[0, :])) > 0 and np.min(np.abs(ref[:, 0])) > 0
        assert max_rel_err(field_from_physical(g, values).coeffs, ref) <= 1e-13

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_forward_fills_the_exact_mirror(self, nx, ny, Ly):
        g = make_grid(nx, ny, Ly)
        c = field_from_physical(g, np.random.default_rng(1).standard_normal((nx, ny))).coeffs
        mirror = np.conj(c[(-np.arange(nx)) % nx][:, (-np.arange(ny)) % ny])
        assert np.array_equal(c[:, 1:ny // 2], mirror[:, 1:ny // 2])
        assert max_rel_err(c, mirror) <= 1e-15

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_backward_matches_full_transform(self, nx, ny, Ly):
        g = make_grid(nx, ny, Ly)
        values = np.random.default_rng(nx * ny).standard_normal((nx, ny))
        f = field_from_physical(g, values)
        ref = ref_to_physical(g, f.coeffs)
        got = to_physical(f)
        assert got.dtype == np.float64
        assert max_rel_err(got, ref) <= 1e-13
        assert max_rel_err(got, values) <= 1e-13

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_y_profile_matches_full_transform_on_any_input(self, nx, ny, Ly):
        # complex, not Hermitian, every row set: rows |k| > nx/3 must not leak
        g = make_grid(nx, ny, Ly)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
        profile = 1.0 + 0.3 * rng.standard_normal(ny)
        got = multiply_y_profile(SpectralField(g, coeffs), profile).coeffs
        ref = ref_multiply_y_profile(g, coeffs, profile)
        assert np.all(got[~g.dealias_mask] == 0.0)
        assert max_rel_err(got, ref) <= 1e-14

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_physical_derivatives_match_full_transform(self, nx, ny, Ly):
        # 1j*k makes the row k = -nx/2 anti-Hermitian and 1j*xi the column
        # xi = -ny/2; the real part of the full inverse drops both
        g = make_grid(nx, ny, Ly)
        values = np.random.default_rng(3).standard_normal((nx, ny))
        c = ref_field_from_physical(g, values)
        for fn, sym in ((_ddx_phys, g.K), (_ddy_phys, g.XI)):
            ref = ref_to_physical(g, c * (1j * sym))
            assert max_rel_err(fn(g, values), ref) <= 1e-13


class TestProjections:
    def test_pure_x_mode_has_no_zero_part(self):
        g = make_grid(16, 16, np.pi)
        f = field_from_function(g, lambda X, Y: np.sin(X))
        assert l2_norm(project_modes(f, "zero")) < 1e-14
        assert l2_norm(project_modes(f, "nonzero") - f) < 1e-14

    def test_y_only_field_is_all_zero_mode(self):
        g = make_grid(16, 16, np.pi)
        f = field_from_function(g, lambda X, Y: np.cos(Y))
        assert l2_norm(project_modes(f, "nonzero")) < 1e-14

    def test_constant_plus_product(self):
        g = make_grid(16, 16, np.pi)
        f = field_from_function(g, lambda X, Y: 2.0 + np.cos(X) * np.sin(Y))
        z = project_modes(f, "zero")
        i0, j0 = g.nx // 2, g.ny // 2
        assert abs(z.coeffs[i0, j0] - 2.0) < 1e-13

    def test_exact_reconstruction(self):
        g = make_grid(16, 32, 2.0)
        f = random_smooth_field(g, seed=3)
        total = project_modes(f, "zero").coeffs + project_modes(f, "nonzero").coeffs
        assert np.array_equal(total, f.coeffs)

    def test_unknown_projection_rejected(self):
        g = make_grid(8, 8, 1.0)
        with pytest.raises(ValueError):
            project_modes(random_smooth_field(g), "half")


class TestSobolevNorm:
    def test_zero_field(self):
        g = make_grid(8, 8, 1.0)
        f = SpectralField(g, g.zeros())
        assert sobolev_norm(f, 3.0) == 0.0

    def test_single_conjugate_pair_N1(self):
        # one mode at (k, xi) = (1, 0) with its mirror: L2 mass 2, weight 2
        g = make_grid(8, 8, np.pi)
        c = g.zeros()
        i0, j0 = g.nx // 2, g.ny // 2
        c[i0 + 1, j0] = 1.0
        c[i0 - 1, j0] = 1.0
        f = SpectralField(g, c)
        assert abs(sobolev_norm(f, 1.0) - 2.0) < 1e-14

    def test_N0_is_l2(self):
        g = make_grid(16, 16, 2.0)
        f = random_smooth_field(g, seed=4)
        assert abs(sobolev_norm(f, 0.0) - l2_norm(f)) < 1e-14

    def test_monotone_in_N(self):
        g = make_grid(16, 16, 2.0)
        f = random_smooth_field(g, seed=5)
        norms = [sobolev_norm(f, N) for N in (0.0, 1.0, 2.5, 5.0)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))

    def test_triangle_inequality_and_homogeneity(self):
        g = make_grid(16, 16, 2.0)
        f = random_smooth_field(g, seed=6)
        h = random_smooth_field(g, seed=7)
        for N in (0.0, 2.0, 5.0):
            lhs = sobolev_norm(f + h, N)
            rhs = sobolev_norm(f, N) + sobolev_norm(h, N)
            assert lhs <= rhs * (1 + 1e-12)
            assert abs(sobolev_norm(3.5 * f, N) - 3.5 * sobolev_norm(f, N)) \
                <= 1e-12 * sobolev_norm(f, N)

    def test_negative_exponent_rejected(self):
        g = make_grid(8, 8, 1.0)
        with pytest.raises(ValueError):
            sobolev_norm(random_smooth_field(g), -1.0)


class TestDealias:
    def test_idempotent(self):
        g = make_grid(32, 32, np.pi)
        rng = np.random.default_rng(8)
        f = SpectralField(g, rng.standard_normal((32, 32))
                          + 1j * rng.standard_normal((32, 32)))
        once = dealias(f)
        assert np.array_equal(dealias(once).coeffs, once.coeffs)

    def test_kills_everything_outside_two_thirds(self):
        g = make_grid(32, 32, np.pi)
        f = SpectralField(g, np.ones((32, 32), dtype=complex))
        d = dealias(f)
        outside = (np.abs(g.K) > g.nx / 3) | (np.abs(g.XI) > (np.pi / g.Ly) * g.ny / 3)
        assert np.all(d.coeffs[outside] == 0.0)
        assert np.all(d.coeffs[~outside] == 1.0)

    def test_dealiased_field_unchanged(self):
        g = make_grid(32, 32, np.pi)
        f = random_smooth_field(g, seed=9)
        assert np.array_equal(dealias(f).coeffs, f.coeffs)


class TestProducts:
    def test_product_matches_pointwise(self):
        g = make_grid(32, 64, 2 * np.pi)
        f = field_from_function(g, lambda X, Y: np.cos(X) * np.exp(-(Y / 2) ** 2))
        h = field_from_function(g, lambda X, Y: np.sin(X + 0.3))
        prod = multiply_fields(f, h)
        direct = dealias(field_from_physical(g, to_physical(f) * to_physical(h)))
        assert l2_norm(prod - direct) < 1e-14

    def test_product_keeps_hermitian_symmetry(self):
        g = make_grid(32, 32, np.pi)
        f = random_smooth_field(g, seed=10)
        assert hermitian_defect(multiply_fields(f, f)) < 1e-14

    def test_y_profile_multiply_matches_full_product(self):
        g = make_grid(32, 64, 2 * np.pi)
        f = random_smooth_field(g, seed=11)
        m = 1.0 + 0.1 * np.cos(np.pi * g.Y / g.Ly)
        viaprofile = multiply_y_profile(f, m)
        mfield = field_from_physical(g, np.broadcast_to(m, (g.nx, g.ny)).copy())
        full = multiply_fields(f, mfield)
        assert l2_norm(viaprofile - full) < 1e-13 * max(l2_norm(viaprofile), 1.0)

    def test_y_profile_multiply_is_k_diagonal(self):
        g = make_grid(32, 32, np.pi)
        f = field_from_function(g, lambda X, Y: np.cos(2 * X) * np.sin(Y))
        m = 1.0 + 0.3 * np.sin(g.Y)
        out = multiply_y_profile(f, m)
        i0 = g.nx // 2
        occupied = np.nonzero(np.max(np.abs(out.coeffs), axis=1) > 1e-14)[0]
        assert set(occupied) <= {i0 - 2, i0 + 2}


def test_inner_product_consistent_with_norm():
    g = make_grid(16, 16, 2.0)
    f = random_smooth_field(g, seed=12)
    assert abs(inner(f, f) - l2_norm(f) ** 2) < 1e-12 * l2_norm(f) ** 2
