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
    l2_norm,
    make_grid,
    multiply_y_profile,
    sobolev_norm,
    to_physical,
    zero_field,
)
from layout import (
    from_sorted_full,
    hermitian_defect,
    inner,
    meshes,
    mode,
    project_modes,
    ref_field_from_physical,
    ref_inner,
    ref_l2_norm,
    ref_multiply_y_profile,
    ref_sobolev_norm,
    ref_to_physical,
    set_mode,
    sorted_meshes,
    sorted_mask,
    to_sorted_full,
)


def multiply_fields(f, g):
    """Pointwise product computed in physical space, dealiased."""
    return dealias(field_from_physical(f.grid, to_physical(f) * to_physical(g)))


def max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def random_smooth_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    f = field_from_physical(grid, rng.standard_normal((grid.nx, grid.ny)))
    K, XI = meshes(grid)
    envelope = (1.0 + K**2 + XI**2) ** (-4.0)
    return dealias(SpectralField(grid, scale * f.coeffs * envelope))


class TestMakeGrid:
    def test_small_grid_wavenumbers(self):
        g = make_grid(4, 4, np.pi)
        assert list(g.k) == [0, 1, 2]
        assert list(g.xi) == [0, 1, -2, -1]

    def test_xi_spacing(self):
        g = make_grid(64, 128, 4 * np.pi)
        assert np.allclose(np.diff(np.sort(g.xi)), 0.25)

    def test_wavenumbers_sorted(self):
        # k ascending from 0; xi in numpy's natural order, each half ascending
        g = make_grid(16, 32, 2.0)
        assert np.array_equal(g.k, np.arange(9))
        assert np.all(np.diff(g.xi[:16]) > 0) and np.all(np.diff(g.xi[16:]) > 0)
        assert np.array_equal(g.xi, (np.pi / g.Ly) * np.fft.fftfreq(32, 1.0 / 32))

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
        assert g.rms(rt.coeffs - f.coeffs) <= 1e-12 * l2_norm(f)

    def test_parseval(self):
        g = make_grid(32, 32, np.pi)
        f = random_smooth_field(g, seed=1)
        phys = to_physical(f)
        assert abs(np.sqrt(np.mean(phys**2)) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_coefficients_are_true_fourier_coefficients(self):
        # sin(Y) on Ly = pi has coefficients -+ i/2 at xi = -+1
        g = make_grid(8, 16, np.pi)
        f = field_from_function(g, lambda X, Y: np.sin(Y))
        assert abs(mode(f, 0, 1) - (-0.5j)) < 1e-13
        assert abs(mode(f, 0, -1) - 0.5j) < 1e-13

    def test_hermitian_symmetry_of_real_fields(self):
        # the rows k = 0 and k = nx/2 are their own mirror
        g = make_grid(16, 16, 2.0)
        f = random_smooth_field(g, seed=2)
        assert hermitian_defect(f) < 1e-14


class TestStackedTransforms:
    """One call on a stack of fields gives the per-field transforms bit for
    bit, on grids of fewer and of more than 4,096 points."""

    @pytest.mark.parametrize("nx, ny, m", [(32, 64, 1), (32, 64, 4), (64, 128, 3)])
    def test_inverse_equals_per_field(self, nx, ny, m):
        g = make_grid(nx, ny, 4 * np.pi)
        rng = np.random.default_rng(nx + m)
        stack = rng.standard_normal((m,) + g.zeros().shape) * (1 + 0.5j)
        values = to_physical(SpectralField(g, stack))
        assert values.shape == (m, nx, ny)
        for c, v in zip(stack, values):
            assert np.array_equal(v, to_physical(SpectralField(g, c)))

    @pytest.mark.parametrize("nx, ny, m", [(32, 64, 1), (32, 64, 2), (64, 128, 3)])
    def test_forward_equals_per_field(self, nx, ny, m):
        g = make_grid(nx, ny, 4 * np.pi)
        values = np.random.default_rng(nx + m).standard_normal((m, nx, ny))
        stack = field_from_physical(g, values).coeffs
        assert stack.shape == (m,) + g.zeros().shape
        for c, v in zip(stack, values):
            assert np.array_equal(c, field_from_physical(g, v).coeffs)

    def test_field_holds_one_array_or_a_stack(self):
        g = make_grid(16, 32, 1.0)
        SpectralField(g, np.zeros((3, 9, 32), dtype=complex))
        for shape in [(9,), (16, 32), (9, 34), (3, 16, 32), (1, 2, 9, 32)]:
            with pytest.raises(GridError):
                SpectralField(g, np.zeros(shape, dtype=complex))


class TestBandLimitedTransforms:
    """The keyword forms the stepper's pass uses: an inverse of a stack
    that is zero on the rows k > nx/3, into a given buffer, and a forward
    that computes only the rows the 2/3 mask keeps.  Each equals the general
    transform (and the mask) at every point."""

    SHAPES = [(16, 32), (24, 32), (64, 128), (32, 256), (256, 256)]

    @pytest.mark.parametrize("nx, ny", SHAPES)
    def test_inverse_into_buffer_equals_general(self, nx, ny):
        g = make_grid(nx, ny, 4 * np.pi)
        spec, phys = g.workspace(3)
        rng = np.random.default_rng(nx + ny)
        kept = g._kept_rows
        spec[:, kept] = rng.standard_normal(spec[:, kept].shape) * (1 - 0.5j)
        assert kept.stop == nx // 3 + 1 and not spec[:, kept.stop:].any()
        want = to_physical(SpectralField(g, spec.copy()))
        got = to_physical(SpectralField(g, spec), out=phys)
        assert got is phys and np.array_equal(got, want)
        assert not spec[:, kept.stop:].any()

    @pytest.mark.parametrize("nx, ny", SHAPES)
    def test_dealiased_forward_equals_masked_general(self, nx, ny):
        g = make_grid(nx, ny, 4 * np.pi)
        values = np.random.default_rng(nx + ny).standard_normal((2, nx, ny))
        for v in (values, values[1]):
            got = field_from_physical(g, v, dealias=True).coeffs
            want = field_from_physical(g, v).coeffs * g.dealias_mask
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_point_buffer_has_x_contiguous(self):
        # allocated (m, ny, nx) and seen as (m, nx, ny): the transforms along
        # X of the pass run along contiguous memory
        g = make_grid(32, 64, 1.0)
        _, phys = g.workspace(4)
        assert phys.shape == (4, 32, 64)
        assert phys.strides[-2] == phys.itemsize == 8
        assert phys.strides[-1] == 32 * 8

    @pytest.mark.parametrize("nx, ny", SHAPES)
    def test_dealiased_forward_is_c_ordered_for_either_layout(self, nx, ny):
        g = make_grid(nx, ny, 4 * np.pi)
        values = np.random.default_rng(nx + ny).standard_normal((2, nx, ny))
        _, phys = g.workspace(2)
        phys[...] = values
        for c_ordered, x_contiguous in ((values, phys), (values[1], phys[1])):
            got = [field_from_physical(g, v, dealias=True).coeffs
                   for v in (c_ordered, x_contiguous)]
            assert all(c.flags.c_contiguous for c in got)
            assert got[0].tobytes() == got[1].tobytes()

    def test_workspace_is_one_allocation(self):
        g = make_grid(32, 64, 1.0)
        spec4, phys4 = g.workspace(4)
        assert spec4.shape == (4, 17, 64) and phys4.shape == (4, 32, 64)
        assert not spec4.any()
        spec6, phys6 = g.workspace(6)  # a larger stack regrows it
        spec2, phys2 = g.workspace(2)
        assert spec2.base is spec6.base and phys2.base is phys6.base
        assert spec2.shape == (2, 17, 64)
        assert make_grid(32, 64, 1.0).workspace(2)[0].base is not spec2.base  # one per grid


REF_GRIDS = [(8, 16, 2.5), (16, 64, 4 * np.pi), (32, 64, 1.7)]


class TestTransformReference:
    """The half-spectrum operations against the full complex ones on the
    full sorted layout, on data that is not dealiased: the k = nx/2 row and
    the xi = -ny/2 column are set."""

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_forward_matches_full_transform(self, nx, ny, Ly):
        g = make_grid(nx, ny, Ly)
        values = np.random.default_rng(nx + ny).standard_normal((nx, ny))
        ref = ref_field_from_physical(g, values)
        assert np.min(np.abs(ref[0, :])) > 0 and np.min(np.abs(ref[:, 0])) > 0
        f = field_from_physical(g, values)
        assert f.coeffs.shape == (nx // 2 + 1, ny)
        assert max_rel_err(to_sorted_full(f), ref) <= 1e-13

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_self_mirrored_rows_are_hermitian(self, nx, ny, Ly):
        # the rows k = 0 and k = nx/2 store both halves of their spectrum
        g = make_grid(nx, ny, Ly)
        f = field_from_physical(g, np.random.default_rng(1).standard_normal((nx, ny)))
        assert hermitian_defect(f) <= 1e-15 * np.max(np.abs(f.coeffs))

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_backward_matches_full_transform(self, nx, ny, Ly):
        g = make_grid(nx, ny, Ly)
        values = np.random.default_rng(nx * ny).standard_normal((nx, ny))
        f = field_from_physical(g, values)
        ref = ref_to_physical(g, ref_field_from_physical(g, values))
        got = to_physical(f)
        assert got.dtype == np.float64
        assert max_rel_err(got, ref) <= 1e-13
        assert max_rel_err(got, values) <= 1e-13

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_y_profile_matches_full_transform_on_any_input(self, nx, ny, Ly):
        # complex, not Hermitian in the self-mirrored rows, every row set:
        # rows k > nx/3 must not leak
        g = make_grid(nx, ny, Ly)
        rng = np.random.default_rng(7)
        shape = g.zeros().shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        profile = 1.0 + 0.3 * rng.standard_normal(ny)
        got = multiply_y_profile(g, coeffs, profile)
        ref = ref_multiply_y_profile(g, to_sorted_full(SpectralField(g, coeffs)), profile)
        assert np.all(got[~g.dealias_mask] == 0.0)
        assert max_rel_err(to_sorted_full(SpectralField(g, got)), ref) <= 1e-14

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_norms_match_full_sums(self, nx, ny, Ly):
        # the row weights: 1 on k = 0 and k = nx/2, 2 on every other row
        g = make_grid(nx, ny, Ly)
        rng = np.random.default_rng(nx + 3 * ny)
        v, w = rng.standard_normal((2, nx, ny))
        f, h = field_from_physical(g, v), field_from_physical(g, w)
        F, H = ref_field_from_physical(g, v), ref_field_from_physical(g, w)
        assert abs(l2_norm(f) - ref_l2_norm(F)) <= 1e-13 * ref_l2_norm(F)
        assert abs(l2_norm(f) - np.sqrt(np.mean(v**2))) <= 1e-13 * l2_norm(f)
        for N in (1.0, 3.5):
            ref = ref_sobolev_norm(g, F, N)
            assert abs(sobolev_norm(f, N) - ref) <= 1e-13 * ref
        assert abs(inner(f, h) - ref_inner(F, H)) <= 1e-13 * ref_l2_norm(F) * ref_l2_norm(H)
        assert abs(inner(f, h) - np.mean(v * w)) <= 1e-13 * l2_norm(f) * l2_norm(h)

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_sorted_layout_round_trip(self, nx, ny, Ly):
        g = make_grid(nx, ny, Ly)
        f = field_from_physical(g, np.random.default_rng(5).standard_normal((nx, ny)))
        assert np.array_equal(from_sorted_full(g, to_sorted_full(f)).coeffs, f.coeffs)
        for k, m in ((0, 1), (1, -3), (-2, 2), (nx // 2 - 1, -(ny // 2))):
            assert to_sorted_full(f)[k + nx // 2, m + ny // 2] == mode(f, k, m)

    @pytest.mark.parametrize("nx,ny,Ly", REF_GRIDS)
    def test_physical_derivatives_match_full_transform(self, nx, ny, Ly):
        # 1j*k makes the row k = -nx/2 anti-Hermitian and 1j*xi the column
        # xi = -ny/2; the real part of the full inverse drops both
        g = make_grid(nx, ny, Ly)
        values = np.random.default_rng(3).standard_normal((nx, ny))
        c = ref_field_from_physical(g, values)
        for fn, sym in zip((_ddx_phys, _ddy_phys), sorted_meshes(g)):
            ref = ref_to_physical(g, c * (1j * sym))
            assert max_rel_err(fn(g, values), ref) <= 1e-13


class TestProjections:
    def test_pure_x_mode_has_no_zero_part(self):
        g = make_grid(16, 16, np.pi)
        f = field_from_function(g, lambda X, Y: np.sin(X))
        assert l2_norm(project_modes(f, "zero")) < 1e-14
        assert g.rms(project_modes(f, "nonzero").coeffs - f.coeffs) < 1e-14

    def test_y_only_field_is_all_zero_mode(self):
        g = make_grid(16, 16, np.pi)
        f = field_from_function(g, lambda X, Y: np.cos(Y))
        assert l2_norm(project_modes(f, "nonzero")) < 1e-14

    def test_constant_plus_product(self):
        g = make_grid(16, 16, np.pi)
        f = field_from_function(g, lambda X, Y: 2.0 + np.cos(X) * np.sin(Y))
        z = project_modes(f, "zero")
        assert abs(mode(z, 0, 0) - 2.0) < 1e-13

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
        f = set_mode(zero_field(g), 1, 0, 1.0)
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
            lhs = sobolev_norm(SpectralField(g, f.coeffs + h.coeffs), N)
            rhs = sobolev_norm(f, N) + sobolev_norm(h, N)
            assert lhs <= rhs * (1 + 1e-12)
            assert abs(sobolev_norm(SpectralField(g, 3.5 * f.coeffs), N)
                       - 3.5 * sobolev_norm(f, N)) \
                <= 1e-12 * sobolev_norm(f, N)

    def test_negative_exponent_rejected(self):
        g = make_grid(8, 8, 1.0)
        with pytest.raises(ValueError):
            sobolev_norm(random_smooth_field(g), -1.0)


class TestDealias:
    def test_idempotent(self):
        g = make_grid(32, 32, np.pi)
        rng = np.random.default_rng(8)
        shape = g.zeros().shape
        f = SpectralField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        once = dealias(f)
        assert np.array_equal(dealias(once).coeffs, once.coeffs)

    def test_kills_everything_outside_two_thirds(self):
        g = make_grid(32, 32, np.pi)
        f = SpectralField(g, g.zeros() + 1.0)
        d = dealias(f)
        K, XI = meshes(g)
        outside = (K > g.nx / 3) | (np.abs(XI) > (np.pi / g.Ly) * g.ny / 3)
        assert np.array_equal(to_sorted_full(d) != 0, sorted_mask(g))
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
        assert g.rms(prod.coeffs - direct.coeffs) < 1e-14

    def test_product_keeps_hermitian_symmetry(self):
        g = make_grid(32, 32, np.pi)
        f = random_smooth_field(g, seed=10)
        assert hermitian_defect(multiply_fields(f, f)) < 1e-14

    def test_y_profile_multiply_matches_full_product(self):
        g = make_grid(32, 64, 2 * np.pi)
        f = random_smooth_field(g, seed=11)
        m = 1.0 + 0.1 * np.cos(np.pi * g.Y / g.Ly)
        viaprofile = multiply_y_profile(g, f.coeffs, m)
        mfield = field_from_physical(g, np.broadcast_to(m, (g.nx, g.ny)).copy())
        full = multiply_fields(f, mfield)
        assert g.rms(viaprofile - full.coeffs) < 1e-13 * max(g.rms(viaprofile), 1.0)

    def test_y_profile_multiply_is_k_diagonal(self):
        g = make_grid(32, 32, np.pi)
        f = field_from_function(g, lambda X, Y: np.cos(2 * X) * np.sin(Y))
        m = 1.0 + 0.3 * np.sin(g.Y)
        out = multiply_y_profile(g, f.coeffs, m)
        occupied = np.nonzero(np.max(np.abs(out), axis=1) > 1e-14)[0]
        assert set(occupied) <= {2}


def test_inner_product_consistent_with_norm():
    g = make_grid(16, 16, 2.0)
    f = random_smooth_field(g, seed=12)
    assert abs(inner(f, f) - l2_norm(f) ** 2) < 1e-12 * l2_norm(f) ** 2
