"""Test-side access to the stored layout of bqlab fields, and the full
sorted layout as a reference.

A field stores the k >= 0 half of its spectrum: rows k = 0 .. nx/2, columns
m in numpy's natural order, the DFT phase taken at the grid origin
Y = -Ly (see :mod:`bqlab.grid`).  Tests address a mode by its signed
integer indices (k, m), xi = m*pi/Ly, and read or set it as a true Fourier
coefficient of the real field, through :func:`mode` and :func:`set_mode`,
so they do not depend on the layout.

The full sorted layout holds both Hermitian halves, wavenumbers ascending
along both axes, true Fourier coefficients: the way fields were stored
before the half spectrum, and the layout of a BQSF file.  The ``ref_*``
formulas below are the solver's operations written on that layout, the
references of the equivalence tests, and ``ref_poisson_fd`` is the
oracle's Poisson solve written as banded solves.

``ref_advection_term`` is the stage's transform pass written per array
on the general transforms, the reference of the one pass on the grid's
workspace.

The last section holds measurements that only tests read: the pairing
``inner``, the elliptic solve's k = 0 ``elliptic_defect``, a state's
point-value ``state_velocity``, the oracle's ``theta_integral`` and
``parse_threshold_csv``, the reader of a scan's CSV.
"""

import csv

import numpy as np

from bqlab.grid import SpectralField, field_from_physical, ifft_y, to_physical
from bqlab.multiplier import eval_M
from bqlab.shear import laplace_t, velocity_from_psi


# --- accessors ---------------------------------------------------------------


def index(g, k, m):
    """Position of mode (k, m), k >= 0, in an array of the stored layout."""
    assert 0 <= k <= g.nx // 2
    return k, m % g.ny


def mode(f, k, m):
    """True Fourier coefficient of exp(i(k X + xi Y)), xi = m*pi/Ly, of the
    real field f; |k| <= nx/2, |m| <= ny/2.  Rows k < 0 are the mirror."""
    g = f.grid
    if k < 0 and k != -(g.nx // 2):
        return np.conj(mode(f, -k, -m))
    j = m % g.ny
    return f.coeffs[abs(k), j] * g._phase_y[j]


def set_mode(f, k, m, value):
    """Set mode (k, m) of the real field f to ``value``, and with it the mirror
    (-k, -m) to its conjugate, in place."""
    g = f.grid
    if k < 0:
        k, m, value = -k, -m, np.conj(value)
    j, jm = m % g.ny, (-m) % g.ny
    if k in (0, g.nx // 2):  # rows that are their own mirror hold both
        f.coeffs[k, jm] = np.conj(value) * g._phase_y[jm]
    f.coeffs[k, j] = value * g._phase_y[j]
    return f


def meshes(g):
    """(K, XI) over the stored modes."""
    return np.meshgrid(g.k, g.xi, indexing="ij")


def hermitian_defect(f):
    """Max |c(k, -xi) - conj(c(k, xi))| over the rows k = 0 and k = nx/2, the
    only rows whose mirror is stored."""
    rows = f.coeffs[[0, -1]]
    mirror = np.conj(rows[:, (-np.arange(f.grid.ny)) % f.grid.ny])
    return float(np.max(np.abs(rows - mirror)))


def project_modes(f, which):
    """Projection onto the k = 0 row ("zero") or its complement ("nonzero")."""
    c = f.coeffs.copy()
    if which == "zero":
        keep = np.zeros_like(c)
        keep[0] = c[0]
        return SpectralField(f.grid, keep)
    if which == "nonzero":
        c[0] = 0.0
        return SpectralField(f.grid, c)
    raise ValueError(f"unknown projection {which!r}; expected 'zero' or 'nonzero'")


def apply_A(f, table, t):
    """Apply A = M(t) <D>^N; at t = 0 this is exactly the H^N weight."""
    return SpectralField(f.grid, f.coeffs * table.A_weights(f.grid, t))


def apply_dissipation_weight(f, table, t):
    """Apply sqrt(-Mdot M) <D>^N; kills the k = 0 row."""
    return SpectralField(f.grid, f.coeffs * table.dissipation_weights(f.grid, t))


# --- the full sorted layout ----------------------------------------------------


def sorted_meshes(g):
    """(K, XI) of the full sorted layout, k in [-nx/2, nx/2), xi ascending."""
    k = np.arange(-g.nx // 2, g.nx // 2, dtype=float)
    xi = (np.pi / g.Ly) * np.arange(-g.ny // 2, g.ny // 2, dtype=float)
    return np.meshgrid(k, xi, indexing="ij")


def sorted_mask(g):
    K, XI = sorted_meshes(g)
    return (np.abs(K) <= g.nx / 3.0) & (np.abs(XI) <= (np.pi / g.Ly) * (g.ny / 3.0))


def to_sorted_full(f):
    """The full sorted layout of a field: rows k < 0 filled as the mirror, and
    the row k = -nx/2 read as the stored row k = nx/2, the same DFT mode."""
    g = f.grid
    c = f.coeffs * g._phase_y
    ks = np.arange(-g.nx // 2, g.nx // 2)[:, None]
    ms = np.arange(-g.ny // 2, g.ny // 2)[None, :]
    mirrored = (ks < 0) & (ks != -(g.nx // 2))
    full = c[np.abs(ks), np.where(mirrored, -ms, ms) % g.ny]
    return np.where(mirrored, np.conj(full), full)


def from_sorted_full(g, full):
    """The stored half of a full sorted array: its rows k = 0 .. nx/2."""
    rows = np.r_[g.nx // 2:g.nx, 0]
    cols = (np.arange(g.ny) + g.ny // 2) % g.ny
    return SpectralField(g, full[rows][:, cols] * g._phase_y)


# --- reference formulas on the full sorted layout ------------------------------


def _phase(g):
    return np.exp(1j * sorted_meshes(g)[1][0] * g.Ly)


def ref_field_from_physical(g, values):
    """fftshift-sorted fft2 with the Y-offset phase exp(i xi Ly)."""
    c = np.fft.fftshift(np.fft.fft2(values), axes=(0, 1)) / (g.nx * g.ny)
    return c * _phase(g)[None, :]


def ref_to_physical(g, full):
    raw = np.fft.ifftshift(full * np.conj(_phase(g))[None, :], axes=(0, 1))
    return np.real(np.fft.ifft2(raw)) * (g.nx * g.ny)


def ref_fft_y(g, values):
    return np.fft.fftshift(np.fft.fft(values)) / g.ny * _phase(g)


def ref_multiply_y_profile(g, full, profile):
    phase = _phase(g)
    raw = np.fft.ifftshift(full * np.conj(phase)[None, :], axes=1)
    mixed = np.fft.ifft(raw, axis=1) * g.ny * profile[None, :]
    c = np.fft.fftshift(np.fft.fft(mixed, axis=1), axes=1) / g.ny * phase[None, :]
    return c * sorted_mask(g)


def ref_laplace_t(g, full, frame, t):
    """d_XX + a^2 d_YY^L + b d_Y^L, one Y-profile product per frame function."""
    K, XI = sorted_meshes(g)
    eta = XI - K * t
    return (full * -(K**2) + ref_multiply_y_profile(g, full * -(eta**2), frame.a**2)
            + ref_multiply_y_profile(g, full * (1j * eta), frame.b))


def ref_invert_laplace_t(g, full, frame, t, tol=1e-10, max_iter=50):
    """The fixed-point solve of laplace_t psi = omega, first guess
    Delta_L^-1 omega, the k = 0 row projected on the solvable range along
    the 2/3-band part of a."""
    K, XI = sorted_meshes(g)
    i0, j0 = g.nx // 2, g.ny // 2
    gl = K**2 + (XI - K * t) ** 2
    with np.errstate(divide="ignore"):
        inv = 1.0 / -gl
    inv[i0, j0] = 0.0
    if frame.is_couette:
        return full * inv
    norm = ref_l2_norm(full)
    psi = full * inv
    a_hat = ref_fft_y(g, frame.a) * sorted_mask(g)[i0]
    w_minus = np.roll(ref_fft_y(g, 1.0 / frame.a)[::-1], 1)
    for _ in range(max_iter):
        r = full - ref_laplace_t(g, psi, frame, t)
        r[i0] -= (r[i0] @ w_minus) * a_hat
        if ref_l2_norm(r) <= tol * norm:
            return psi
        psi = psi + r * inv
    raise AssertionError("reference solve did not converge")


def ref_l2_norm(full):
    return float(np.sqrt(np.sum(np.abs(full) ** 2)))


def ref_sobolev_norm(g, full, N):
    K, XI = sorted_meshes(g)
    return float(np.sqrt(np.sum(((1.0 + K**2 + XI**2) ** (N / 2.0) * np.abs(full)) ** 2)))


def ref_inner(f_full, g_full):
    return float(np.real(np.sum(np.conj(f_full) * g_full)))


def ref_weights(g, table, t):
    """(A, W, gl) of the multiplier table and -Delta_L at t, on the full
    sorted layout."""
    K, XI = sorted_meshes(g)
    sob = (1.0 + K**2 + XI**2) ** (table.N / 2.0)
    m = eval_M(t, K, XI)
    gl = K**2 + (XI - K * t) ** 2
    rate = np.where(K != 0, np.abs(K) / np.where(gl > 0, gl, 1.0), 0.0)
    return m * sob, m * np.sqrt(rate) * sob, gl


def ref_poisson_fd(omega, grid):
    """The oracle's Poisson solve as a banded solve: FFT along x, then one
    tridiagonal solve per distinct k^2 over the interior y nodes 1..ny-1
    (node 0 and the ghost at +Ly are walls).  scipy is imported here, so
    that importing this module stays cheap."""
    from scipy.linalg import solve_banded

    nx, ny = omega.shape
    hy = 2.0 * grid.Ly / ny
    kx = np.fft.fftfreq(nx, d=1.0 / nx)
    rhs = np.fft.fft(omega, axis=0)

    psi_hat = np.zeros_like(rhs)
    n_int = ny - 1
    ksq_vals, inverse = np.unique(kx**2, return_inverse=True)
    for idx, ksq in enumerate(ksq_vals):
        cols = np.nonzero(inverse == idx)[0]
        ab = np.zeros((3, n_int))
        ab[0, 1:] = 1.0 / hy**2
        ab[1, :] = -2.0 / hy**2 - ksq
        ab[2, :-1] = 1.0 / hy**2
        psi_hat[cols, 1:] = solve_banded((1, 1), ab, rhs[cols, 1:].T).T
    psi = np.real(np.fft.ifft(psi_hat, axis=0))
    psi[:, 0] = 0.0
    return psi


# --- measurements only tests read ---------------------------------------------


def inner(f, g):
    """Real L^2 pairing <f, g> consistent with ``l2_norm``."""
    return float(np.real(np.sum(f.grid.row_weight * np.conj(f.coeffs) * g.coeffs)))


def ref_advection_term(arrays, state, vel=None):
    """``evolve.advection_term`` one array at a time: the general inverse of
    each array of the velocity pair and of each gradient, the products in
    the same order of operations, the general forward of each product and
    the 2/3 mask; the terms and the velocity point values, ``(terms, u)``."""
    grid, frame = state.grid, state.frame
    if vel is None:
        vel = velocity_from_psi(state.psi.coeffs, frame)
    u = tuple(to_physical(SpectralField(grid, c)) for c in vel)
    terms = []
    for c in arrays:
        fx = to_physical(SpectralField(grid, c * grid.ik))
        fy = to_physical(SpectralField(grid, c * frame.ieta))
        fx *= u[0]
        if not frame.is_couette:
            fy *= frame.a
        fy *= u[1]
        fx += fy
        terms.append(field_from_physical(grid, fx).coeffs * grid.dealias_mask)
    return terms, u


def elliptic_defect(omega, psi, frame):
    """Magnitude of the k = 0 compatibility component of laplace_t psi - omega,
    of the coefficient arrays ``omega`` and ``psi``."""
    r = omega[0] - laplace_t(psi, frame)[0]
    r0 = ifft_y(r)
    return float(np.abs(np.mean(r0 / frame.a)))


def state_velocity(state):
    """Point values (u^X, u^Y) of a state's velocity, made from its psi the
    way the stepper makes them: the inverse transform of each array of the
    coefficient pair ``velocity_from_psi`` returns, which the stepper's one
    pass equals bit for bit."""
    ux, uy = (to_physical(SpectralField(state.grid, c))
              for c in velocity_from_psi(state.psi.coeffs, state.frame))
    return ux, uy


def theta_integral(state, grid):
    """Discrete integral of an oracle state's theta over the strip (conserved
    when alpha = 0)."""
    hx = 2.0 * np.pi / grid.nx
    hy = 2.0 * grid.Ly / grid.ny
    return float(np.sum(state.theta) * hx * hy)


def parse_threshold_csv(path):
    """Read back rows written by ``harness.emit_outputs`` (round-trip exact)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append({
                "nu": float(rec["nu"]), "mu": float(rec["mu"]),
                "alpha": float(rec["alpha"]), "eps_crit": float(rec["eps_crit"]),
                "gamma_local": ((float(rec["gamma_local_lo"]), float(rec["gamma_local_hi"]))
                                if rec["gamma_local_lo"] else None),
                "n_stable": int(rec["n_stable"]),
                "n_unstable": int(rec["n_unstable"]),
            })
    return rows

