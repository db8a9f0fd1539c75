"""Decaying Fourier weight M(t,k,xi) and the norm operator A = M <D>^N.

The weight is the ghost-multiplier solution of

    d/dt log M = -|k| / (k^2 + (xi - k t)^2),   M(0, k, xi) = 1,

whose closed form is a difference of arctangents.  It is 1 at k = 0,
decreasing in t, and bounded below by exp(-pi) uniformly in
(t, k, xi).  Its decay supplies the extra damping used by the energy
diagnostics through the multiplier sqrt(-Mdot*M) <D>^N
(``MultiplierTable.dissipation_weights``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shear import mode_tables

#: Uniform lower bound of the weight: the arctan difference never exceeds pi.
LOWER_BOUND = float(np.exp(-np.pi))


def _weight(k, xi, eta):
    """M = exp(-I), I the integral of |k| / (k^2 + (xi - k s)^2) over s in
    [0, t], elementwise, given eta = xi - k t.

    I = sgn(k)/|k| * (arctan(xi/|k|) - arctan(eta/|k|)) lies in
    [0, pi/|k|), and is zero at k = 0.
    """
    absk = np.abs(k)
    safe = np.where(absk > 0, absk, 1.0)
    val = np.sign(k) * (np.arctan(xi / safe) - np.arctan(eta / safe)) / safe
    return np.exp(-np.where(absk > 0, val, 0.0))


def _rate(k, gl):
    """d/dt log M = -|k|/gl for k != 0, else 0, given gl = k^2 + (xi - k t)^2."""
    absk = np.abs(k)
    return np.where(absk > 0, -absk / np.where(gl > 0, gl, 1.0), 0.0)


def eval_M(t, k, xi):
    """The weight M(t,k,xi); accepts scalars or broadcastable arrays."""
    t, k, xi = (np.asarray(v, dtype=float) for v in (t, k, xi))
    return _weight(k, xi, xi - k * t)


def eval_Mdot_over_M(t, k, xi):
    """d/dt log M = -|k|/(k^2+(xi-kt)^2) for k != 0, else 0."""
    t, k, xi = (np.asarray(v, dtype=float) for v in (t, k, xi))
    return _rate(k, k**2 + (xi - k * t) ** 2)


@dataclass(frozen=True)
class MultiplierTable:
    """Weight configuration: the Sobolev exponent N.  The weights read the
    sheared tables from :func:`bqlab.shear.mode_tables`."""

    N: float

    def A_weights(self, grid, t: float) -> np.ndarray:
        """M(t,k,xi) * (1+k^2+xi^2)^(N/2) over the stored modes."""
        eta, _ = mode_tables(grid, t)
        return _weight(grid.k[:, None], grid.xi, eta) * grid.sobolev_weights(self.N)

    def dissipation_weights(self, grid, t: float) -> np.ndarray:
        """sqrt(-Mdot M) * (1+k^2+xi^2)^(N/2) over the stored modes; zero on
        k = 0."""
        k = grid.k[:, None]
        eta, gl = mode_tables(grid, t)
        return _weight(k, grid.xi, eta) * np.sqrt(-_rate(k, gl)) * grid.sobolev_weights(self.N)


def make_multiplier(N: float) -> MultiplierTable:
    return MultiplierTable(N=float(N))


def property_report(n_samples: int = 100_000) -> dict:
    """Sampled verification of every property the weight must satisfy.

    Draws (t, k, xi) from t in [0, 100], k in +-{1..32}, xi in [-64, 64] and
    measures: normalization at t = 0 and at k = 0, the bounds
    1 >= M >= exp(-pi), exactness of the decay-rate identity (and agreement
    with a finite difference of log M), monotonicity in t, the enhanced-
    dissipation inequality 1 <= C nu^(-1/6) (sqrt(-Mdot M) + nu^(1/2) |k, xi-kt|)
    with one constant across nu = 1e-2, 1e-3, 1e-4, and the frequency-shift
    comparison sqrt(-Mdot M)(xi) <= C <eta-xi> sqrt(-Mdot M)(eta).  The
    samples are drawn with seed 0, so the report is deterministic.
    """
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 100.0, n_samples)
    k = rng.integers(1, 33, n_samples) * rng.choice([-1, 1], n_samples)
    xi = rng.uniform(-64.0, 64.0, n_samples)

    m = eval_M(t, k, xi)
    report = {
        "norm_t0": float(np.max(np.abs(eval_M(0.0, k, xi) - 1.0))),
        "norm_k0": float(np.max(np.abs(eval_M(t, np.zeros_like(k), xi) - 1.0))),
        "min_M": float(np.min(m)),
        "max_M": float(np.max(m)),
        "c": LOWER_BOUND,
    }

    rate = eval_Mdot_over_M(t, k, xi)
    report["ratio_identity"] = float(np.max(np.abs(rate + np.abs(k) / (k**2 + (xi - k * t) ** 2))))
    dt = 1e-5
    tf = np.maximum(t, dt)  # keep the centered stencil inside t >= 0
    fd = (np.log(eval_M(tf + dt, k, xi)) - np.log(eval_M(tf - dt, k, xi))) / (2 * dt)
    report["ratio_fd"] = float(np.max(np.abs(fd - eval_Mdot_over_M(tf, k, xi))))
    report["monotone"] = float(np.max(eval_M(t + dt, k, xi) - m))

    mdotm = m**2 * np.abs(k) / (k**2 + (xi - k * t) ** 2)
    r = np.sqrt(k.astype(float) ** 2 + (xi - k * t) ** 2)
    constants = {}
    for nu in (1e-2, 1e-3, 1e-4):
        lower = np.sqrt(mdotm) + np.sqrt(nu) * r
        constants[nu] = float(np.max(nu ** (1.0 / 6.0) / lower))
    report["nu16_constants"] = constants
    vals = list(constants.values())
    report["nu16_constant"] = max(vals)
    report["nu16_spread"] = max(vals) / min(vals)

    eta = rng.uniform(-64.0, 64.0, n_samples)
    w_xi = np.sqrt(mdotm)
    m_eta = eval_M(t, k, eta)
    w_eta = np.sqrt(m_eta**2 * np.abs(k) / (k**2 + (eta - k * t) ** 2))
    bracket = np.sqrt(1.0 + (eta - xi) ** 2)
    report["shift_constant"] = float(np.max(w_xi / (bracket * w_eta)))

    report["pass"] = bool(
        report["norm_t0"] < 1e-12
        and report["norm_k0"] < 1e-12
        and report["max_M"] <= 1.0 + 1e-12
        and report["min_M"] >= LOWER_BOUND - 1e-12
        and report["ratio_identity"] < 1e-12
        and report["ratio_fd"] < 1e-6
        and report["monotone"] <= 1e-15
        and np.isfinite(report["nu16_constant"])
        and report["nu16_spread"] < 3.0
        and np.isfinite(report["shift_constant"])
    )
    return report
