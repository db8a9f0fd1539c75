"""Initial perturbation families with exactly prescribed Sobolev size."""

from __future__ import annotations

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    dealias,
    field_from_function,
    field_from_physical,
    sobolev_norm,
    zero_field,
)


def scale_to_sobolev(f: SpectralField, eps: float, N: float) -> SpectralField:
    """Rescale so that the H^N norm equals eps exactly (zero stays zero)."""
    if eps == 0.0:
        return zero_field(f.grid)
    norm = sobolev_norm(f, N)
    if norm == 0.0:
        raise ValueError("cannot scale a zero field to a nonzero size")
    return SpectralField(f.grid, f.coeffs * (eps / norm))


def single_mode(grid: Grid, eps: float, N: float, kx: int = 1,
                width: float = 1.0) -> SpectralField:
    """cos(kx X) * exp(-(Y/width)^2) scaled to H^N size eps.

    For kx != 0 the data have no X-mean, so the k = 0 row is set to exact
    zero rather than left with the transform's round-off.  A kx outside the
    2/3 band, |kx| <= nx/3, is a ValueError: dealiasing would leave only
    round-off to scale.
    """
    if abs(kx) > grid.nx / 3:
        raise ValueError(f"kx = {kx} is outside the dealiased band |kx| <= nx/3 = {grid.nx / 3:g}")
    f = field_from_function(
        grid, lambda X, Y: np.cos(kx * X) * np.exp(-((Y / width) ** 2)))
    f = dealias(f)
    if kx != 0:
        f.coeffs[0] = 0.0
    f.coeffs[0, 0] = 0.0  # zero-mean gauge
    return scale_to_sobolev(f, eps, N)


def random_field(grid: Grid, eps: float, N: float, seed: int,
                 decay: float | None = None) -> SpectralField:
    """Filtered random real field with H^N size eps; deterministic in seed.

    White noise in physical space, shaped by a (1+k^2+xi^2)^(-decay/2)
    envelope (default decay = N + 3 keeps higher norms finite), dealiased
    and mean-free.
    """
    if decay is None:
        decay = N + 3.0
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((grid.nx, grid.ny))
    f = field_from_physical(grid, noise)
    f = dealias(SpectralField(grid, f.coeffs * grid.sobolev_weights(-decay)))
    f.coeffs[0, 0] = 0.0
    return scale_to_sobolev(f, eps, N)


FAMILIES = {"single_mode", "random"}


def make_initial(family: str, grid: Grid, eps: float, N: float, seed: int = 0,
                 **kwargs) -> SpectralField:
    if family == "single_mode":
        return single_mode(grid, eps, N, kx=int(kwargs.get("kx", 1)),
                           width=float(kwargs.get("width", 1.0)))
    if family == "random":
        return random_field(grid, eps, N, seed=seed,
                            decay=kwargs.get("decay"))
    raise ValueError(f"unknown initial-data family {family!r}; "
                     f"expected one of {sorted(FAMILIES)}")
