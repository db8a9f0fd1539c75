"""Binary snapshot format for spectral fields.

Layout (little-endian):

    magic   4 bytes  b"BQSF"
    version u32      currently 1
    nx      u32
    ny      u32
    Ly      f64
    time    f64
    data    nx*ny complex128 coefficient pairs (re, im), row-major: the
            true Fourier coefficients of the full spectrum, rows k from
            -nx/2 to nx/2 - 1, columns xi from -ny/2 to ny/2 - 1.

The file holds the full spectrum although a :class:`SpectralField` stores
only its k >= 0 half (see :mod:`bqlab.grid`): the writer fills the rows
k < 0 as the mirror c(-k, -xi) = conj(c(k, xi)) and applies the phase
(-1)^m that makes stored coefficients true ones; the reader takes the rows
k = 0 .. nx/2 back (k = nx/2 is the file's row k = -nx/2).  A round trip
is exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import Grid, SpectralField, make_grid

MAGIC = b"BQSF"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")


class SnapshotError(IOError):
    """Malformed or incompatible snapshot file."""


def _sorted_columns(ny: int) -> np.ndarray:
    """For each stored column, the file column of the same xi, and the
    other way round: the map is its own inverse."""
    return (np.arange(ny) + ny // 2) % ny


def write_snapshot(path, field: SpectralField, time: float) -> None:
    g = field.grid
    header = _HEADER.pack(MAGIC, VERSION, g.nx, g.ny, g.Ly, float(time))
    hx = g.nx // 2
    true = (field.coeffs * g._phase_y)[:, _sorted_columns(g.ny)]
    data = np.empty((g.nx, g.ny), dtype="<c16")
    data[hx:] = true[:hx]
    data[0] = true[hx]
    # rows k = -1 .. -nx/2 + 1: conj of the rows k = 1 .. nx/2 - 1 at -xi,
    # which in file columns is the reversal about xi = 0
    data[hx - 1:0:-1] = np.conj(true[1:hx, (g.ny - np.arange(g.ny)) % g.ny])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_snapshot(path, grid: Grid | None = None) -> tuple[SpectralField, float]:
    """Read a snapshot; returns (field, time).

    If ``grid`` is given, the file's grid parameters must match it; otherwise
    a fresh grid is reconstructed from the header.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotError(f"{path}: truncated header")
        magic, version, nx, ny, Ly, time = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SnapshotError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotError(f"{path}: unsupported version {version}")
        payload = fh.read(nx * ny * 16)
    if len(payload) != nx * ny * 16:
        raise SnapshotError(f"{path}: truncated payload")
    if grid is None:
        grid = make_grid(nx, ny, Ly)
    elif (grid.nx, grid.ny) != (nx, ny) or abs(grid.Ly - Ly) > 1e-12 * max(1.0, Ly):
        raise SnapshotError(
            f"{path}: snapshot grid ({nx},{ny},Ly={Ly}) does not match "
            f"({grid.nx},{grid.ny},Ly={grid.Ly})"
        )
    full = np.frombuffer(payload, dtype="<c16").reshape(nx, ny)
    rows = np.r_[nx // 2:nx, 0]  # k = 0 .. nx/2 - 1, then k = -nx/2
    coeffs = full[rows][:, _sorted_columns(ny)] * grid._phase_y
    return SpectralField(grid, coeffs), float(time)
