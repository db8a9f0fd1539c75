"""Binary snapshot round trips and error handling."""

import struct

import numpy as np
import pytest

from bqlab.grid import SpectralField, field_from_function, field_from_physical, make_grid
from bqlab.io import SnapshotError, read_snapshot, write_snapshot
from layout import ref_field_from_physical

LAYOUT_GRIDS = [(8, 16, 2.5), (16, 64, 4 * np.pi), (32, 64, 1.7)]


def test_roundtrip(tmp_path):
    g = make_grid(16, 32, 2 * np.pi)
    f = field_from_function(g, lambda X, Y: np.cos(X) * np.exp(-((Y / 2) ** 2)))
    path = tmp_path / "field.bqsf"
    write_snapshot(path, f, time=1.25)
    back, t = read_snapshot(path)
    assert t == 1.25
    assert back.grid.nx == 16 and back.grid.ny == 32
    assert abs(back.grid.Ly - 2 * np.pi) < 1e-15
    assert np.array_equal(back.coeffs, f.coeffs)


def test_read_with_matching_grid(tmp_path):
    g = make_grid(8, 8, 1.0)
    f = SpectralField(g, g.zeros())
    path = tmp_path / "z.bqsf"
    write_snapshot(path, f, 0.0)
    back, _ = read_snapshot(path, grid=g)
    assert back.grid is g


def test_grid_mismatch_rejected(tmp_path):
    g = make_grid(8, 8, 1.0)
    write_snapshot(tmp_path / "z.bqsf", SpectralField(g, g.zeros()), 0.0)
    other = make_grid(8, 8, 2.0)
    with pytest.raises(SnapshotError):
        read_snapshot(tmp_path / "z.bqsf", grid=other)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bqsf"
    path.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_truncated_payload_rejected(tmp_path):
    g = make_grid(8, 8, 1.0)
    path = tmp_path / "t.bqsf"
    write_snapshot(path, SpectralField(g, g.zeros()), 0.0)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_header_is_32_bytes_little_endian(tmp_path):
    g = make_grid(8, 8, 1.0)
    path = tmp_path / "h.bqsf"
    write_snapshot(path, SpectralField(g, g.zeros()), 3.0)
    raw = path.read_bytes()
    assert raw[:4] == b"BQSF"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 8
    assert len(raw) == 32 + 8 * 8 * 16


# A version-1 file holds the full sorted layout of true coefficients, as
# fields were stored before the half spectrum: files written before and
# after read the same.

@pytest.mark.parametrize("nx,ny,Ly", LAYOUT_GRIDS)
def test_reads_a_full_sorted_layout_file(tmp_path, nx, ny, Ly):
    g = make_grid(nx, ny, Ly)
    values = np.random.default_rng(nx + ny).standard_normal((nx, ny))
    full = ref_field_from_physical(g, values)
    path = tmp_path / "v1.bqsf"
    header = struct.pack("<4sIIIdd", b"BQSF", 1, nx, ny, Ly, 0.5)
    path.write_bytes(header + np.ascontiguousarray(full, dtype="<c16").tobytes())
    f, t = read_snapshot(path)
    want = field_from_physical(g, values).coeffs
    assert t == 0.5
    assert np.max(np.abs(f.coeffs - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nx,ny,Ly", LAYOUT_GRIDS)
def test_writes_the_full_sorted_layout(tmp_path, nx, ny, Ly):
    g = make_grid(nx, ny, Ly)
    values = np.random.default_rng(nx * ny).standard_normal((nx, ny))
    path = tmp_path / "w.bqsf"
    write_snapshot(path, field_from_physical(g, values), 0.0)
    data = np.frombuffer(path.read_bytes()[32:], dtype="<c16").reshape(nx, ny)
    ref = ref_field_from_physical(g, values)
    assert np.max(np.abs(data - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the rows k = -nx/2 + 1 .. -1 are the exact mirror of the stored rows
    mirror = np.conj(data[(-np.arange(nx)) % nx][:, (-np.arange(ny)) % ny])
    assert np.array_equal(data[1:nx // 2], mirror[1:nx // 2])
