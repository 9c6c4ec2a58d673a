"""Volumes, interpolation, phantoms, and the two file formats.

File-format tests check actual byte layout with struct, not just round
trips, so a reader bug cannot hide behind a matching writer bug.
"""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from regcert.geometry import TranslationTransform, trilinear_sample
from regcert.volume import (
    RoiMask,
    Volume3,
    VolumeFormatError,
    make_phantom,
    read_nifti,
    read_volume,
    warp,
    write_atomic,
    write_volume,
)


def lerp_sample_oracle(data, p):
    """Scalar trilinear lookup by nested 1-D lerps with edge clamping."""
    q = [min(max(float(c), 0.0), n - 1.0) for c, n in zip(p, data.shape)]
    idx = [min(int(np.floor(c)), n - 2) if n > 1 else 0 for c, n in zip(q, data.shape)]
    f = [c - i for c, i in zip(q, idx)]
    i, j, k = idx
    j1 = min(j + 1, data.shape[1] - 1)
    k1 = min(k + 1, data.shape[2] - 1)
    i1 = min(i + 1, data.shape[0] - 1)
    c00 = data[i, j, k] + f[2] * (data[i, j, k1] - data[i, j, k])
    c01 = data[i, j1, k] + f[2] * (data[i, j1, k1] - data[i, j1, k])
    c10 = data[i1, j, k] + f[2] * (data[i1, j, k1] - data[i1, j, k])
    c11 = data[i1, j1, k] + f[2] * (data[i1, j1, k1] - data[i1, j1, k])
    c0 = c00 + f[1] * (c01 - c00)
    c1 = c10 + f[1] * (c11 - c10)
    return c0 + f[0] * (c1 - c0)


def write_minimal_nifti(path, data, spacing=(1.0, 1.0, 1.0), byteorder="<"):
    """348-byte header + 4-byte extension flag + float32 payload (x fastest)."""
    hdr = bytearray(348)
    struct.pack_into(f"{byteorder}i", hdr, 0, 348)
    dim = (3,) + data.shape + (1, 1, 1, 1)
    struct.pack_into(f"{byteorder}8h", hdr, 40, *dim)
    struct.pack_into(f"{byteorder}h", hdr, 70, 16)  # float32
    struct.pack_into(f"{byteorder}h", hdr, 72, 32)  # bitpix
    pixdim = (1.0,) + tuple(spacing) + (0.0, 0.0, 0.0, 0.0)
    struct.pack_into(f"{byteorder}8f", hdr, 76, *pixdim)
    struct.pack_into(f"{byteorder}f", hdr, 108, 352.0)
    struct.pack_into(f"{byteorder}3f", hdr, 268, 0.0, 0.0, 0.0)
    hdr[344:348] = b"n+1\x00"
    payload = np.asarray(data, dtype=f"{byteorder}f4").ravel(order="F").tobytes()
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)


# ---------------------------------------------------------------------------
# Volume3 and RoiMask


def test_volume_casts_to_float32_and_grows_channel_axis():
    v = Volume3(np.zeros((4, 5, 6), dtype=np.float64))
    assert v.data.dtype == np.float32
    assert v.data.shape == (4, 5, 6, 1)
    assert v.shape == (4, 5, 6)
    assert v.channels == 1
    assert v.scalar.shape == (4, 5, 6)


def test_volume_scalar_requires_single_channel():
    v = Volume3(np.zeros((4, 4, 4, 3)))
    with pytest.raises(ValueError, match="3 channels"):
        v.scalar


def test_volume_rejects_non_finite():
    data = np.zeros((4, 4, 4))
    data[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        Volume3(data)


def test_roi_mask_count_and_empty_rejection():
    m = np.zeros((4, 4, 4), dtype=bool)
    m[1:3, 1:3, 1:3] = True
    assert RoiMask(m).count == 8
    assert RoiMask.full((4, 4, 4)).count == 64
    with pytest.raises(ValueError, match="no voxels"):
        RoiMask(np.zeros((4, 4, 4), dtype=bool))


# ---------------------------------------------------------------------------
# interpolation


def test_sample_trilinear_matches_nested_lerp_oracle():
    rng = np.random.default_rng(0)
    vol = Volume3(rng.random((5, 6, 7)))
    pts = rng.uniform(-1.0, 7.5, size=(300, 3))
    got = trilinear_sample(vol.data, pts)[:, 0]
    data = vol.scalar.astype(np.float64)
    want = np.array([lerp_sample_oracle(data, p) for p in pts])
    assert np.max(np.abs(got - want)) < 1e-6


def test_sample_trilinear_exact_at_centers_and_clamped_outside():
    rng = np.random.default_rng(1)
    vol = Volume3(rng.random((4, 4, 4)))
    centers = np.argwhere(np.ones((4, 4, 4))).astype(np.float64)
    got = trilinear_sample(vol.data, centers)[:, 0]
    assert np.array_equal(got.astype(np.float32), vol.scalar.ravel())
    outside = trilinear_sample(vol.data, np.array([[-5.0, 0.0, 0.0], [9.0, 3.0, 3.0]]))[:, 0]
    assert outside[0] == vol.scalar[0, 0, 0]
    assert outside[1] == vol.scalar[3, 3, 3]


# ---------------------------------------------------------------------------
# warping


def test_warp_by_identity_is_bit_identical():
    rng = np.random.default_rng(2)
    vol = Volume3(rng.random((8, 8, 8)))
    out = warp(vol, TranslationTransform((0.0, 0.0, 0.0)))
    assert np.array_equal(out.data, vol.data)


def test_warp_by_integer_translation_shifts_exactly():
    rng = np.random.default_rng(3)
    vol = Volume3(rng.random((9, 9, 9)))
    out = warp(vol, TranslationTransform((1.0, 0.0, 0.0)))
    # Pull-back: output voxel x reads input voxel x+1; interior is exact.
    assert np.array_equal(out.scalar[:8], vol.scalar[1:])


def test_warp_round_trip_bounded_by_second_differences():
    rng = np.random.default_rng(4)
    vol = Volume3(rng.random((10, 10, 10)))
    fwd = warp(vol, TranslationTransform((0.5, 0.0, 0.0)))
    back = warp(fwd, TranslationTransform((-0.5, 0.0, 0.0)))
    f = vol.scalar.astype(np.float64)
    d2 = np.abs(np.diff(f, n=2, axis=0)).max()
    err = np.abs(back.scalar.astype(np.float64) - f)[2:-2]
    # Two half-voxel lerps each smooth by at most (1/8) max |second difference|.
    assert err.max() <= 2.0 * d2 / 8.0 + 1e-5


# ---------------------------------------------------------------------------
# phantoms


@pytest.mark.parametrize("kind", ["blobs", "checker-smooth"])
def test_phantom_range_and_determinism(kind):
    a = make_phantom((16, 16, 16), kind, seed=0)
    b = make_phantom((16, 16, 16), kind, seed=0)
    c = make_phantom((16, 16, 16), kind, seed=1)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    s = a.scalar
    assert float(s.min()) == 0.0
    assert float(s.max()) == 1.0


@pytest.mark.parametrize("kind", ["blobs", "checker-smooth"])
def test_phantom_has_gradient_everywhere(kind):
    # Every voxel carries signal: the fraction with a nonzero spatial
    # gradient is exactly 1.0 for both kinds (frozen from a reference run).
    f = make_phantom((16, 16, 16), kind, seed=0).scalar.astype(np.float64)
    gx, gy, gz = np.gradient(f)
    frac = float(np.mean((np.abs(gx) + np.abs(gy) + np.abs(gz)) > 0))
    assert frac == 1.0


def test_phantom_shape_validation():
    with pytest.raises(ValueError, match="at least 16"):
        make_phantom((8, 16, 16), "blobs", seed=0)
    with pytest.raises(ValueError):
        make_phantom((16, 16, 16), "no-such-kind", seed=0)


# ---------------------------------------------------------------------------
# RCV1 container


def test_rcv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    vol = Volume3(rng.random((4, 5, 6, 3)), spacing=(1.0, 2.0, 3.0), origin=(-1.0, 0.5, 2.0))
    p = tmp_path / "v.rcv"
    write_volume(p, vol)
    back = read_volume(p)
    assert np.array_equal(back.data, vol.data)
    assert np.array_equal(back.spacing, vol.spacing)
    assert np.array_equal(back.origin, vol.origin)


def test_rcv_byte_layout(tmp_path):
    rng = np.random.default_rng(6)
    vol = Volume3(rng.random((4, 5, 6, 3)))
    p = tmp_path / "v.rcv"
    write_volume(p, vol)
    raw = p.read_bytes()
    magic, version = struct.unpack_from("<4sI", raw, 0)
    assert magic == b"RCV1"
    assert version == 1
    channels, nx, ny, nz = struct.unpack_from("<4I", raw, 16)
    assert (channels, nx, ny, nz) == (3, 4, 5, 6)
    # float32 payload at byte 80, channel fastest, then x, y, z.
    x, y, z, c = 1, 2, 3, 2
    off = 80 + 4 * (c + channels * (x + nx * (y + ny * z)))
    (val,) = struct.unpack_from("<f", raw, off)
    assert val == vol.data[x, y, z, c]


def test_rcv_payload_is_every_value_in_file_order(tmp_path):
    # The payload streams from the interleaved array; (z, y, x, c) C order is
    # the same layout spelled independently.
    rng = np.random.default_rng(7)
    vol = Volume3(rng.random((5, 3, 4, 2)))
    p = tmp_path / "v.rcv"
    write_volume(p, vol)
    assert p.read_bytes()[80:] == vol.data.transpose(2, 1, 0, 3).astype("<f4").tobytes()


def test_write_atomic_writes_chunks_in_turn(tmp_path):
    p = tmp_path / "artifact"
    write_atomic(p, (b"ab", bytearray(b"c"), memoryview(b"de"), np.arange(2, dtype="<u2")))
    assert p.read_bytes() == b"abcde\x00\x00\x01\x00"


def test_write_atomic_iterator_failure_keeps_old_target(tmp_path):
    p = tmp_path / "artifact"
    write_atomic(p, b"old")

    def chunks():
        yield b"first half of the new file"
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError, match="stream broke"):
        write_atomic(p, chunks())
    assert p.read_bytes() == b"old"
    assert [q.name for q in tmp_path.iterdir()] == ["artifact"]


def test_read_volume_peak_memory_is_the_file_and_the_volume(tmp_path):
    # The payload is read in place from the file's bytes; only the volume's
    # own array is a second copy.
    vol = Volume3(np.random.default_rng(9).standard_normal((32, 32, 32, 6)))
    path = tmp_path / "v.rcv"
    write_volume(path, vol)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.data.tobytes() == vol.data.tobytes()
    assert peak < 2.2 * size, f"read_volume peaked at {peak / size:.2f}x the file size"


def test_rcv_truncated_payload_rejected(tmp_path):
    vol = Volume3(np.zeros((4, 4, 4)))
    p = tmp_path / "v.rcv"
    write_volume(p, vol)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(VolumeFormatError, match="payload length mismatch"):
        read_volume(p)


def test_rcv_bad_magic_and_version(tmp_path):
    vol = Volume3(np.zeros((4, 4, 4)))
    p = tmp_path / "v.rcv"
    write_volume(p, vol)
    raw = bytearray(p.read_bytes())
    q = tmp_path / "bad_magic.rcv"
    q.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(VolumeFormatError, match="bad magic"):
        read_volume(q)
    raw2 = bytearray(raw)
    struct.pack_into("<I", raw2, 4, 99)
    q2 = tmp_path / "bad_version.rcv"
    q2.write_bytes(bytes(raw2))
    with pytest.raises(VolumeFormatError, match="unsupported version"):
        read_volume(q2)


def test_rcv_non_finite_payload_rejected(tmp_path):
    vol = Volume3(np.zeros((2, 2, 2)))
    p = tmp_path / "v.rcv"
    write_volume(p, vol)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<f", raw, 80, np.nan)
    p.write_bytes(bytes(raw))
    with pytest.raises(VolumeFormatError, match="non-finite"):
        read_volume(p)


def test_rcv_truncated_header_rejected(tmp_path):
    p = tmp_path / "v.rcv"
    p.write_bytes(b"RCV1")
    with pytest.raises(VolumeFormatError):
        read_volume(p)


@pytest.mark.parametrize(
    "offset, value, what",
    [(32, 0.0, "spacing"), (40, -1.0, "spacing"), (56, np.nan, "origin"), (72, np.inf, "origin")],
)
def test_rcv_bad_header_metadata_is_format_error(tmp_path, offset, value, what):
    # Spacing sits at bytes 32-55 and origin at 56-79; a corrupt value must be
    # reported as a format error that names the file, not as a ValueError.
    p = tmp_path / "v.rcv"
    write_volume(p, Volume3(np.zeros((2, 2, 2))))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    p.write_bytes(bytes(raw))
    with pytest.raises(VolumeFormatError, match=what) as info:
        read_volume(p)
    assert str(p) in str(info.value)


# ---------------------------------------------------------------------------
# NIfTI-1 import


def test_nifti_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.random((5, 4, 3)).astype(np.float32)
    p = tmp_path / "v.nii"
    write_minimal_nifti(p, data, spacing=(1.0, 1.5, 2.0))
    vol = read_nifti(p)
    assert np.array_equal(vol.scalar, data)
    assert np.array_equal(vol.spacing, (1.0, 1.5, 2.0))


def test_nifti_big_endian_supported(tmp_path):
    rng = np.random.default_rng(8)
    data = rng.random((4, 4, 4)).astype(np.float32)
    p = tmp_path / "v.nii"
    write_minimal_nifti(p, data, byteorder=">")
    vol = read_nifti(p)
    assert np.array_equal(vol.scalar, data)


def test_nifti_wrong_datatype_rejected(tmp_path):
    data = np.zeros((4, 4, 4), dtype=np.float32)
    p = tmp_path / "v.nii"
    write_minimal_nifti(p, data)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<h", raw, 70, 4)  # int16
    p.write_bytes(bytes(raw))
    with pytest.raises(VolumeFormatError, match="only float32"):
        read_nifti(p)


def test_nifti_gzip_rejected(tmp_path):
    p = tmp_path / "v.nii.gz"
    p.write_bytes(gzip.compress(b"\x00" * 400))
    with pytest.raises(VolumeFormatError, match="compressed"):
        read_nifti(p)


def test_nifti_garbage_rejected(tmp_path):
    p = tmp_path / "v.nii"
    p.write_bytes(b"\x00" * 400)
    with pytest.raises(VolumeFormatError, match="not a NIfTI-1"):
        read_nifti(p)


@pytest.mark.parametrize(
    "offset, value, what",
    [(108, np.nan, "vox_offset"), (108, np.inf, "vox_offset"), (268, np.nan, "origin")],
)
def test_nifti_bad_header_metadata_is_format_error(tmp_path, offset, value, what):
    p = tmp_path / "v.nii"
    write_minimal_nifti(p, np.zeros((4, 4, 4), dtype=np.float32))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<f", raw, offset, value)
    p.write_bytes(bytes(raw))
    with pytest.raises(VolumeFormatError, match=what) as info:
        read_nifti(p)
    assert str(p) in str(info.value)
