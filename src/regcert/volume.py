"""Volumes, phantoms, warping, and file I/O.

Volumes hold float32 payloads on a 3-D grid, optionally multi-channel, with
spacing/origin metadata carried along untouched.  The native file format is
RCV1, a little-endian raw layout with channel-interleaved values and x the
fastest-varying spatial axis.  A minimal read-only NIfTI-1 importer accepts
uncompressed single-file float32 images only.
"""

from __future__ import annotations

import os
import struct
import uuid
from dataclasses import dataclass

import numpy as np

from .geometry import Transform, grid_points, trilinear_sample

__all__ = [
    "VolumeFormatError",
    "Volume3",
    "RoiMask",
    "warp",
    "make_phantom",
    "read_volume",
    "write_volume",
    "write_atomic",
    "read_nifti",
]

_MAGIC = b"RCV1"
_VERSION = 1
_PHANTOM_KINDS = ("blobs", "checker-smooth")


class VolumeFormatError(Exception):
    """A volume file violates the expected layout."""


class Volume3:
    """A float32 image on a voxel grid, shape (nx, ny, nz) with C channels.

    Data is stored as an immutable (nx, ny, nz, C) array; scalar input grows
    a trailing channel axis.  Spacing and origin are metadata only.
    """

    def __init__(self, data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
        arr = np.asarray(data)
        if arr.ndim == 3:
            arr = arr[..., None]
        if arr.ndim != 4:
            raise ValueError(f"volume data must be 3-D or 4-D, got ndim={arr.ndim}")
        if any(s < 1 for s in arr.shape):
            raise ValueError(f"bad volume shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume data must be finite")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        arr.flags.writeable = False
        self.data = arr
        sp = np.asarray(spacing, dtype=np.float64)
        og = np.asarray(origin, dtype=np.float64)
        if sp.shape != (3,) or og.shape != (3,):
            raise ValueError("spacing and origin must be 3-vectors")
        if not (np.all(np.isfinite(sp)) and np.all(sp > 0)):
            raise ValueError("spacing must be positive and finite")
        if not np.all(np.isfinite(og)):
            raise ValueError("origin must be finite")
        sp.flags.writeable = False
        og.flags.writeable = False
        self.spacing = sp
        self.origin = og

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    @property
    def scalar(self) -> np.ndarray:
        """The single channel of a 1-channel volume, shape (nx, ny, nz)."""
        if self.channels != 1:
            raise ValueError(f"volume has {self.channels} channels, not 1")
        return self.data[..., 0]

    def __repr__(self):
        return f"Volume3(shape={self.shape}, channels={self.channels})"


@dataclass(frozen=True)
class RoiMask:
    """Boolean voxel mask; at least one voxel must be set."""

    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 3:
            raise ValueError("mask must be 3-D")
        if not m.any():
            raise ValueError("mask selects no voxels")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @classmethod
    def full(cls, shape) -> "RoiMask":
        return cls(np.ones(tuple(int(s) for s in shape), dtype=bool))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.mask.shape

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def warp(volume: Volume3, t: Transform) -> Volume3:
    """Pull-back warp: out(y) = volume(t(y)) on the volume's own grid."""
    vals = trilinear_sample(volume.data, t.apply_grid(volume.shape))
    out = vals.reshape(volume.shape + (volume.channels,)).astype(np.float32)
    return Volume3(out, spacing=volume.spacing, origin=volume.origin)


def make_phantom(shape, kind: str = "blobs", seed: int = 0) -> Volume3:
    """Deterministic synthetic test image, values normalized to [0, 1].

    'blobs' sums 5-15 anisotropic Gaussian bumps; 'checker-smooth' is a
    product of low-frequency sinusoids.  Shapes below 16 voxels per axis
    are refused: the phantoms need room for structure.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 16 for s in shape):
        raise ValueError(f"phantom shape must be at least 16 per axis, got {shape}")
    if kind not in _PHANTOM_KINDS:
        raise ValueError(f"unknown phantom kind {kind!r}; expected one of {_PHANTOM_KINDS}")
    rng = np.random.default_rng(seed)
    grid = grid_points(shape)
    extent = np.asarray(shape, dtype=np.float64) - 1.0
    if kind == "blobs":
        n_blobs = int(rng.integers(5, 16))
        centers = rng.uniform(0.0, 1.0, size=(n_blobs, 3)) * extent
        sigmas = rng.uniform(1.0 / 16.0, 1.0 / 5.0, size=(n_blobs, 3)) * np.asarray(shape)
        amps = rng.uniform(0.4, 1.0, size=n_blobs)
        f = np.zeros(shape, dtype=np.float64)
        for c, s, a in zip(centers, sigmas, amps):
            d2 = ((grid - c) / s) ** 2
            f += a * np.exp(-0.5 * d2.sum(axis=-1))
    else:
        freqs = rng.uniform(1.0, 3.0, size=3)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        f = np.ones(shape, dtype=np.float64)
        for ax in range(3):
            x = grid[..., ax] / max(extent[ax], 1.0)
            f *= 0.5 + 0.5 * np.sin(2.0 * np.pi * freqs[ax] * x + phases[ax])
    lo, hi = float(f.min()), float(f.max())
    f = (f - lo) / (hi - lo)
    return Volume3(f.astype(np.float32))


def _interleave(data: np.ndarray) -> np.ndarray:
    """(nx, ny, nz, C) -> flat with channel fastest, then x, then y, then z."""
    return np.moveaxis(data, 3, 0).ravel(order="F")


def _deinterleave(flat: np.ndarray, shape, channels: int) -> np.ndarray:
    nx, ny, nz = shape
    return np.moveaxis(flat.reshape((channels, nx, ny, nz), order="F"), 0, 3)


def write_volume(path, volume: Volume3) -> None:
    """Write a volume as RCV1 (little-endian, channel-interleaved, x fastest)."""
    header = struct.pack("<4sI8x", _MAGIC, _VERSION)
    nx, ny, nz = volume.shape
    meta = struct.pack(
        "<4I3d3d",
        volume.channels,
        nx,
        ny,
        nz,
        *volume.spacing.tolist(),
        *volume.origin.tolist(),
    )
    # The payload is written from the interleaved array itself, not a bytes copy of it.
    payload = _interleave(volume.data).astype("<f4", copy=False)
    write_atomic(path, (header + meta, payload))


def write_atomic(path, data) -> None:
    """Replace ``path`` with ``data`` all at once: readers see the old or the new file.

    ``data`` is one bytes-like object or an iterable of them, written in
    turn, so a caller can stream a file it never holds whole.  The bytes go
    to a hidden temp file in the target's directory, which is then renamed
    onto the target; on any error, one raised by the iterable included, the
    temp file is removed and the target is left as it was.
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_volume(path, data, spacing, origin) -> Volume3:
    """Volume3 from a file's header fields; bad spacing or origin is a format error."""
    try:
        return Volume3(data, spacing=spacing, origin=origin)
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: {exc}") from exc


def read_volume(path) -> Volume3:
    """Read an RCV1 volume; format violations raise VolumeFormatError."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise VolumeFormatError(f"{path}: truncated header")
    magic, version = struct.unpack_from("<4sI", raw, 0)
    if magic != _MAGIC:
        raise VolumeFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise VolumeFormatError(f"{path}: unsupported version {version}")
    meta_size = struct.calcsize("<4I3d3d")
    if len(raw) < 16 + meta_size:
        raise VolumeFormatError(f"{path}: truncated metadata")
    channels, nx, ny, nz, *rest = struct.unpack_from("<4I3d3d", raw, 16)
    spacing = rest[:3]
    origin = rest[3:]
    if channels < 1 or min(nx, ny, nz) < 1:
        raise VolumeFormatError(f"{path}: bad dimensions channels={channels} shape=({nx}, {ny}, {nz})")
    count = channels * nx * ny * nz
    payload_size = len(raw) - (16 + meta_size)
    if payload_size != 4 * count:
        raise VolumeFormatError(
            f"{path}: payload length mismatch (expected {4 * count} bytes, got {payload_size})"
        )
    # A view of the payload inside raw, not a sliced copy of it.
    flat = np.frombuffer(raw, dtype="<f4", count=count, offset=16 + meta_size)
    if not np.all(np.isfinite(flat)):
        raise VolumeFormatError(f"{path}: non-finite values in payload")
    data = _deinterleave(flat, (nx, ny, nz), channels)
    return _header_volume(path, data, spacing, origin)


def read_nifti(path) -> Volume3:
    """Import an uncompressed single-file NIfTI-1 image; float32 data only."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raise VolumeFormatError(f"{path}: compressed NIfTI is not supported")
    if len(raw) < 352:
        raise VolumeFormatError(f"{path}: file too small for a NIfTI-1 header")
    sizeof_hdr = struct.unpack_from("<i", raw, 0)[0]
    if sizeof_hdr == 348:
        end = "<"
    elif struct.unpack_from(">i", raw, 0)[0] == 348:
        end = ">"
    else:
        raise VolumeFormatError(f"{path}: not a NIfTI-1 file (sizeof_hdr={sizeof_hdr})")
    magic = raw[344:348]
    if magic != b"n+1\x00":
        raise VolumeFormatError(
            f"{path}: magic {magic!r} is not a single-file NIfTI-1 image"
        )
    dim = struct.unpack_from(end + "8h", raw, 40)
    datatype = struct.unpack_from(end + "h", raw, 70)[0]
    if datatype != 16:
        raise VolumeFormatError(
            f"{path}: unsupported NIfTI datatype {datatype}; only float32 (code 16) is accepted"
        )
    ndim = dim[0]
    if ndim < 3 or any(d > 1 for d in dim[4 : 1 + ndim]):
        raise VolumeFormatError(f"{path}: expected a 3-D image, got dim={dim}")
    shape = tuple(int(d) for d in dim[1:4])
    if any(s < 1 for s in shape):
        raise VolumeFormatError(f"{path}: bad image dimensions {shape}")
    pixdim = struct.unpack_from(end + "8f", raw, 76)
    vox_offset = struct.unpack_from(end + "f", raw, 108)[0]
    # NaN fails every comparison and inf exceeds the file, so both land here.
    if not 348 <= vox_offset <= len(raw):
        raise VolumeFormatError(f"{path}: bad vox_offset {vox_offset}")
    vox_offset = int(vox_offset)
    qoffset = struct.unpack_from(end + "3f", raw, 268)
    count = int(np.prod(shape))
    payload = raw[vox_offset : vox_offset + 4 * count]
    if len(payload) != 4 * count:
        raise VolumeFormatError(f"{path}: payload length mismatch")
    flat = np.frombuffer(payload, dtype=end + "f4")
    if not np.all(np.isfinite(flat)):
        raise VolumeFormatError(f"{path}: non-finite values in payload")
    data = flat.astype(np.float32).reshape(shape, order="F")
    spacing = [p if p > 0 else 1.0 for p in pixdim[1:4]]
    return _header_volume(path, data, spacing, qoffset)
