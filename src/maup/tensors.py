"""Dense array types and bit-exact binary tensor I/O.

All maps use (row, col) indexing internally; row 0 is the top of the frame.
Feature maps are channel-major: ``data[c, y, x]``.

File format (one tensor per file):

======  ====================================================
bytes   meaning
======  ====================================================
0-3     ASCII magic ``MAUP``
4       version, must be 1
5       dtype code: 1 = little-endian float32, 2 = uint8
6       rank: 2 or 3
7       reserved, must be 0
8-...   rank * uint32 little-endian dims (C,H,W or H,W)
...     payload, row-major (channel-major for rank 3)
======  ====================================================

Rank-3 float32 files hold feature maps, rank-2 float32 files scalar maps,
and rank-2 uint8 files binary masks (values restricted to {0, 1}).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DataError, FormatError, MaupError

MAGIC = b"MAUP"
VERSION = 1
DTYPE_F32 = 1
DTYPE_U8 = 2


def _check_shape(arr: np.ndarray, name: str, rank: int) -> None:
    if arr.ndim != rank:
        raise FormatError(f"{name} must be rank {rank}, got rank {arr.ndim}")
    if min(arr.shape) < 1:
        raise FormatError(f"{name} dims must be >= 1, got {arr.shape}")


def _finite_float32(data, name: str, rank: int) -> np.ndarray:
    """``data`` as a C-contiguous float32 array of the given rank, every dim and value checked."""
    arr = np.ascontiguousarray(data, dtype=np.float32)
    _check_shape(arr, name, rank)
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class FeatureMap:
    """C x H x W float32 feature tensor, channel-major and row-major."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _finite_float32(self.data, "feature map", 3))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def __repr__(self):
        return f"FeatureMap(C={self.channels}, H={self.height}, W={self.width})"


@dataclass(frozen=True, eq=False, repr=False)
class ScalarMap:
    """H x W float32 map of real values (similarity, uncertainty, intensity)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_float32(self.values, "scalar map", 2))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def __repr__(self):
        return f"ScalarMap(H={self.height}, W={self.width})"


@dataclass(frozen=True, eq=False, repr=False)
class BitMask:
    """H x W binary mask stored as uint8 with values in {0, 1}."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        _check_shape(arr, "mask", 2)
        if arr.dtype != np.uint8:
            if not np.isin(arr, (0, 1)).all():
                raise DataError("mask values must be 0 or 1")
            arr = arr.astype(np.uint8)
        elif not (arr <= 1).all():
            raise DataError("mask values must be 0 or 1")
        object.__setattr__(self, "bits", np.ascontiguousarray(arr))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def foreground_count(self) -> int:
        return int(self.bits.sum())

    def __repr__(self):
        return f"BitMask(H={self.height}, W={self.width}, fg={self.foreground_count})"


Tensor = Union[FeatureMap, ScalarMap, BitMask]

_HEADER = struct.Struct("<4sBBBB")


def save_tensor(t: Tensor, path) -> None:
    """Write a tensor to disk in the binary format described above.

    Raises OSError if the path is not writable.
    """
    if isinstance(t, FeatureMap):
        dtype_code, payload = DTYPE_F32, t.data
    elif isinstance(t, ScalarMap):
        dtype_code, payload = DTYPE_F32, t.values
    elif isinstance(t, BitMask):
        dtype_code, payload = DTYPE_U8, t.bits
    else:
        raise TypeError(f"cannot serialize object of type {type(t).__name__}")
    header = _HEADER.pack(MAGIC, VERSION, dtype_code, payload.ndim, 0)
    dims = np.asarray(payload.shape, dtype="<u4").tobytes()
    if dtype_code == DTYPE_F32:
        body = payload.astype("<f4", copy=False).tobytes(order="C")
    else:
        body = payload.tobytes(order="C")
    Path(path).write_bytes(header + dims + body)


def load_tensor(path, expect: type | None = None) -> Tensor:
    """Read one tensor back from disk.

    The concrete type follows from the header: rank 3 + f32 is a FeatureMap,
    rank 2 + f32 a ScalarMap, rank 2 + u8 a BitMask. Pass ``expect`` to insist
    on one of those types.

    Raises FormatError for malformed headers, truncated payloads, rank-3
    uint8 data (no tensor type) or a type other than ``expect``, and
    DataError for payload values outside the type's domain.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than fixed header")
    magic, version, dtype_code, rank, reserved = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dtype_code not in (DTYPE_F32, DTYPE_U8):
        raise FormatError(f"{path}: unknown dtype code {dtype_code}")
    if rank not in (2, 3):
        raise FormatError(f"{path}: rank must be 2 or 3, got {rank}")
    if reserved != 0:
        raise FormatError(f"{path}: reserved byte must be 0, got {reserved}")
    dims_end = _HEADER.size + 4 * rank
    if len(raw) < dims_end:
        raise FormatError(f"{path}: truncated dim table")
    dims = tuple(int(d) for d in np.frombuffer(raw, dtype="<u4", count=rank, offset=_HEADER.size))
    if min(dims) < 1:
        raise FormatError(f"{path}: zero dimension in {dims}")
    count = int(np.prod(dims, dtype=object))  # a Python int: an int64 product could wrap
    itemsize = 4 if dtype_code == DTYPE_F32 else 1
    if len(raw) - dims_end != count * itemsize:
        raise FormatError(
            f"{path}: payload is {len(raw) - dims_end} bytes, expected {count * itemsize}"
        )
    if dtype_code == DTYPE_U8 and rank == 3:
        raise FormatError(f"{path}: no tensor type for rank-3 uint8 data")
    kind = BitMask if dtype_code == DTYPE_U8 else FeatureMap if rank == 3 else ScalarMap
    dtype = np.uint8 if dtype_code == DTYPE_U8 else "<f4"
    # one copy: the tensor owns a writable array and does not pin the file's bytes
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=dims_end).reshape(dims).copy()
    try:
        tensor: Tensor = kind(arr)  # the type checks the values' domain
    except MaupError as e:
        raise type(e)(f"{path}: {e}") from e
    if expect is not None and not isinstance(tensor, expect):
        raise FormatError(
            f"{path}: holds a {type(tensor).__name__}, caller requested {expect.__name__}"
        )
    return tensor
