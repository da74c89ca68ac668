"""FCT1 binary tensor files.

Layout: magic ``FCT1`` (4 bytes), u8 dtype code (0=f32, 1=f64, 2=c128 with
interleaved re/im), u8 rank, little-endian u32 dims[rank], then the row-major
payload.  Round trips are bit-exact.  Read errors are distinct per failure
mode and carry the byte offset where parsing stopped.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

MAGIC = b"FCT1"

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<c16")}
_DTYPE_TO_CODE = {dtype: code for code, dtype in _CODE_TO_DTYPE.items()}


class TensorFileError(IOError):
    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (at byte {byte_offset})")
        self.message, self.byte_offset = message, byte_offset


class BadMagicError(TensorFileError):
    pass


class TruncatedError(TensorFileError):
    pass


class DtypeMismatchError(TensorFileError):
    pass


def write_stream(fh: io.BufferedIOBase, tensor: np.ndarray) -> None:
    a = np.asarray(tensor)
    if (code := _DTYPE_TO_CODE.get(a.dtype)) is None:
        raise TensorFileError(f"unsupported dtype {a.dtype}", 0)
    fh.write(MAGIC)
    fh.write(bytes([code, a.ndim]))
    fh.write(np.asarray(a.shape, dtype="<u4").tobytes())
    fh.write(a.tobytes())  # tobytes emits C order regardless of layout


def _read_header(fh: io.BufferedIOBase) -> tuple[int, tuple[int, ...], int]:
    """Parse the FCT1 header at the stream position: (dtype code, dims, payload bytes).

    The stream is left at the payload, which must be all there; it is not read.
    """
    pos = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(pos)

    def have(n: int, what: str) -> None:
        if end - pos < n:  # checked before reading: dims may claim more bytes than memory holds
            raise TruncatedError(f"truncated {what}: expected {n} bytes, got {end - pos}", end)

    def need(n: int, what: str) -> bytes:
        nonlocal pos
        have(n, what)
        pos += n
        return fh.read(n)

    magic = need(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}", pos - 4)
    code = need(1, "dtype code")[0]
    if code not in _CODE_TO_DTYPE:
        raise DtypeMismatchError(f"unknown dtype code {code}", pos - 1)
    rank = need(1, "rank")[0]
    dims = tuple(int(d) for d in np.frombuffer(need(4 * rank, "dims"), dtype="<u4"))
    nbytes = math.prod(dims) * _CODE_TO_DTYPE[code].itemsize  # Python ints: no u4 wrap
    have(nbytes, "payload")
    return code, dims, nbytes


def read_stream(fh: io.BufferedIOBase) -> np.ndarray:
    code, dims, nbytes = _read_header(fh)
    return np.frombuffer(fh.read(nbytes), dtype=_CODE_TO_DTYPE[code]).reshape(dims).copy()


def write_tensor(path: str | Path, tensor: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_stream(fh, tensor)


def read_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_stream(fh)


def validate_header(path: str | Path) -> tuple[int, tuple[int, ...]]:
    """Cheap file check: (dtype code, dims), once the payload they claim is known to be there."""
    with open(path, "rb") as fh:
        code, dims, _ = _read_header(fh)
    return code, dims
