"""On-disk container for run artifacts.

One file = the magic ``GCL2``, a JSON header, named little-endian array
records with shape headers, and the sha256 of every byte before it.  A
reader checks that digest before it parses anything, so a flipped or
truncated file is rejected whole.  Writing the same payload twice produces
identical bytes (no timestamps, sorted JSON keys), which is what makes
whole run directories byte-comparable across reruns.  Files are written
atomically (write-temp-then-rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"GCL2"

# dtype code of an array record -> the little-endian dtype of its payload
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("|i1"), 2: np.dtype("<i4"), 3: np.dtype("<i8")}


class StoreFormatError(ValueError):
    """Container file is malformed or from an unknown version."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_container(path: str | Path, header: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC]
    header_bytes = canonical_json(header).encode("utf-8")
    chunks.append(struct.pack("<I", len(header_bytes)))
    chunks.append(header_bytes)
    chunks.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.asanyarray(arrays[name])
        codes = [code for code, dt in _DTYPES.items() if dt == arr.dtype]
        if not codes:
            raise StoreFormatError(f"{name}: unsupported dtype {arr.dtype}")
        payload = np.ascontiguousarray(arr).tobytes()
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", codes[0], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(payload)
    body = b"".join(chunks)
    _write_atomic(path, body + hashlib.sha256(body).digest())


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a container file; StoreFormatError for any file
    that is not one (bad magic or checksum, truncated, unknown dtype,
    trailing bytes)."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise StoreFormatError(f"{path}: bad magic {raw[:4]!r}")
    raw, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(raw).digest() != digest:
        raise StoreFormatError(f"{path}: sha256 checksum mismatch")
    try:
        header, arrays, pos = _parse_records(raw)
    except (struct.error, ValueError, KeyError) as e:   # UnicodeDecodeError is a ValueError
        raise StoreFormatError(f"{path}: malformed container: {type(e).__name__}: {e}") from e
    if not isinstance(header, dict):
        raise StoreFormatError(f"{path}: header is {type(header).__name__}, not an object")
    if pos != len(raw):
        raise StoreFormatError(f"{path}: {len(raw) - pos} trailing bytes")
    return header, arrays


def _parse_records(raw: bytes) -> tuple[object, dict[str, np.ndarray], int]:
    pos = 4
    (header_len,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    header = json.loads(raw[pos:pos + header_len].decode("utf-8"))
    pos += header_len
    (n_records,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        name = raw[pos:pos + name_len].decode("utf-8")
        pos += name_len
        code, ndim = struct.unpack_from("<BB", raw, pos)
        pos += 2
        shape = struct.unpack_from(f"<{ndim}I", raw, pos)
        pos += 4 * ndim
        dt = _DTYPES[code]
        count = math.prod(shape)   # 1 for a 0-d array, 0 for an empty one
        if count * dt.itemsize > len(raw) - pos:   # also a shape past ssize_t
            raise ValueError(f"record {name!r} of shape {shape} runs past the end")
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=pos).reshape(shape)
        pos += count * dt.itemsize
        arrays[name] = arr.copy()
    return header, arrays, pos


def write_text_atomic(path: str | Path, text: str) -> None:
    _write_atomic(path, text.encode("utf-8"))


def _write_atomic(path: str | Path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
