"""Binary checkpoint of named float64 arrays, and the one check of its entries.

Layout: magic ``PTTA``, version u32, entry count u32, then per entry a
u16-length UTF-8 name, rank u8, one u32 extent per axis, and the row-major
float64 payload. All integers and floats are little-endian. Readers reject
unknown magic or versions.

Contract: a reader names the entries it expects. ``read_checkpoint(path,
shapes)`` returns exactly the entries of ``shapes``, each of its shape and
finite, or raises a ``CheckpointError`` naming the entry at fault (missing,
extra, wrong shape or non-finite); a damaged file is refused before that.
Loaders add only the rules of their own values.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PTTA"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed or unsupported checkpoint data."""


def write_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays in the given order."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(entries))]
    for name, values in entries.items():
        # np.ascontiguousarray would turn a 0-d array into shape (1,)
        arr = np.array(values, dtype=np.float64, order="C")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_checkpoint(path, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Read named arrays, preserving write order: exactly the entries of
    ``shapes``, each of its shape, every value finite."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    cursor = 12
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, cursor)
            cursor += 2
            name = blob[cursor : cursor + name_len].decode("utf-8")
            cursor += name_len
            (rank,) = struct.unpack_from("<B", blob, cursor)
            cursor += 1
            shape = struct.unpack_from(f"<{rank}I", blob, cursor)
            cursor += 4 * rank
        except struct.error as exc:
            raise CheckpointError("truncated checkpoint") from exc
        except UnicodeDecodeError as exc:
            raise CheckpointError("checkpoint entry name is not UTF-8") from exc
        if name in entries:
            raise CheckpointError(f"duplicate checkpoint entry {name!r}")
        size = math.prod(shape)  # a Python int, so no product of extents overflows
        if len(blob) - cursor < 8 * size:
            raise CheckpointError("truncated checkpoint payload")
        # numpy sizes an array by its non-zero extents, even when another is zero
        if 8 * math.prod(e for e in shape if e) > np.iinfo(np.intp).max:
            raise CheckpointError("checkpoint extents exceed the addressable size")
        payload = np.frombuffer(blob, dtype="<f8", count=size, offset=cursor)
        cursor += 8 * size
        entries[name] = payload.astype(np.float64).reshape(shape)
    if cursor != len(blob):
        raise CheckpointError("trailing bytes after last checkpoint entry")
    for name, values in entries.items():
        if name not in shapes:  # quoted: a damaged name may hold any character
            raise CheckpointError(f"checkpoint entry {name!r} has no place in the model")
        if values.shape != shapes[name]:
            raise CheckpointError(f"checkpoint shape mismatch for {name}: {values.shape}, expected {shapes[name]}")
        if not np.isfinite(values).all():
            raise CheckpointError(f"checkpoint entry {name} is not finite")
    missing = [name for name in shapes if name not in entries]
    if missing:
        raise CheckpointError(f"checkpoint missing entry {missing[0]}")
    return entries
