"""Flat binary checkpoint format for named tensors.

Layout: 8-byte little-endian header length, a UTF-8 JSON index
``[{"name", "dtype", "shape", "offset", "nbytes"}, ...]``, then the raw
little-endian tensor bytes back to back. Deterministic: tensors are written
in sorted name order.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"PKT1"


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    index = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        le = np.ascontiguousarray(arr.astype(arr.dtype.newbyteorder("<"),
                                             copy=False))
        raw = le.tobytes()
        index.append({"name": name, "dtype": arr.dtype.str.replace(">", "<"),
                      "shape": list(arr.shape), "offset": offset,
                      "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps(index).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for raw in blobs:
            f.write(raw)


class CheckpointError(ValueError):
    """A checkpoint file that is not well formed; names the tensor if one is at fault."""


def _index_entry(entry, blob_size: int):
    """(name, dtype, shape, offset, nbytes) of one index entry, checked
    against the size of the tensor data; raises CheckpointError."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointError(f"index entry {entry!r} has no name")
    name = entry["name"]
    try:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        offset, nbytes = entry["offset"], entry["nbytes"]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"tensor {name!r}: bad index entry ({e})") from None
    if dtype.hasobject or dtype.itemsize == 0:
        raise CheckpointError(f"tensor {name!r}: dtype {dtype} cannot be read from bytes")
    counts = (*shape, offset, nbytes)
    if not all(type(v) is int and v >= 0 for v in counts):
        raise CheckpointError(f"tensor {name!r}: shape, offset and nbytes must be "
                              f"non-negative integers, got {list(shape)}, {offset!r}, "
                              f"{nbytes!r}")
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise CheckpointError(f"tensor {name!r}: shape {list(shape)} of {dtype} "
                              f"needs {math.prod(shape) * dtype.itemsize} bytes, "
                              f"index says {nbytes}")
    if offset + nbytes > blob_size:
        raise CheckpointError(f"tensor {name!r}: bytes {offset}..{offset + nbytes} "
                              f"run past the end of the file's {blob_size} data bytes")
    return name, dtype, shape, offset, nbytes


def load_tensors(path) -> dict[str, np.ndarray]:
    """Reads a checkpoint; raises CheckpointError, naming the tensor, if the
    header or any index entry does not fit the file."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"not a checkpoint file: bad magic {magic!r}")
        head = f.read(8)
        if len(head) != 8:
            raise CheckpointError("checkpoint ends inside its header length")
        (header_len,) = struct.unpack("<Q", head)
        if header_len > size - 12:
            raise CheckpointError(f"header length {header_len} exceeds the "
                                  f"{size - 12} bytes after it")
        try:
            index = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"unreadable checkpoint index: {e}") from None
        blob = f.read()
    if not isinstance(index, list):
        raise CheckpointError("checkpoint index must be a list")
    tensors = {}
    for entry in index:
        name, dtype, shape, offset, nbytes = _index_entry(entry, len(blob))
        arr = np.frombuffer(blob, dtype=dtype, count=nbytes // dtype.itemsize,
                            offset=offset)
        tensors[name] = arr.reshape(shape).copy()
    return tensors
