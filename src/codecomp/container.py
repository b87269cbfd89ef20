"""The binary container shared by all four file formats.

Every file starts with a 4-byte magic, a version byte (1) and a fixed
number of little-endian u32 header fields. Arrays follow row-major and
little-endian (float32 unless a format says otherwise), and a vocabulary
is each word's UTF-8 bytes behind a u32 length. This module is the only
one that writes or parses those pieces; each format (DEM1 embeddings,
DCC1 codes, DCB1 codebooks, DCLM checkpoints) only chooses its magic, its
header fields and the order of what follows.

Readers work on the whole file as bytes and take a `source` (the path,
or a description for in-memory data) that prefixes every error message.
"""

import math
import struct

import numpy as np

from .errors import DataError

VERSION = 1


def header(magic, *fields):
    """Magic, version byte and the u32 fields as bytes."""
    return magic + struct.pack(f"<B{len(fields)}I", VERSION, *fields)


def read_header(data, magic, count, source):
    """Check magic and version; returns (the count u32 fields, payload offset)."""
    end = 5 + 4 * count
    if len(data) < end:
        raise DataError(
            f"{source}: too short: {len(data)} bytes, need {end} for the "
            f"{magic.decode()} header"
        )
    if data[:4] != magic:
        raise DataError(
            f"{source}: bad magic {data[:4]!r} at offset 0, expected {magic!r}"
        )
    if data[4] != VERSION:
        raise DataError(
            f"{source}: unsupported {magic.decode()} version {data[4]} at offset 4"
        )
    return struct.unpack_from(f"<{count}I", data, 5), end


def floats(array):
    """Row-major little-endian float32 bytes of an array."""
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


def read_array(data, offset, shape, source, dtype="<f4"):
    """A copy of the array of `shape` stored at offset; returns (array, end offset)."""
    count = math.prod(shape)
    nbytes = count * np.dtype(dtype).itemsize
    if len(data) - offset < nbytes:
        raise DataError(
            f"{source}: truncated payload: expected {nbytes} bytes at offset "
            f"{offset}, got {len(data) - offset}"
        )
    array = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return array.reshape(shape).copy(), offset + nbytes


def vocab_bytes(vocab):
    """Each word as a u32 byte length followed by its UTF-8 bytes."""
    parts = []
    for word in vocab:
        blob = word.encode("utf-8")
        parts += (struct.pack("<I", len(blob)), blob)
    return b"".join(parts)


def read_vocab(data, offset, count, source):
    """count words stored by vocab_bytes at offset; returns (words, end offset)."""
    vocab = []
    for _ in range(count):
        if offset + 4 > len(data):
            raise DataError(f"{source}: truncated vocabulary length at offset {offset}")
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise DataError(
                f"{source}: truncated vocabulary entry: expected {length} bytes "
                f"at offset {offset}, got {len(data) - offset}"
            )
        try:
            vocab.append(data[offset:offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{source}: vocabulary entry at offset {offset} is not UTF-8: "
                f"{exc.reason}"
            ) from exc
        offset += length
    return vocab, offset
