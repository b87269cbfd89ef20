"""The binary container shared by all four file formats.

Every file starts with a 4-byte magic, a version byte (1) and a fixed
number of little-endian u32 header fields. Arrays follow row-major and
little-endian (float32 unless a format says otherwise), and a vocabulary
is each word's UTF-8 bytes behind a u32 length. This module is the only
one that writes, parses or checks those pieces; each format (DEM1
embeddings, DCC1 codes, DCB1 codebooks, DCLM checkpoints) only chooses its
magic, its header fields and the order of what follows.

Readers take an open binary file (or io.BytesIO over in-memory data),
read each piece from where the previous one ended, and take a `source`
(the path, or a description for in-memory data) that prefixes every error
message. An array is read straight into its final numpy buffer, so a
reader holds its payload once, not as file bytes plus a copy.
"""

import io
import math
import struct

import numpy as np

from .errors import ConfigError, DataError
from .model import check_scheme

VERSION = 1
FIRST_FIELD = 5  # offset of the first u32 header field, past magic and version

_U32 = struct.Struct("<I")  # a vocabulary entry's byte length


def header(magic, *fields):
    """Magic, version byte and the u32 fields as bytes."""
    return magic + struct.pack(f"<B{len(fields)}I", VERSION, *fields)


def read_header(fh, magic, count, source):
    """Check magic and version at the start of fh; returns the count u32 fields."""
    end = FIRST_FIELD + 4 * count
    data = fh.read(end)
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
    return struct.unpack_from(f"<{count}I", data, FIRST_FIELD)


def check_header(source, m, k, h=1):
    """DataError naming the first header field that breaks the scheme rule.

    Code, codebook and checkpoint headers hold u32 M, K and (codebooks,
    checkpoints) H as their first fields. Each field is checked alone, with
    valid stand-ins for the others.
    """
    for i, fields in enumerate(((m, 2, 1), (1, k, 1), (1, 2, h))):
        try:
            check_scheme(*fields)
        except ConfigError as exc:
            offset = FIRST_FIELD + 4 * i
            raise DataError(f"{source}: header at offset {offset}: {exc}") from exc


def floats(array):
    """The array as row-major little-endian float32; a file writes its buffer.

    No copy is made when the array already has that layout.
    """
    return np.ascontiguousarray(array, dtype="<f4")


def read_array(fh, shape, source, dtype="<f4", keep=None):
    """The array of `shape` stored at fh's position, read into a new array.

    The payload's size is checked against the bytes left in the file before
    anything is allocated, so a header that claims too much costs nothing.
    With keep set only the first `keep` rows are read; fh ends past them all.
    """
    offset = fh.tell()
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    got = min(nbytes, fh.seek(0, io.SEEK_END) - offset)
    fh.seek(offset)
    if got == nbytes:
        rows = shape[0] if keep is None else min(keep, shape[0])
        array = np.empty((rows, *shape[1:]), dtype=dtype)
        got = fh.readinto(array) + nbytes - array.nbytes  # short if the file shrank
        fh.seek(offset + nbytes)
    if got < nbytes:
        raise DataError(
            f"{source}: truncated payload: expected {nbytes} bytes at offset "
            f"{offset}, got {got}"
        )
    return array


def vocab_bytes(vocab):
    """Each word as a u32 byte length followed by its UTF-8 bytes."""
    parts = []
    for word in vocab:
        blob = word.encode("utf-8")
        parts += (_U32.pack(len(blob)), blob)
    return b"".join(parts)


def read_vocab(fh, count, source, keep=None):
    """count words stored by vocab_bytes at fh's position; only the first keep decoded."""
    base = fh.tell()  # error offsets count from the start of the file
    data = fh.read()
    end = len(data)
    vocab = []
    pos = 0
    for _ in range(count):
        if pos + 4 > end:
            raise DataError(
                f"{source}: truncated vocabulary length at offset {base + pos}"
            )
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        if pos + length > end:
            raise DataError(
                f"{source}: truncated vocabulary entry: expected {length} bytes "
                f"at offset {base + pos}, got {end - pos}"
            )
        if keep is None or len(vocab) < keep:
            try:
                vocab.append(data[pos:pos + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"{source}: vocabulary entry at offset {base + pos} is not "
                    f"UTF-8: {exc.reason}"
                ) from exc
        pos += length
    return vocab
