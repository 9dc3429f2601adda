"""On-disk container: magic, version, payload length, payload, sha256.

The retrieval index is stored in it.  The magic is 8 bytes, the version a
little-endian uint32 and the payload length a little-endian uint64; the
trailing sha256 covers every preceding byte, so a single flipped bit fails
loading.  A file must be exactly as long as its payload length says, so a
torn file or one with bytes after the digest fails too; every such failure
is a ContainerError naming the file.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

_HEAD = struct.Struct("<8sIQ")  # magic, version, payload length
_DIGEST = 32


class ContainerError(ValueError):
    pass


def write_container(path, magic: bytes, version: int, payload: bytes) -> None:
    if len(magic) != 8:
        raise ContainerError("magic must be exactly 8 bytes")
    blob = _HEAD.pack(magic, version, len(payload)) + payload
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.write(hashlib.sha256(blob).digest())
    tmp.replace(path)


def read_container(path, magic: bytes, version: int) -> bytes:
    """The payload of a container written with this magic and version."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEAD.size + _DIGEST:
        raise ContainerError(f"{path}: truncated container")
    got_magic, got_version, payload_len = _HEAD.unpack_from(raw)
    if got_magic != magic:
        raise ContainerError(f"{path}: bad magic {got_magic!r}, want {magic!r}")
    if got_version != version:
        raise ContainerError(
            f"{path}: format version {got_version}, this build reads {version}")
    want = _HEAD.size + payload_len + _DIGEST
    if len(raw) != want:
        raise ContainerError(f"{path}: file is {len(raw)} bytes, its "
                             f"{payload_len}-byte payload needs {want}")
    body, digest = raw[:-_DIGEST], raw[-_DIGEST:]
    if hashlib.sha256(body).digest() != digest:
        raise ContainerError(f"{path}: checksum mismatch, file is corrupt")
    return body[_HEAD.size:]
