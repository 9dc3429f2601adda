"""On-disk container: magic, version, JSON header, payload, checksum.

The retrieval index is stored in it.  All integers are little-endian; the
trailing sha256 covers every preceding byte, so a single flipped bit fails
loading.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path


class ContainerError(ValueError):
    pass


def write_container(path, magic: bytes, version: int, header: dict,
                    payload: bytes) -> None:
    if len(magic) != 8:
        raise ContainerError("magic must be exactly 8 bytes")
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":"),
                     ensure_ascii=True).encode("utf-8")
    blob = (magic + struct.pack("<I", version)
            + struct.pack("<Q", len(hdr)) + hdr
            + struct.pack("<Q", len(payload)) + payload)
    digest = hashlib.sha256(blob).digest()
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.write(digest)
    tmp.replace(path)


def read_container(path, magic: bytes, version: int) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 + 4 + 8 + 8 + 32:
        raise ContainerError(f"{path}: truncated container")
    if raw[:8] != magic:
        raise ContainerError(f"{path}: bad magic {raw[:8]!r}, want {magic!r}")
    got_version = struct.unpack_from("<I", raw, 8)[0]
    if got_version != version:
        raise ContainerError(
            f"{path}: format version {got_version}, this build reads {version}")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ContainerError(f"{path}: checksum mismatch, file is corrupt")
    off = 12
    hdr_len = struct.unpack_from("<Q", raw, off)[0]
    off += 8
    header = json.loads(raw[off:off + hdr_len].decode("utf-8"))
    off += hdr_len
    payload_len = struct.unpack_from("<Q", raw, off)[0]
    off += 8
    payload = body[off:off + payload_len]
    if len(payload) != payload_len:
        raise ContainerError(f"{path}: payload shorter than declared")
    return header, payload
