import hashlib
import struct

import pytest

from eviq.container import ContainerError, read_container, write_container

MAGIC = b"TESTMAGC"


@pytest.mark.parametrize("payload", [b"", b"abc", bytes(range(256)) * 3],
                         ids=["empty", "abc", "every-byte-value"])
def test_round_trip_and_layout(tmp_path, payload):
    p = tmp_path / "c.bin"
    write_container(p, MAGIC, 7, payload)
    assert read_container(p, MAGIC, 7) == payload
    # magic, version, payload length, payload, sha256 of everything before it
    raw = p.read_bytes()
    assert raw[:8] == MAGIC and struct.unpack_from("<IQ", raw, 8) == (7, len(payload))
    assert raw[20:-32] == payload and raw[-32:] == hashlib.sha256(raw[:-32]).digest()


def test_write_rejects_a_magic_that_is_not_8_bytes(tmp_path):
    with pytest.raises(ContainerError):
        write_container(tmp_path / "c.bin", b"SHORT", 7, b"")
    assert not any(tmp_path.iterdir())


def test_every_flipped_byte_is_rejected(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, MAGIC, 7, b"payload")
    raw = p.read_bytes()
    for i in range(len(raw)):
        p.write_bytes(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1:])
        with pytest.raises(ContainerError):
            read_container(p, MAGIC, 7)


def _head(version=7, payload_len=3):
    return MAGIC + struct.pack("<IQ", version, payload_len)


@pytest.mark.parametrize("body, why", [
    (MAGIC + struct.pack("<I", 7), "truncated container"),
    (b"OTHERMAG" + _head()[8:] + b"abc", "bad magic"),
    (_head(version=6) + b"abc", "format version 6, this build reads 7"),
    (_head() + b"abc" + b"tail", "file is 59 bytes, its 3-byte payload needs 55"),
    (_head(payload_len=10) + b"abc", "file is 55 bytes, its 10-byte payload needs 62"),
    # the earlier layout, a JSON header before the payload length: a header
    # that is not JSON, and a header length running past the file
    (_head(payload_len=2) + b"{x" + struct.pack("<Q", 3) + b"abc", "its 2-byte payload"),
    (_head(payload_len=2 ** 40) + b"{}" + struct.pack("<Q", 3) + b"abc",
     f"its {2 ** 40}-byte payload"),
], ids=["shorter-than-fixed-fields", "magic", "version", "trailing-bytes", "payload-overruns",
        "header-not-json", "header-overruns"])
def test_read_names_a_malformed_layout_under_a_correct_digest(tmp_path, body, why):
    p = tmp_path / "c.bin"
    p.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ContainerError) as e:
        read_container(p, MAGIC, 7)
    assert str(p) in str(e.value) and why in str(e.value)
