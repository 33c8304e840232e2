"""Checkpoint persistence.

File layout (bit-exact contract):
  line   "ARCMATCH-CKPT v1"
  lines  canonical sorted key=value config
  blank line
  per parameter tensor, in named_params order: an ASCII header line with
  the element count, then that many raw little-endian float32 values
  finally an 8-byte little-endian FNV-1a 64 checksum of the whole
  parameter section (headers and raw values).

Values are stored in 32-bit precision; in-memory compute stays 64-bit, so
a first round-trip may move scores by ~1e-7 relative, after which further
round-trips are bitwise stable.

The checksum is FNV-1a 64 (h = (h ^ byte) * P mod 2**64, one byte at a
time), computed with numpy in blocks of _BLOCK bytes: about 14 ms per MB
against 0.11 s for the byte loop (2-vCPU Xeon VM, numpy 2.4.6). XOR with a
byte only changes h's low byte r, so h ^ b = h + d with d = (r ^ b) - r,
and over a block h_n = h_0 P^n + sum_i d_i P^(n-i+1): one wrapping uint64
multiply-and-sum against a table of P's powers. The low bytes follow
r_i = ((r_(i-1) ^ b_i) * (P mod 256)) mod 256; as P mod 256 is odd, bit k
of r_i is bit k of r_(i-1) XOR a term of the lower bits alone, so each
bit is a prefix XOR, found in eight passes from the lowest bit up.
"""

import numpy as np

from .errors import (CheckpointChecksumError, CheckpointHeaderError,
                     CheckpointShapeError, CheckpointVersionError)
from .models import build_model_from_kv, model_config_kv

MAGIC = "ARCMATCH-CKPT v1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

_BLOCK = 1 << 15
# P^_BLOCK, ..., P^2, P^1 (mod 2**64): a block of m bytes weighs its
# differences by the last m
_POWERS = np.multiply.accumulate(np.full(_BLOCK, _FNV_PRIME, np.uint64))[::-1].copy()
_EVERY_BYTE = 0x0101010101010101


def _prefix_xor(u: np.ndarray) -> None:
    """u (uint8, length a multiple of 8) becomes its prefix XOR: each
    8-byte word is scanned in place, then XORed with the total of the
    words before it."""
    w = u.view("<u8")
    w ^= w << 8
    w ^= w << 16
    w ^= w << 32
    w[1:] ^= np.bitwise_xor.accumulate(w[:-1] >> 56) * _EVERY_BYTE


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64 of data, computed in blocks as the module docstring sets
    out; the same value as the byte-at-a-time loop for every input."""
    buf = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    for start in range(0, len(buf), _BLOCK):
        b = buf[start : start + _BLOCK]
        m = len(b)
        r = np.zeros(m + 1, np.uint8)  # low bytes of h before each byte and after the last
        r[0] = h & 0xFF
        inc = np.empty(-(-m // 8) * 8, np.uint8)
        for k in range(8):  # r[1:] holds bits 0..k-1, so inc's bit k is the step of r's
            np.bitwise_xor(r[:m], b, out=inc[:m])
            np.multiply(inc[:m], _FNV_PRIME & 0xFF, out=inc[:m])
            _prefix_xor(inc)
            np.bitwise_and(inc[:m], 1 << k, out=inc[:m])
            r[1:] |= inc[:m]
        d = (r[:m] ^ b).astype(np.int64)
        d -= r[:m]
        weighted = int((d.view(np.uint64) * _POWERS[_BLOCK - m :]).sum())
        h = (h * int(_POWERS[_BLOCK - m]) + weighted) & _MASK64
    return h


def save_checkpoint(path: str, model) -> None:
    kv = model_config_kv(model)
    blob = bytearray()
    for _, tensor in model.named_params():
        flat = tensor.astype("<f4").ravel()
        blob += f"{flat.size}\n".encode("ascii")
        blob += flat.tobytes()
    with open(path, "wb") as fh:
        fh.write((MAGIC + "\n").encode("utf-8"))
        for key in sorted(kv):
            fh.write(f"{key}={kv[key]}\n".encode("utf-8"))
        fh.write(b"\n")
        fh.write(bytes(blob))
        fh.write(fnv1a64(bytes(blob)).to_bytes(8, "little"))


def _read_line(buf: bytes, pos: int):
    end = buf.find(b"\n", pos)
    if end < 0:
        raise CheckpointShapeError("unexpected end of file inside header")
    try:
        return buf[pos:end].decode("utf-8"), end + 1
    except UnicodeDecodeError as err:
        raise CheckpointHeaderError(
            f"header line at byte {pos} is not UTF-8: {err.reason}") from None


def load_checkpoint(path: str):
    """Rebuild the model stored at path; returns (model, config_kv)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    line, pos = _read_line(buf, 0)
    if line != MAGIC:
        raise CheckpointVersionError(
            f"bad magic {line!r}; this reader handles {MAGIC!r}"
        )
    kv = {}
    while True:
        line, pos = _read_line(buf, pos)
        if line == "":
            break
        key, _, value = line.partition("=")
        kv[key] = value
    if len(buf) < pos + 8:
        raise CheckpointChecksumError("file truncated before checksum")
    blob, stored = buf[pos:-8], buf[-8:]
    if fnv1a64(blob) != int.from_bytes(stored, "little"):
        raise CheckpointChecksumError("parameter blob checksum mismatch")

    model = build_model_from_kv(kv)
    cursor = 0
    for name, tensor in model.named_params():
        end = blob.find(b"\n", cursor)
        if end < 0:
            raise CheckpointShapeError(f"missing length header for {name}")
        try:
            count = int(blob[cursor:end])
        except ValueError:
            raise CheckpointShapeError(f"bad length header for {name}")
        if count != tensor.size:
            raise CheckpointShapeError(
                f"{name}: stored {count} values, config implies {tensor.size}"
            )
        start = end + 1
        stop = start + 4 * count
        if stop > len(blob):
            raise CheckpointShapeError(f"{name}: parameter data truncated")
        vals = np.frombuffer(blob[start:stop], dtype="<f4").astype(np.float64)
        tensor[...] = vals.reshape(tensor.shape)
        cursor = stop
    if cursor != len(blob):
        raise CheckpointShapeError(
            f"{len(blob) - cursor} trailing bytes after the last tensor"
        )
    return model, kv
