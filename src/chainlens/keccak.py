"""Keccak-256 (original padding, as used by the Ethereum protocol family).

This is the pre-standardisation Keccak with multi-rate padding 0x01..0x80,
NOT the FIPS-202 SHA3-256 from hashlib (which pads with 0x06 and produces
different digests). Three entry points:

  keccak256(data)              -- scalar, arbitrary length
  keccak256_batch(messages)    -- numpy-vectorised, any messages of at most
                                  135 bytes (one absorb block each)
  keccak256_batch64(lanes)     -- numpy-vectorised, 64-byte messages given
                                  as (N, 8) uint64 lanes

The batch variants share one vectorised permutation. They exist because
contract-address derivation hashes every creation's RLP(sender, nonce),
target-ID precomputation hashes thousands of 64-byte candidates and the
simulated overlay hashes every node id; the scalar path would dominate
runtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_RATE = 136  # bytes absorbed per permutation at 256-bit output

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# rotation offsets indexed x + 5*y
_ROTATION_TABLE = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
]
_ROTATIONS = [0] * 25
for _x in range(5):
    for _y in range(5):
        _ROTATIONS[_x + 5 * _y] = _ROTATION_TABLE[_x][_y]
del _ROTATION_TABLE, _x, _y


def _keccak_f(state: list[int]) -> None:
    rot = _ROTATIONS
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
             for x in range(5)]
        for x in range(5):
            cx1 = c[(x + 1) % 5]
            d = c[(x - 1) % 5] ^ (((cx1 << 1) | (cx1 >> 63)) & _MASK)
            for y in range(0, 25, 5):
                state[x + y] ^= d
        # rho + pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                n = rot[x + 5 * y]
                v = state[x + 5 * y]
                b[y + 5 * ((2 * x + 3 * y) % 5)] = \
                    ((v << n) | (v >> (64 - n))) & _MASK if n else v
        # chi
        for y in range(0, 25, 5):
            t = b[y:y + 5]
            for x in range(5):
                state[x + y] = t[x] ^ ((~t[(x + 1) % 5]) & t[(x + 2) % 5])
        # iota
        state[0] ^= rc


def keccak256(data: bytes) -> bytes:
    """256-bit Keccak digest of `data`."""
    state = [0] * 25
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    if pad_len == 1:
        padded += b"\x81"
    else:
        padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"
    for off in range(0, len(padded), _RATE):
        block = padded[off:off + _RATE]
        for i in range(_RATE // 8):
            state[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        _keccak_f(state)
    return b"".join(state[i].to_bytes(8, "little") for i in range(4))


_RC_VEC = np.array(_ROUND_CONSTANTS, dtype=np.uint64)


def _rotl_vec(v: np.ndarray, n: int) -> np.ndarray:
    if n == 0:
        return v.copy()  # copy: chi writes back into state while b is live
    return (v << np.uint64(n)) | (v >> np.uint64(64 - n))


def _permute(state: np.ndarray) -> None:
    """Apply Keccak-f[1600] in place to every row of an (N, 25) uint64 state."""
    rot = _ROTATIONS
    for rc in _RC_VEC:
        c = [state[:, x] ^ state[:, x + 5] ^ state[:, x + 10]
             ^ state[:, x + 15] ^ state[:, x + 20] for x in range(5)]
        for x in range(5):
            d = c[(x - 1) % 5] ^ _rotl_vec(c[(x + 1) % 5], 1)
            for y in range(0, 25, 5):
                state[:, x + y] ^= d
        b: list[np.ndarray] = [None] * 25  # type: ignore[list-item]
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl_vec(state[:, x + 5 * y],
                                                             rot[x + 5 * y])
        for y in range(0, 25, 5):
            t = b[y:y + 5]
            for x in range(5):
                state[:, x + y] = t[x] ^ (~t[(x + 1) % 5] & t[(x + 2) % 5])
        state[:, 0] ^= rc


def keccak256_batch(messages: Sequence[bytes]) -> list[bytes]:
    """32-byte digests of `messages`, in order, from one vectorised pass.

    Every message must fit one absorb block with its padding, so at most
    135 bytes; a longer one raises ValueError (use `keccak256`).
    """
    n = len(messages)
    block = bytearray(n * _RATE)
    for i, message in enumerate(messages):
        if len(message) >= _RATE:
            raise ValueError(f"message {i} is {len(message)} bytes; the batch "
                             f"path takes at most {_RATE - 1}")
        start = i * _RATE
        block[start:start + len(message)] = message
        block[start + len(message)] ^= 0x01
        block[start + _RATE - 1] ^= 0x80
    state = np.zeros((n, 25), dtype=np.uint64)
    state[:, :_RATE // 8] = np.frombuffer(block, dtype="<u8").reshape(n, _RATE // 8)
    _permute(state)
    digests = state[:, :4].astype("<u8").tobytes()
    return [digests[32 * i:32 * (i + 1)] for i in range(n)]


def keccak256_batch64(lanes: np.ndarray) -> np.ndarray:
    """Hash a batch of 64-byte messages given as (N, 8) little-endian uint64 lanes.

    Returns the (N, 4) digest lanes; `digest_lanes[i].astype('<u8').tobytes()`
    reconstructs the i-th 32-byte digest. Agreement with the scalar path is
    enforced by tests.
    """
    if lanes.ndim != 2 or lanes.shape[1] != 8 or lanes.dtype != np.uint64:
        raise ValueError("expected a (N, 8) uint64 array of message lanes")
    n = lanes.shape[0]
    state = np.zeros((n, 25), dtype=np.uint64)
    state[:, :8] = lanes
    state[:, 8] ^= np.uint64(0x01)                     # pad byte at offset 64
    state[:, 16] ^= np.uint64(0x80) << np.uint64(56)   # final pad byte at offset 135
    _permute(state)
    return state[:, :4].copy()
