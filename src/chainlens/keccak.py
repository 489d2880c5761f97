"""Keccak-256 (original padding, as used by the Ethereum protocol family).

This is the pre-standardisation Keccak with multi-rate padding 0x01..0x80,
NOT the FIPS-202 SHA3-256 from hashlib (which pads with 0x06 and produces
different digests). Three entry points share one permutation:

  keccak256(data)              -- arbitrary length, absorbed block by block
  keccak256_batch(messages)    -- any messages of at most 135 bytes (one
                                  absorb block each)
  keccak256_batch64(lanes)     -- 64-byte messages given as (N, 8) uint64
                                  lanes

The permutation runs numpy over a lane-major (25, n) state, one column per
message, in whole-state operations written into buffers allocated once per
call. The batch entry points feed it blocks of at most 512 messages, so its
buffers (about half a megabyte) stay in cache. Contract-address derivation
hashes every creation's RLP(sender, nonce), target-ID precomputation
thousands of 64-byte candidates and the simulated overlay every node id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_RATE = 136  # bytes absorbed per permutation at 256-bit output
_BLOCK = 512  # messages permuted at once; their ~0.5 MB of buffers stay in cache

_ROUND_CONSTANTS = np.array([
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
], dtype=np.uint64)

# rotation offsets indexed [x][y]; the state holds lane (x, y) at row x + 5*y
_ROTATION_TABLE = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
]
_ROTL = np.array([[_ROTATION_TABLE[i % 5][i // 5]] for i in range(25)],
                 dtype=np.uint64)
_ROTR = (np.uint64(64) - _ROTL) % np.uint64(64)
# pi moves lane (x, y) to (y, 2x + 3y mod 5). _PI[7*y + x] is the lane that
# lands at (x mod 5, y): each row of the pi output repeats its first two
# lanes, so chi reads lanes x + 1 and x + 2 as plain slices.
_SOURCE = {y + 5 * ((2 * x + 3 * y) % 5): x + 5 * y
           for x in range(5) for y in range(5)}
_PI = np.array([_SOURCE[x % 5 + 5 * y] for y in range(5) for x in range(7)],
               dtype=np.intp)
del _ROTATION_TABLE, _SOURCE
_ONE, _SIXTY_THREE = np.uint64(1), np.uint64(63)


def _permute(state: np.ndarray) -> None:
    """Apply Keccak-f[1600] in place to every column of a (25, n) uint64
    state."""
    n = state.shape[1]
    planes = state.reshape(5, 5, n)  # [y, x]
    parity = np.empty((7, n), dtype=np.uint64)  # row x + 1: column x's parity
    rotated = np.empty((25, n), dtype=np.uint64)
    shifted = np.empty((25, n), dtype=np.uint64)
    b = np.empty((5, 7, n), dtype=np.uint64)
    d, spare = rotated[:5], shifted[:5]
    chi = shifted.reshape(5, 5, n)
    for rc in _ROUND_CONSTANTS:
        # theta: d[x] = parity[x - 1] ^ rotl(parity[x + 1], 1)
        np.bitwise_xor.reduce(planes, axis=0, out=parity[1:6])
        parity[0], parity[6] = parity[5], parity[1]
        np.left_shift(parity[2:], _ONE, out=d)
        np.right_shift(parity[2:], _SIXTY_THREE, out=spare)
        d |= spare
        d ^= parity[:5]
        planes ^= d
        # rho, then pi into the padded layout
        np.left_shift(state, _ROTL, out=rotated)
        np.right_shift(state, _ROTR, out=shifted)
        rotated |= shifted
        np.take(rotated, _PI, axis=0, out=b.reshape(35, n), mode="clip")
        # chi, then iota
        np.invert(b[:, 1:6], out=chi)
        chi &= b[:, 2:]
        np.bitwise_xor(b[:, :5], chi, out=planes)
        state[0] ^= rc


def _digests(lanes: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """(N, 4) digest lanes of N one-block messages, the rows of `lanes`.

    Each message's lanes are XORed into the front of a state that starts
    as the (25, 1) column `pad`, and the states are permuted _BLOCK at a
    time.
    """
    out = np.empty((len(lanes), 4), dtype=np.uint64)
    for start in range(0, len(lanes), _BLOCK):
        block = lanes[start:start + _BLOCK].T
        state = np.repeat(pad, block.shape[1], axis=1)
        state[:len(block)] ^= block
        _permute(state)
        out[start:start + block.shape[1]] = state[:4].T
    return out


def keccak256(data: bytes) -> bytes:
    """256-bit Keccak digest of `data`."""
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    if pad_len == 1:
        padded += b"\x81"
    else:
        padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"
    state = np.zeros((25, 1), dtype=np.uint64)
    for block in np.frombuffer(padded, dtype="<u8").reshape(-1, _RATE // 8):
        state[:_RATE // 8, 0] ^= block
        _permute(state)
    return state[:4, 0].astype("<u8").tobytes()


_NO_PAD = np.zeros((25, 1), dtype=np.uint64)
# a 64-byte message's padding: 0x01 at byte 64, 0x80 at byte 135
_PAD64 = _NO_PAD.copy()
_PAD64[8], _PAD64[16] = 0x01, 0x80 << 56


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
    lanes = np.frombuffer(block, dtype="<u8").reshape(n, _RATE // 8)
    digests = _digests(lanes, _NO_PAD).astype("<u8").tobytes()
    return [digests[32 * i:32 * (i + 1)] for i in range(n)]


def keccak256_batch64(lanes: np.ndarray) -> np.ndarray:
    """Hash a batch of 64-byte messages given as (N, 8) little-endian uint64 lanes.

    Returns the (N, 4) digest lanes; `digest_lanes[i].astype('<u8').tobytes()`
    reconstructs the i-th 32-byte digest. Agreement with the oracle is
    enforced by tests.
    """
    if lanes.ndim != 2 or lanes.shape[1] != 8 or lanes.dtype != np.uint64:
        raise ValueError("expected a (N, 8) uint64 array of message lanes")
    return _digests(lanes, _PAD64)
