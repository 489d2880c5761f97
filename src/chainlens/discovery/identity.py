"""Node identities, XOR distance, neighbor selection, target precomputation.

A node is identified by 64 raw bytes; its position in the discovery metric
space is the Keccak-256 digest of that identity. Distance between two nodes
is the big-endian integer value of the XOR of their digests.

`rank` is the one XOR ranking: neighbor selection and the simulated
overlay's find_node and find_nodes all sort by it, over digests held as
64-bit lanes, one table at a time or a stack of tables at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..keccak import keccak256, keccak256_batch64

NODE_ID_LEN = 64
HASH_LEN = 32
_LANES = HASH_LEN // 8


@dataclass(frozen=True)
class PeerInfo:
    node_id: bytes
    ip: str
    port: int

    def __post_init__(self) -> None:
        if len(self.node_id) != NODE_ID_LEN:
            raise ValueError(f"node id must be {NODE_ID_LEN} bytes")
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")


@lru_cache(maxsize=1 << 17)
def node_hash(node_id: bytes) -> bytes:
    if len(node_id) != NODE_ID_LEN:
        raise ValueError(f"node id must be {NODE_ID_LEN} bytes")
    return keccak256(node_id)


def digest_lanes(digests: Sequence[bytes]) -> np.ndarray:
    """32-byte digests as an (N, 4) array of big-endian 64-bit lanes."""
    joined = np.frombuffer(b"".join(digests), dtype=">u8")
    return joined.reshape(-1, _LANES).astype(np.uint64)


def ranking_lanes(rows: np.ndarray) -> np.ndarray:
    """A table's digests, rows of `digest_lanes`, as the (w, 1, N) lanes
    `rank` takes.

    w is the fewest leading 64-bit lanes that tell the table's distinct
    digests apart: 1 unless two of them share their top 64 bits. Lanes run
    least significant first, the order np.lexsort takes its keys in.
    """
    keys = [tuple(row) for row in rows.tolist()]
    distinct = len(set(keys))
    width = next(w for w in range(1, _LANES + 1)
                 if len({key[:w] for key in keys}) == distinct)
    return np.ascontiguousarray(rows[:, width - 1::-1].T)[:, None, :]


def rank(lanes: np.ndarray, target_lanes: np.ndarray, k: int) -> np.ndarray:
    """Row t: the positions of the k table entries closest to target t.

    `lanes` is the table's `ranking_lanes`, of shape (w, 1, N), or a stack
    of equal-size tables' with a leading peer axis, (w, P, 1, N), whose
    result is then (P, T, k): row [p, t] ranks table p against target t.
    `target_lanes` holds the targets' digests as `digest_lanes` gives them.
    Positions are sorted stably by XOR distance, so equal distances keep
    the table's order; a table kept in node-id order thus ranks by
    (distance, node id, position in the caller's list).
    """
    wanted = target_lanes[:, len(lanes) - 1::-1].T
    wanted = wanted.reshape(len(lanes), *[1] * (lanes.ndim - 3), -1, 1)
    return np.lexsort(wanted ^ lanes, axis=-1)[..., :k]


def select_neighbors(candidates: Sequence[PeerInfo], target: bytes,
                     k: int) -> list[PeerInfo]:
    """The k candidates closest to the digest `target`, ascending, by
    `rank`: ties in node-id order, then in the caller's."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(candidates, key=attrgetter("node_id"))
    lanes = ranking_lanes(digest_lanes([node_hash(p.node_id)
                                        for p in ordered]))
    return [ordered[i]
            for i in rank(lanes, digest_lanes([target]), k)[0].tolist()]


def hash_prefix(digest: bytes, prefix_bits: int) -> int:
    """The first `prefix_bits` bits of a digest as an integer."""
    if prefix_bits == 0:
        return 0
    if not 0 < prefix_bits <= 32:
        raise ValueError("prefix_bits must be in [0, 32]")
    return int.from_bytes(digest[:8], "big") >> (64 - prefix_bits)


def precompute_targets(prefix_bits: int,
                       rng_seed: int | np.random.SeedSequence | None = None
                       ) -> dict[int, bytes]:
    """One 64-byte identity per hash prefix in [0, 2**prefix_bits).

    Identities are drawn at random and bucketed by the leading bits of
    their digest until every bucket holds one (coupon-collector search).
    Hashing runs through the vectorised batch path; callers can re-verify
    any entry with the scalar node_hash.
    """
    if not 0 <= prefix_bits <= 32:
        raise ValueError("prefix_bits must be in [0, 32]")
    rng = np.random.default_rng(rng_seed)
    if prefix_bits == 0:
        return {0: rng.bytes(NODE_ID_LEN)}
    total = 1 << prefix_bits
    # ~ N ln N draws expected; oversized batches just waste a little hashing
    batch = max(2048, min(total * 4, 1 << 17))
    found: dict[int, bytes] = {}
    shift = np.uint64(64 - prefix_bits)
    while len(found) < total:
        buf = rng.bytes(NODE_ID_LEN * batch)
        lanes = np.frombuffer(buf, dtype="<u8").reshape(batch, 8)
        digests = keccak256_batch64(lanes)
        prefixes = (digests[:, 0].byteswap() >> shift).tolist()
        for i, prefix in enumerate(prefixes):
            if prefix not in found:
                found[prefix] = buf[NODE_ID_LEN * i:NODE_ID_LEN * (i + 1)]
    return found
