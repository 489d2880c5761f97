"""Node identities, XOR distance, neighbor selection, target precomputation.

A node is identified by 64 raw bytes; its position in the discovery metric
space is the Keccak-256 digest of that identity. Distance between two nodes
is the big-endian integer value of the XOR of their digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..keccak import keccak256, keccak256_batch, keccak256_batch64

NODE_ID_LEN = 64
HASH_LEN = 32


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


# A routing table ready for repeated ranking: the peers, stably sorted by
# node id, and the digest of each as a big-endian integer, in that order.
KeyedTable = tuple[list[int], list[PeerInfo]]


def hash_ints(node_ids: Iterable[bytes]) -> dict[bytes, int]:
    """The digest of each distinct node id as an integer, from one batch."""
    unique = list(dict.fromkeys(node_ids))
    return {node_id: int.from_bytes(digest, "big")
            for node_id, digest in zip(unique, keccak256_batch(unique))}


def key_table(peers: Iterable[PeerInfo],
              hash_of: Mapping[bytes, int]) -> KeyedTable:
    """`peers` pre-keyed for `closest`, with digests looked up in `hash_of`."""
    ordered = sorted(peers, key=attrgetter("node_id"))
    return [hash_of[p.node_id] for p in ordered], ordered


def closest(table: KeyedTable, target_int: int, k: int) -> list[PeerInfo]:
    """The k peers of `table` closest to the digest `target_int`, ascending.

    Sorting positions stably by distance alone keeps the table's node-id
    order among equal distances, so the order is (distance, node id,
    position in the caller's list) and no PeerInfo is ever compared.
    """
    keys, peers = table
    distances = [h ^ target_int for h in keys]
    order = sorted(range(len(peers)), key=distances.__getitem__)
    return [peers[i] for i in order[:k]]


def select_neighbors(candidates: Sequence[PeerInfo], target: bytes,
                     k: int) -> list[PeerInfo]:
    """The k candidates closest to `target`, ascending, ties by node id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hash_of = {p.node_id: int.from_bytes(node_hash(p.node_id), "big")
               for p in candidates}
    return closest(key_table(candidates, hash_of),
                   int.from_bytes(target, "big"), k)


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
