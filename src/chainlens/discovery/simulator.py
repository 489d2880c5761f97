"""Deterministic simulated discovery overlay for crawler testing.

Every peer holds a fixed routing table; find_node answers with the k table
entries closest to the queried target. Only a reachable peer that owns a
table answers. Churn makes its individual queries fail as a pure function
of (operation, peer, target) under the overlay seed, so identical runs see
identical failures: every answering peer has one 64-bit key, a keyed
blake2b digest under the overlay seed, and every target the top 64 bits of
its Keccak digest. A find query is dropped when splitmix64(peer key ^
target key) falls below churn * 2**64, a ping when splitmix64(peer key ^
_PING) does.

find_node and find_nodes rank a table by `identity.rank`, the one XOR
ranking. find_nodes answers a whole list of targets for one peer: it draws
churn for every target and ranks the peer's table against every answered
one in one vectorised pass, over target digests the caller hashed
beforehand, so it makes no Keccak or blake2b call itself. `run` answers a
crawl's batches with them, and hashes the crawl's targets once, in one
Keccak batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..errors import QueryTimeout
from ..keccak import keccak256_batch
from .identity import (NODE_ID_LEN, PeerInfo, digest_lanes, node_hash, rank,
                       ranking_lanes)

_MASK64 = (1 << 64) - 1
_PING = 0x70696E67_00000000  # b"ping": the target key a ping draws against


def _splitmix64(z: int) -> int:
    """The splitmix64 finaliser of a 64-bit integer."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """`_splitmix64` of every element of a uint64 array (products wrap)."""
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


@dataclass
class GroundTruth:
    peers: list[PeerInfo]
    reachable_ids: frozenset[bytes]

    @property
    def all_ids(self) -> frozenset[bytes]:
        return frozenset(p.node_id for p in self.peers)


class SimTransport:
    """In-memory DiscoveryTransport over a generated topology.

    Only a reachable peer that owns a routing table answers; the tables of
    unreachable owners are dropped when the transport is built. Every id in
    a kept table is hashed, in one batch, into one `ranking_lanes` array
    that each table slices, and every kept owner keyed for churn, once; a
    query then only ranks precomputed digests.
    """

    def __init__(self, tables: dict[bytes, list[PeerInfo]],
                 unreachable: frozenset[bytes], churn_failure_rate: float,
                 neighbor_k: int, seed_tag: bytes):
        if neighbor_k < 1:
            raise ValueError("neighbor_k must be >= 1")
        tables = {node_id: sorted(table, key=attrgetter("node_id"))
                  for node_id, table in tables.items()
                  if node_id not in unreachable}
        row = {node_id: i for i, node_id in enumerate(dict.fromkeys(
            p.node_id for table in tables.values() for p in table))}
        # one width that parts every distinct digest parts each table's;
        # its extra lanes only break ties that distinct digests never have
        top = ranking_lanes(digest_lanes(keccak256_batch(list(row))))
        # tables sorted stably by node id: `rank` keeps their order on ties
        self._tables = {node_id: (table, top[:, :, [row[p.node_id]
                                                    for p in table]])
                        for node_id, table in tables.items()}
        self._k = neighbor_k
        # a draw below this drops the query
        self._threshold = int(churn_failure_rate * (1 << 64))
        self._keys = {node_id: int.from_bytes(hashlib.blake2b(
            node_id, key=seed_tag, digest_size=8).digest(), "big")
            for node_id in tables}
        self._targets = self._target_lanes = None  # as `run` last saw them

    def _drops(self, peer: PeerInfo, target_key: int) -> bool:
        return (self._threshold > 0 and _splitmix64(
            self._keys[peer.node_id] ^ target_key) < self._threshold)

    def ping_pong(self, peer: PeerInfo) -> bool:
        return peer.node_id in self._tables and not self._drops(peer, _PING)

    def run(self, tasks: list[tuple[str, PeerInfo]],
            targets: list[bytes]) -> list:
        """`DiscoveryTransport.run`: each task in turn, a ping by
        `ping_pong` and a find by `find_nodes` over all of `targets`, hashed
        in one batch when a list of targets is first seen."""
        if targets != self._targets:
            self._targets = list(targets)
            self._target_lanes = digest_lanes(keccak256_batch(targets))
        return [self.ping_pong(peer) if kind == "ping"
                else self.find_nodes(peer, self._target_lanes)
                for kind, peer in tasks]

    def find_node(self, peer: PeerInfo, target: bytes) -> list[PeerInfo]:
        """The k table entries of `peer` closest to `target`, by `rank`."""
        if peer.node_id not in self._tables:
            raise QueryTimeout(f"peer {peer.ip}:{peer.port} unreachable")
        target_lanes = digest_lanes([node_hash(target)])
        if self._drops(peer, int(target_lanes[0, 0])):
            raise QueryTimeout(f"query to {peer.ip}:{peer.port} dropped")
        peers, lanes = self._tables[peer.node_id]
        return [peers[i]
                for i in rank(lanes, target_lanes, self._k)[0].tolist()]

    def find_nodes(self, peer: PeerInfo,
                   target_lanes: np.ndarray) -> tuple[list[PeerInfo], bool]:
        """`find_node(peer, t)` for every target t, answered in one pass.

        `target_lanes` holds the targets' Keccak digests, one row each, as
        `digest_lanes` gives them, and `rank` ranks the table against all
        of them at once. Returns the distinct table entries that the
        answered queries return, first seen in target order and then in
        rank order, and whether any query failed (the peer has no table or
        churn dropped it), where find_node would have raised.
        """
        if peer.node_id not in self._tables:
            return [], len(target_lanes) > 0
        answered = target_lanes
        failed = False
        if self._threshold > 0:
            # _drops for every target at once: its key is the top lane
            draws = _splitmix64_array(
                target_lanes[:, 0] ^ np.uint64(self._keys[peer.node_id]))
            kept = draws >= np.uint64(self._threshold)
            failed = not kept.all()
            if failed:
                answered = target_lanes[kept]
        peers, lanes = self._tables[peer.node_id]
        ranked = rank(lanes, answered, self._k).ravel()
        # each position once, in the order of its first place in `ranked`
        first = np.full(len(peers), ranked.size)
        np.minimum.at(first, ranked, np.arange(ranked.size))
        seen = np.flatnonzero(first < ranked.size)
        seen = seen[np.argsort(first[seen])].tolist()
        return [peers[i] for i in seen], failed


def build_sim_overlay(n_peers: int, degree: int,
                      unreachable_fraction: float = 0.0,
                      churn_failure_rate: float = 0.0,
                      rng_seed: int | None = None,
                      neighbor_k: int = 16) -> tuple[SimTransport, GroundTruth]:
    if n_peers < 1:
        raise ValueError("n_peers must be >= 1")
    if degree > n_peers - 1:
        raise ValueError("degree exceeds peer count")
    if not 0.0 <= unreachable_fraction <= 1.0:
        raise ValueError("unreachable_fraction must be in [0, 1]")
    if not 0.0 <= churn_failure_rate < 1.0:
        raise ValueError("churn_failure_rate must be in [0, 1)")
    rng = np.random.default_rng(rng_seed)
    peers = [PeerInfo(node_id=rng.bytes(NODE_ID_LEN),
                      ip=f"198.51.{i >> 8}.{i & 0xFF}",
                      port=30000 + (i % 20000) + 1)
             for i in range(n_peers)]
    tables: dict[bytes, list[PeerInfo]] = {}
    for i, peer in enumerate(peers):
        if degree == 0:
            tables[peer.node_id] = []
            continue
        choices = rng.choice(n_peers - 1, size=degree, replace=False)
        # indices skip the peer itself
        tables[peer.node_id] = [peers[j if j < i else j + 1] for j in choices]
    n_unreachable = int(round(n_peers * unreachable_fraction))
    unreachable_idx = rng.choice(n_peers, size=n_unreachable, replace=False)
    unreachable = frozenset(peers[int(j)].node_id for j in unreachable_idx)
    seed_tag = hashlib.blake2b(repr(rng_seed).encode(),
                               digest_size=16).digest()
    transport = SimTransport(tables, unreachable, churn_failure_rate,
                             neighbor_k, seed_tag)
    truth = GroundTruth(peers=peers,
                        reachable_ids=frozenset(p.node_id for p in peers)
                        - unreachable)
    return transport, truth
