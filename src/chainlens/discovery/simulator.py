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

find_node and find_nodes rank tables by `identity.rank`, the one XOR
ranking. find_nodes answers a batch of peers, each over a whole list of
targets, from target digests the caller hashed beforehand, so it makes no
Keccak or blake2b call itself. It draws churn for every peer and target at
once, and ranks the tables of one size together, a bounded chunk of peers
at a time. A peer's answer is settled once every entry of its table has
been seen, since no later target can move an entry already seen; so it
ranks only the unsettled peers, over a block of targets that doubles each
round. `run` answers each crawl batch's finds with one find_nodes call,
and hashes the crawl's targets once, in one Keccak batch.
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
_CHUNK_CELLS = 1 << 17  # bounds a find chunk's peers x targets x entries


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
    that each table indexes by its rows, and every kept owner keyed for
    churn, once; a query then only ranks precomputed digests.
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
        self._lanes = ranking_lanes(digest_lanes(keccak256_batch(list(row))))
        # tables sorted stably by node id: `rank` keeps their order on ties
        self._tables = {node_id: (table, np.array(
            [row[p.node_id] for p in table], dtype=int))
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
        """`DiscoveryTransport.run`: each ping by `ping_pong`, and every find
        of the batch by one `find_nodes` call over all of `targets`, hashed
        in one batch when a list of targets is first seen."""
        if targets != self._targets:
            self._targets = list(targets)
            self._target_lanes = digest_lanes(keccak256_batch(targets))
        finds = iter(self.find_nodes(
            [peer for kind, peer in tasks if kind == "find"],
            self._target_lanes))
        return [self.ping_pong(peer) if kind == "ping" else next(finds)
                for kind, peer in tasks]

    def find_node(self, peer: PeerInfo, target: bytes) -> list[PeerInfo]:
        """The k table entries of `peer` closest to `target`, by `rank`."""
        if peer.node_id not in self._tables:
            raise QueryTimeout(f"peer {peer.ip}:{peer.port} unreachable")
        target_lanes = digest_lanes([node_hash(target)])
        if self._drops(peer, int(target_lanes[0, 0])):
            raise QueryTimeout(f"query to {peer.ip}:{peer.port} dropped")
        peers, rows = self._tables[peer.node_id]
        return [peers[i] for i in rank(self._lanes[:, :, rows], target_lanes,
                                       self._k)[0].tolist()]

    def find_nodes(self, peers: list[PeerInfo], target_lanes: np.ndarray
                   ) -> list[tuple[list[PeerInfo], bool]]:
        """`find_node(peer, t)` for every peer and every target t.

        `target_lanes` holds the targets' Keccak digests, one row each, as
        `digest_lanes` gives them. Returns one answer per peer, in order:
        the distinct table entries that the answered queries return, first
        seen in target order and then in rank order, and whether any query
        failed (the peer has no table or churn dropped it), where find_node
        would have raised. Owners of equal-size tables are answered
        together, in chunks of at most `_CHUNK_CELLS` (peer, target, entry)
        cells.
        """
        answers: list = [None] * len(peers)
        owners: dict[int, list[int]] = {}
        for i, peer in enumerate(peers):
            if peer.node_id in self._tables:
                owners.setdefault(len(self._tables[peer.node_id][0]),
                                  []).append(i)
            else:
                answers[i] = [], len(target_lanes) > 0
        for size, rows in owners.items():
            step = max(1, _CHUNK_CELLS // max(1, size * len(target_lanes)))
            for at in range(0, len(rows), step):
                chunk = rows[at:at + step]
                for i, answer in zip(chunk, self._find_chunk(
                        [peers[i] for i in chunk], target_lanes)):
                    answers[i] = answer
        return answers

    def _find_chunk(self, peers: list[PeerInfo], target_lanes: np.ndarray
                    ) -> list[tuple[list[PeerInfo], bool]]:
        """`find_nodes` for owners of tables of one size.

        Each (peer, entry) cell keeps the lowest place (target, rank) at
        which it is seen. Only the peers with a cell not yet seen are
        ranked, over a block of targets that doubles each round, since a
        crawl's targets run in prefix order and an entry can stay unseen
        until late.
        """
        tables = [self._tables[peer.node_id] for peer in peers]
        n_targets = len(target_lanes)
        kept = np.ones((len(peers), n_targets), dtype=bool)
        if self._threshold > 0:
            # _drops for every peer and target at once: a target's key is
            # its top lane
            keys = np.array([self._keys[peer.node_id] for peer in peers],
                            dtype=np.uint64)
            kept = _splitmix64_array(keys[:, None] ^ target_lanes[:, 0]) \
                >= np.uint64(self._threshold)
        lanes = self._lanes[:, 0, np.array([rows for _, rows in tables])]
        size = lanes.shape[-1]
        width = min(self._k, size)
        unseen = n_targets * width  # above every place
        first = np.full((len(peers), size), unseen)
        cells = first.reshape(-1)
        open_rows = np.arange(len(peers))
        start, block = 0, 4
        while start < n_targets:
            open_rows = open_rows[(first[open_rows] == unseen).any(axis=1)]
            if not open_rows.size:
                break
            stop = min(n_targets, start + block)
            ranked = rank(lanes[:, open_rows, None], target_lanes[start:stop],
                          self._k)
            hits = ranked + (open_rows * size)[:, None, None]
            places = np.broadcast_to(np.arange(start * width, stop * width)
                                     .reshape(-1, width), ranked.shape)
            answered = kept[open_rows, start:stop]
            np.minimum.at(cells, hits[answered].ravel(),
                          places[answered].ravel())
            start, block = stop, 2 * block
        order = np.argsort(first, axis=1).tolist()
        seen = (first < unseen).sum(axis=1).tolist()
        failed = (~kept.all(axis=1)).tolist()
        return [([table[i] for i in row[:n]], fails)
                for (table, _), row, n, fails
                in zip(tables, order, seen, failed)]


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
    # one draw, the same stream as one rng.bytes(NODE_ID_LEN) per peer
    ids = rng.bytes(NODE_ID_LEN * n_peers)
    peers = [PeerInfo(node_id=ids[NODE_ID_LEN * i:NODE_ID_LEN * (i + 1)],
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
