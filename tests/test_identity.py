"""Identity hashing, neighbor selection, prefix targets."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.discovery.identity import (NODE_ID_LEN, PeerInfo,
                                          digest_lanes, hash_prefix,
                                          node_hash, precompute_targets, rank,
                                          ranking_lanes, select_neighbors)
from chainlens.keccak import keccak256, keccak256_batch64

import oracles


def _random_peers(rng: random.Random, count: int) -> list[PeerInfo]:
    return [PeerInfo(node_id=rng.randbytes(NODE_ID_LEN),
                     ip=f"198.51.100.{i % 255}", port=30303)
            for i in range(count)]


def test_peer_info_validation():
    with pytest.raises(ValueError):
        PeerInfo(node_id=b"short", ip="1.2.3.4", port=30303)
    with pytest.raises(ValueError):
        PeerInfo(node_id=b"\x00" * NODE_ID_LEN, ip="1.2.3.4", port=0)


def test_node_hash_is_keccak_of_identity():
    node_id = bytes(range(64))
    assert node_hash(node_id) == keccak256(node_id)
    assert node_hash(node_id) == oracles.keccak256_oracle(node_id)


def test_select_neighbors_matches_bruteforce_small():
    rng = random.Random(7)
    peers = _random_peers(rng, 40)
    target_digest = keccak256(rng.randbytes(64))
    got = select_neighbors(peers, target_digest, 16)
    expected = oracles.brute_force_neighbors(peers, target_digest, 16)
    assert got == expected


def test_select_neighbors_tie_order_by_node_id():
    # two distinct peer records around one node id: impossible, so instead
    # check duplicated node ids rank adjacently and deterministically
    rng = random.Random(9)
    node_id = rng.randbytes(NODE_ID_LEN)
    twin_a = PeerInfo(node_id=node_id, ip="198.51.100.1", port=1)
    twin_b = PeerInfo(node_id=node_id, ip="198.51.100.2", port=2)
    target_digest = keccak256(rng.randbytes(64))
    first = select_neighbors([twin_a, twin_b], target_digest, 2)
    second = select_neighbors([twin_b, twin_a], target_digest, 2)
    assert {first[0].node_id, first[1].node_id} == {node_id}
    assert [p.node_id for p in first] == [p.node_id for p in second]


def _ranked(peers, target_digest, k, digests):
    """`peers` ranked by `rank`, as a table in node-id order."""
    ordered = sorted(peers, key=lambda p: p.node_id)
    lanes = ranking_lanes(digest_lanes([digests[p.node_id] for p in ordered]))
    positions = rank(lanes, digest_lanes([target_digest]), k)
    assert positions.shape == (1, min(k, len(peers)))
    return [ordered[i] for i in positions[0].tolist()]


def test_rank_matches_bruteforce_with_twins():
    # the lane ranking against the keccak-oracle (distance, node id) stable
    # sort: empty tables, twins (one id at two endpoints), k past the end,
    # and digests that agree on their top 64 or 192 bits
    rng = random.Random(11)
    for nbytes in (0, 8, 24):
        for _ in range(40):
            peers = _random_peers(rng, rng.randint(0, 24))
            for _ in range(rng.randint(0, 3) if peers else 0):
                twin = rng.choice(peers)
                peers.insert(rng.randrange(len(peers) + 1),
                             PeerInfo(twin.node_id, "203.0.113.7",
                                      rng.randint(1, 65535)))
            digests = {p.node_id: oracles.shared_top(
                oracles.keccak256_oracle(p.node_id), nbytes) for p in peers}
            target_digest = rng.randbytes(32)
            ranked = oracles.brute_force_neighbors(
                peers, target_digest, len(peers), digests.__getitem__)
            for k in {1, max(1, len(peers) // 2), max(1, len(peers)),
                      len(peers) + 5}:
                assert _ranked(peers, target_digest, k, digests) == \
                    ranked[:k]
                if not nbytes:
                    assert select_neighbors(peers, target_digest, k) == \
                        ranked[:k]


def test_ranking_lanes_keep_the_fewest_lanes_that_part_digests():
    rng = random.Random(12)
    digests = [rng.randbytes(32) for _ in range(6)]
    assert ranking_lanes(digest_lanes(digests)).shape == (1, 1, 6)
    # twins do not widen the lanes; a shared top lane does
    assert ranking_lanes(digest_lanes(digests + digests[:2])).shape == \
        (1, 1, 8)
    shared = digests + [digests[0][:8] + rng.randbytes(24)]
    assert ranking_lanes(digest_lanes(shared)).shape == (2, 1, 7)
    shared.append(digests[1][:24] + rng.randbytes(8))
    assert ranking_lanes(digest_lanes(shared)).shape == (4, 1, 8)
    assert ranking_lanes(digest_lanes([])).shape == (1, 1, 0)


def test_select_neighbors_k_validation():
    with pytest.raises(ValueError):
        select_neighbors([], keccak256(b""), 0)


def test_hash_prefix():
    digest = bytes.fromhex(
        "ad3228b676f7d3cd4284a5443f17f1962b36e491b30a40b2405849e597ba5fb5")
    assert hash_prefix(digest, 8) == 0xAD
    assert hash_prefix(digest, 13) == int("1010110100110", 2)
    assert hash_prefix(digest, 0) == 0
    with pytest.raises(ValueError):
        hash_prefix(digest, 33)


def test_precompute_targets_small():
    targets = precompute_targets(6, rng_seed=11)
    assert set(targets) == set(range(64))
    for prefix, node_id in targets.items():
        assert len(node_id) == NODE_ID_LEN
        assert hash_prefix(node_hash(node_id), 6) == prefix
        # independent verification through the oracle hash
        assert hash_prefix(oracles.keccak256_oracle(node_id), 6) == prefix


def test_precompute_targets_deterministic_per_seed():
    assert precompute_targets(4, rng_seed=3) == precompute_targets(4, rng_seed=3)


@settings(max_examples=60)
@given(seed=st.integers(0, (1 << 64) - 1), prefix_bits=st.integers(0, 10),
       spawned=st.booleans())
def test_block_draw_matches_the_batch_draw(seed, prefix_bits, spawned):
    # successive rng.bytes calls continue one stream, so candidates hashed
    # 512 at a time fill the buckets as batches of 2,048 or more did
    rng_seed = np.random.SeedSequence(seed).spawn(1)[0] if spawned else seed
    node_hash.cache_clear()
    targets = precompute_targets(prefix_bits, rng_seed)
    assert targets == oracles.precompute_targets_reference(
        prefix_bits, rng_seed, keccak256_batch64)
    # every chosen target's digest is memoised, and is its Keccak digest
    if prefix_bits:
        assert node_hash.cache_info().currsize == len(targets)
        for node_id in list(targets.values())[::max(1, len(targets) // 16)]:
            assert node_hash(node_id) == keccak256(node_id)
    node_hash.cache_clear()
