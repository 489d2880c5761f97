"""Keccak-256 against the independent oracle and published vectors."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.keccak import keccak256, keccak256_batch, keccak256_batch64

import oracles

# legacy (pre-FIPS) padding vectors
KNOWN = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
}

# frozen from the oracle: digest of 64 zero bytes, the all-zero node id
ZERO_NODE_DIGEST = "ad3228b676f7d3cd4284a5443f17f1962b36e491b30a40b2405849e597ba5fb5"


def test_empty_and_abc_vectors():
    assert keccak256(b"").hex() == KNOWN[b""]
    assert keccak256(b"abc").hex() == KNOWN[b"abc"]


def test_selector_vector():
    assert keccak256(b"kill()")[:4].hex() == "41c0e1b5"


def test_zero_node_id_digest_frozen():
    assert keccak256(b"\x00" * 64).hex() == ZERO_NODE_DIGEST
    assert oracles.keccak256_oracle(b"\x00" * 64).hex() == ZERO_NODE_DIGEST


@pytest.mark.parametrize("size", [0, 1, 7, 8, 63, 64, 135, 136, 137, 271,
                                  272, 1000])
def test_matches_oracle_at_padding_boundaries(size):
    data = bytes(range(256)) * (size // 256 + 1)
    data = data[:size]
    assert keccak256(data) == oracles.keccak256_oracle(data)


@given(st.binary(max_size=400))
@settings(max_examples=200)
def test_matches_oracle_random(data):
    assert keccak256(data) == oracles.keccak256_oracle(data)


def test_batch_matches_scalar():
    rng = np.random.default_rng(42)
    messages = rng.bytes(64 * 257)
    lanes = np.frombuffer(messages, dtype="<u8").reshape(257, 8)
    digests = keccak256_batch64(lanes)
    assert digests.shape == (257, 4)
    for i in range(257):
        message = messages[64 * i:64 * (i + 1)]
        assert digests[i].tobytes() == keccak256(message) == \
            oracles.keccak256_oracle(message)


def test_batch_single_row():
    lanes = np.zeros((1, 8), dtype="<u8")
    assert keccak256_batch64(lanes)[0].tobytes().hex() == ZERO_NODE_DIGEST


def test_batch_every_single_block_length():
    # 135 bytes leave room for one pad byte only, which becomes 0x81
    messages = [bytes(range(256))[:size] for size in range(136)]
    digests = keccak256_batch(messages)
    assert len(digests) == 136
    for message, digest in zip(messages, digests):
        assert digest == keccak256(message) == oracles.keccak256_oracle(message)
    assert keccak256_batch([messages[135]]) == [digests[135]]


@given(st.lists(st.binary(max_size=135), max_size=24))
@settings(max_examples=60)
def test_batch_mixed_lengths_match_scalar_and_oracle(messages):
    assert keccak256_batch(messages) == [keccak256(m) for m in messages]
    assert keccak256_batch(messages) == [oracles.keccak256_oracle(m)
                                         for m in messages]


def test_batch_empty():
    assert keccak256_batch([]) == []


def test_batch_refuses_message_past_one_block():
    with pytest.raises(ValueError):
        keccak256_batch([b"ok", b"\x00" * 136])


def test_batches_match_oracle_across_block_edges():
    # the batch paths permute 512 messages at a time
    rng = random.Random(512)
    messages = [rng.randbytes(rng.randint(0, 135)) for _ in range(1025)]
    expected = [oracles.keccak256_oracle(m) for m in messages]
    ids = rng.randbytes(64 * 1025)
    lanes = np.frombuffer(ids, dtype="<u8").reshape(1025, 8)
    expected64 = [oracles.keccak256_oracle(ids[64 * i:64 * (i + 1)])
                  for i in range(1025)]
    for n in (0, 1, 511, 512, 513, 1025):
        assert keccak256_batch(messages[:n]) == expected[:n]
        digests = keccak256_batch64(lanes[:n])
        assert digests.shape == (n, 4)
        assert [row.astype("<u8").tobytes() for row in digests] == \
            expected64[:n]


def test_batch64_memory_stays_within_its_blocks():
    # 32,768 messages: input 2 MiB, digests 1 MiB; the permutation's own
    # buffers are sized by its 512-message blocks, not by the batch
    lanes = np.frombuffer(np.random.default_rng(3).bytes(64 * 32768),
                          dtype="<u8").reshape(32768, 8)
    tracemalloc.start()
    try:
        keccak256_batch64(lanes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
