"""Banded edit distance and reference-similarity bucketing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.eth.similarity import (SimilarityBuckets, SimilarityRow,
                                      bucket_similarity, levenshtein)

import oracles

HEX_TEXT = st.text(alphabet="0123456789abcdef", max_size=40)


def test_known_distances():
    assert levenshtein("kitten", "sitting", 100) == 3
    assert levenshtein("", "", 0) == 0
    assert levenshtein("abc", "abc", 0) == 0
    assert levenshtein("abc", "", 100) == 3
    assert levenshtein("", "abcd", 100) == 4
    assert levenshtein("flaw", "lawn", 100) == 2


def test_cutoff_is_inclusive():
    assert levenshtein("aaaa", "bbbb", 4) == 4
    assert levenshtein("aaaa", "bbbb", 3) is None
    # length gap alone can exceed the cutoff
    assert levenshtein("a" * 10, "", 5) is None


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        levenshtein("a", "b", -1)


@given(HEX_TEXT, HEX_TEXT)
@settings(max_examples=200, deadline=None)
def test_unbounded_band_matches_oracle(a, b):
    assert levenshtein(a, b, 1000) == oracles.levenshtein_oracle(a, b)


@given(HEX_TEXT, HEX_TEXT, st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_band_respects_cutoff(a, b, cutoff):
    true_distance = oracles.levenshtein_oracle(a, b)
    banded = levenshtein(a, b, cutoff)
    if true_distance <= cutoff:
        assert banded == true_distance
    else:
        assert banded is None


def test_bucket_boundaries_hand_case():
    buckets = SimilarityBuckets(minor_max=1, heavy_max=3)
    corpus = ["aabb", "aabc", "abcd", "ffff"]
    rows = bucket_similarity(corpus, [("r", "aabb", True)], buckets)
    assert rows == [SimilarityRow(reference="r", optimized=True,
                                  exact=1, minor=1, heavy=1)]


def test_bucket_normalizes_prefix_and_case():
    rows = bucket_similarity(["0xAABB"], [("r", "aabb", False)])
    assert rows[0].exact == 1


def test_bucket_counts_match_oracle():
    rng = random.Random(20_26)
    reference = "".join(rng.choice("0123456789abcdef") for _ in range(200))

    def mutate(text, k):
        chars = list(text)
        for position in rng.sample(range(len(chars)), k):
            chars[position] = rng.choice(
                [c for c in "0123456789abcdef" if c != chars[position]])
        return "".join(chars)

    corpus = [reference,
              mutate(reference, 2),
              mutate(reference, 40),
              mutate(reference, 120),
              "".join(rng.choice("0123456789abcdef") for _ in range(200))]
    buckets = SimilarityBuckets(minor_max=50, heavy_max=130)
    rows = bucket_similarity(corpus, [("r", reference, False)], buckets)
    expected = SimilarityRow(reference="r", optimized=False)
    for code in corpus:
        distance = oracles.levenshtein_oracle(code, reference)
        if distance == 0:
            expected.exact += 1
        elif distance <= buckets.minor_max:
            expected.minor += 1
        elif distance <= buckets.heavy_max:
            expected.heavy += 1
    assert rows == [expected]
    # the random 200-char string really was discarded beyond heavy_max
    assert rows[0].exact + rows[0].minor + rows[0].heavy == 4


def test_bucket_bounds_validation():
    with pytest.raises(ValueError):
        SimilarityBuckets(minor_max=100, heavy_max=100)
    with pytest.raises(ValueError):
        SimilarityBuckets(minor_max=20, heavy_max=10)
    with pytest.raises(ValueError):
        SimilarityBuckets(minor_max=0)


def test_multiple_references_counted_independently():
    corpus = ["aaaa", "bbbb"]
    buckets = SimilarityBuckets(minor_max=1, heavy_max=4)
    rows = bucket_similarity(corpus,
                             [("a", "aaaa", False), ("b", "bbbb", True)],
                             buckets)
    assert [(row.reference, row.exact, row.heavy) for row in rows] == \
        [("a", 1, 1), ("b", 1, 1)]
