"""Bit-parallel edit distance and reference-similarity bucketing."""

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
@settings(max_examples=200)
def test_unbounded_band_matches_oracle(a, b):
    assert levenshtein(a, b, 1000) == oracles.levenshtein_oracle(a, b)


@given(HEX_TEXT, HEX_TEXT, st.integers(min_value=0, max_value=12))
@settings(max_examples=200)
def test_band_respects_cutoff(a, b, cutoff):
    true_distance = oracles.levenshtein_oracle(a, b)
    banded = levenshtein(a, b, cutoff)
    if true_distance <= cutoff:
        assert banded == true_distance
    else:
        assert banded is None


# letters g-j occur only in `a`, w-z only in `b`: match masks of 0 included
A_ALPHABET = "0123456789abcdefghij"
B_ALPHABET = "0123456789abcdefwxyz"


def _text(draw, alphabet):
    # draw the size first: st.text alone rarely goes past a few dozen chars
    size = draw(st.integers(min_value=0, max_value=300))
    return draw(st.text(alphabet=alphabet, min_size=size, max_size=size))


@st.composite
def long_pairs(draw):
    """Pairs up to 300 chars, so masks are wider than a 64-bit word."""
    a = _text(draw, A_ALPHABET)
    if draw(st.booleans()):
        return a, _text(draw, B_ALPHABET)
    chars = list(a)   # a few edits away, to hit distances near the cutoff
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        position = draw(st.integers(min_value=0, max_value=len(chars)))
        edit = draw(st.sampled_from(("insert", "substitute", "delete")))
        if edit == "insert" or position == len(chars):
            chars.insert(position, draw(st.sampled_from("wxyz")))
        elif edit == "substitute":
            chars[position] = draw(st.sampled_from("wxyz"))
        else:
            del chars[position]
    return a, "".join(chars)


@given(long_pairs(), st.data())
@settings(max_examples=150)
def test_long_pairs_match_oracle_at_every_cutoff(pair, data):
    a, b = pair
    cutoff = data.draw(st.integers(min_value=0,
                                   max_value=max(len(a), len(b)) + 2))
    true_distance = oracles.levenshtein_oracle(a, b)
    expected = true_distance if true_distance <= cutoff else None
    assert levenshtein(a, b, cutoff) == expected


@pytest.mark.parametrize("a, b, cutoff, expected", [
    ("", "", 0, 0),
    ("", "0f", 2, 2),
    ("", "0f", 1, None),
    ("0f", "", 2, 2),
    ("0f", "", 1, None),
    ("0f", "0f", 0, 0),
    ("0f", "0e", 0, None),
    ("a" * 100, "a" * 99 + "x", 0, None),
    ("a" * 100, "a" * 99 + "x", 1, 1),
    ("x" + "a" * 99, "a" * 100, 1, 1),
])
def test_empty_strings_and_zero_cutoff(a, b, cutoff, expected):
    assert levenshtein(a, b, cutoff) == expected

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



def test_repeated_entries_count_like_a_per_entry_oracle():
    rng = random.Random(7)
    reference = "".join(rng.choice("0123456789abcdef") for _ in range(120))
    minor = reference[:50] + "zz" + reference[52:]
    heavy = reference[:40] + "z" * 30 + reference[70:]
    dropped = "f" * 120
    corpus = [reference, "0x" + reference, reference.upper(), minor,
              "0X" + minor.upper(), heavy, heavy, "0x" + heavy, dropped,
              dropped.upper(), reference]
    references = [("r", reference, True), ("m", "0x" + minor.upper(), False)]
    buckets = SimilarityBuckets(minor_max=5, heavy_max=40)
    rows = bucket_similarity(corpus, references, buckets)
    expected = []
    for name, bytecode, optimized in references:
        row = SimilarityRow(reference=name, optimized=optimized)
        for code in corpus:
            distance = oracles.levenshtein_oracle(
                code.lower().removeprefix("0x"),
                bytecode.lower().removeprefix("0x"))
            if distance == 0:
                row.exact += 1
            elif distance <= buckets.minor_max:
                row.minor += 1
            elif distance <= buckets.heavy_max:
                row.heavy += 1
        expected.append(row)
    assert rows == expected
    # every bucket is hit, and the two copies of `dropped` are discarded
    assert (rows[0].exact, rows[0].minor, rows[0].heavy) == (4, 2, 3)
    assert rows[1].exact == 2

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
