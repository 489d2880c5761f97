"""RLP codec against the direct-construction oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.rlp import RlpDecodingError, decode, encode, encode_uint

import oracles


@pytest.mark.parametrize("item,expected", [
    (b"", b"\x80"),
    (b"\x00", b"\x00"),
    (b"\x0f", b"\x0f"),
    (b"\x80", b"\x81\x80"),
    (b"dog", b"\x83dog"),
    (b"a" * 55, b"\xb7" + b"a" * 55),
    (b"a" * 56, b"\xb8\x38" + b"a" * 56),
    ([], b"\xc0"),
    ([b"cat", b"dog"], b"\xc8\x83cat\x83dog"),
    ([[], [[]]], b"\xc3\xc0\xc1\xc0"),
])
def test_known_encodings(item, expected):
    assert encode(item) == expected
    assert oracles.rlp_encode_oracle(item) == expected


@pytest.mark.parametrize("value,expected", [
    (0, b"\x80"), (1, b"\x01"), (127, b"\x7f"), (128, b"\x81\x80"),
    (1024, b"\x82\x04\x00"), (0xFFFFFF, b"\x83\xff\xff\xff"),
])
def test_uint_minimal_encoding(value, expected):
    # encode_uint yields the minimal payload; encode() adds the RLP framing
    assert encode(encode_uint(value)) == expected
    assert encode_uint(value) == encode_uint(value).lstrip(b"\x00")


def test_uint_rejects_negative():
    with pytest.raises(ValueError):
        encode_uint(-1)


_nested = st.recursive(st.binary(max_size=40),
                       lambda children: st.lists(children, max_size=5),
                       max_leaves=25)


@given(_nested)
@settings(max_examples=300)
def test_roundtrip_and_oracle(item):
    blob = encode(item)
    assert blob == oracles.rlp_encode_oracle(item)
    assert decode(blob) == _as_bytes_tree(item)


def _as_bytes_tree(item):
    if isinstance(item, (bytes, bytearray)):
        return bytes(item)
    return [_as_bytes_tree(part) for part in item]


@pytest.mark.parametrize("blob", [
    b"",                       # empty input
    b"\x81\x05",               # non-canonical single byte
    b"\xb8\x01x",              # long form used for a 1-byte string
    b"\x83ab",                 # truncated payload
    b"\xc1",                   # truncated list
    b"\x82ab\xff",             # trailing garbage
    b"\xb8\x37" + b"a" * 55,   # long form below the 56-byte cutoff
])
def test_decode_rejects_malformed(blob):
    with pytest.raises(RlpDecodingError):
        decode(blob)


def test_long_length_byte_below_0x80_is_legal():
    # a 56-byte string's length byte is 0x38; it is a length, not an item
    blob = b"\xb8\x38" + b"z" * 56
    assert decode(blob) == b"z" * 56
