"""File-signature scanning of transaction input payloads."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.errors import InvalidHex
from chainlens.model import ChainKind
from chainlens.poison import (MATCH_PREFIX_BYTES, SignatureDb, SignatureEntry,
                              _entry_matches, extract_payload, load_signatures,
                              match_signatures, scan_corpus)

import ledgers
import oracles
from conftest import (addr, block_line, h32, hex_like_text, load_store,
                      outcome, tx_line)

PNG_MAGIC = bytes.fromhex("89504e470d0a1a0a")
JPG_PAYLOAD = bytes.fromhex("ffd8ffe000104a46494600")
GZIP_PAYLOAD = bytes.fromhex("1f8b08080011223344")
RIFF_WAVE = b"RIFF" + b"\x24\x08\x00\x00" + b"WAVE" + b"fmt "


def test_extract_payload_roundtrip_prefix_and_case():
    assert extract_payload("0xDEADbeef") == bytes.fromhex("deadbeef")
    assert extract_payload("") == b""


def test_extract_payload_reports_bad_digit_position():
    with pytest.raises(InvalidHex) as excinfo:
        extract_payload("0xab0g11")
    assert excinfo.value.position == 3
    with pytest.raises(InvalidHex) as excinfo:
        extract_payload("abc")
    assert excinfo.value.position == 3
    # bytes.fromhex would skip the space; the payload check does not
    with pytest.raises(InvalidHex) as excinfo:
        extract_payload("ab cd")
    assert excinfo.value.position == 2
    # an odd-length string reports its first bad digit before its length
    with pytest.raises(InvalidHex) as excinfo:
        extract_payload("abcg1")
    assert excinfo.value.position == 3


@given(hex_like_text())
@settings(max_examples=500)
def test_extract_payload_matches_the_set_test_reference(text):
    # the same bytes, or the same error class and message (position too)
    assert outcome(extract_payload, text) \
        == outcome(oracles.extract_payload_reference, text)


@given(st.binary(max_size=200))
@settings(max_examples=150)
def test_extract_payload_inverts_hex(blob):
    assert extract_payload(blob.hex()) == blob
    assert extract_payload("0x" + blob.hex().upper()) == blob


def test_bundled_table_loads():
    db = load_signatures()
    assert len(db.entries) == 75
    assert db.extension_for("png") == "png"
    assert db.extension_for("gzip") == "gz"
    with pytest.raises(KeyError):
        db.extension_for("nope")


def test_entry_validation():
    with pytest.raises(ValueError):
        SignatureEntry(format_name="x", magic=b"", offset=0, extension="x")
    with pytest.raises(ValueError):
        SignatureEntry(format_name="x", magic=b"a" * 17, offset=0,
                       extension="x")
    with pytest.raises(ValueError):
        SignatureEntry(format_name="x", magic=b"ab", offset=-1,
                       extension="x")


def test_db_validation():
    entry = SignatureEntry(format_name="x", magic=b"ab", offset=0,
                           extension="x")
    with pytest.raises(ValueError):
        SignatureDb(entries=[])
    with pytest.raises(ValueError):
        SignatureDb(entries=[entry, entry])


def test_custom_table_loading(tmp_path):
    path = tmp_path / "sigs.csv"
    path.write_text("format,magic_hex,offset,extension\n"
                    "demo,cafe,0,bin\n")
    db = load_signatures(path)
    assert [entry.format_name for entry in db.entries] == ["demo"]
    bad = tmp_path / "bad.csv"
    bad.write_text("demo,cafe,0\n")
    with pytest.raises(ValueError):
        load_signatures(bad)


def test_prefix_match_is_permissive():
    db = load_signatures()
    # two leading bytes of the PNG magic are enough for the filter
    assert "png" in match_signatures(bytes.fromhex("8950aaaa"), db)
    # but the full-magic pass rejects the impostor
    assert "png" not in match_signatures(bytes.fromhex("8950aaaa"), db,
                                         full_magic=True)
    assert "png" in match_signatures(PNG_MAGIC + b"rest", db,
                                     full_magic=True)


def test_riff_container_collision():
    db = load_signatures()
    names = match_signatures(RIFF_WAVE, db)
    assert "wav" in names and "avi" in names
    # table order is preserved
    assert names.index("wav") < names.index("avi")
    # an actual WEBP container also trips the RIFF pair at offset 0
    webp = b"RIFF" + b"\x00\x00\x00\x00" + b"WEBP" + b"VP8 "
    names = match_signatures(webp, db)
    assert {"wav", "avi", "webp"} <= set(names)


def test_offset_signature_requires_full_window():
    db = load_signatures()
    # a payload shorter than offset+prefix cannot match the offset entry
    assert "webp" not in match_signatures(b"RIFF\x00\x00\x00\x00W", db)


def _few_bytes(min_size, max_size):
    # few byte values, so magics share prefixes across formats and payloads hit
    return st.lists(st.sampled_from([0x00, 0x1F, 0xFF]), min_size=min_size,
                    max_size=max_size).map(bytes)


_TABLES = st.lists(
    st.builds(SignatureEntry, format_name=st.sampled_from("abcde"),
              magic=_few_bytes(1, 4), offset=st.integers(0, 6),
              extension=st.just("bin")),
    min_size=1, max_size=12,
    unique_by=lambda e: (e.format_name, e.magic, e.offset))


@given(_TABLES, st.lists(_few_bytes(0, 10), min_size=1, max_size=8))
@settings(max_examples=200)
def test_indexed_filter_matches_linear_scan(entries, payloads):
    db = SignatureDb(entries=entries)
    for payload in payloads:
        assert match_signatures(payload, db) == [
            entry.format_name for entry in entries
            if _entry_matches(payload, entry, MATCH_PREFIX_BYTES)]


def _poison_store():
    t = [h32(0xF000 + i) for i in range(7)]
    lines = [
        block_line("eth", 0, 1438387200, t[1:6]),
        tx_line_eth(t[1], 0, 0, (PNG_MAGIC + b"imagedata").hex()),
        tx_line_eth(t[2], 0, 1, JPG_PAYLOAD.hex()),
        tx_line_eth(t[3], 0, 2, GZIP_PAYLOAD.hex()),
        tx_line_eth(t[4], 0, 3, RIFF_WAVE.hex()),
        tx_line_eth(t[5], 0, 4, "60016002"),
    ]
    return load_store(lines, ChainKind.ETHEREUM), t


def tx_line_eth(tx_hash, height, index, input_hex):
    return tx_line("eth", tx_hash, height, index, addr(0xA), addr(0xB),
                   "0", input_hex)


def test_scan_corpus_counts_and_rows():
    store, t = _poison_store()
    db = load_signatures()
    report = scan_corpus(store, ChainKind.ETHEREUM, db)
    by_tx = {}
    for row in report.rows:
        by_tx.setdefault(row.tx_hash, []).append(row.format_name)
    assert by_tx[t[1]] == ["png"]
    assert by_tx[t[2]] == ["jpg"]
    assert by_tx[t[3]] == ["gzip"]
    assert by_tx[t[4]] == ["wav", "avi"]
    assert t[5] not in by_tx
    assert Counter(row.format_name for row in report.rows) == {
        "png": 1, "jpg": 1, "gzip": 1, "wav": 1, "avi": 1}
    sizes = {row.tx_hash: row.payload_size for row in report.rows}
    assert sizes[t[1]] == len(PNG_MAGIC) + len(b"imagedata")
    assert report.write_errors == []
    store.close()


def test_scan_corpus_verify_full_drops_prefix_only_hits():
    t = [h32(0xF100 + i) for i in range(3)]
    lines = [
        block_line("eth", 0, 1438387200, t[1:3]),
        tx_line_eth(t[1], 0, 0, "8950aaaa"),  # prefix-only impostor
        tx_line_eth(t[2], 0, 1, PNG_MAGIC.hex()),
    ]
    store = load_store(lines, ChainKind.ETHEREUM)
    db = load_signatures()
    loose = scan_corpus(store, ChainKind.ETHEREUM, db)
    assert {row.tx_hash for row in loose.rows} == {t[1], t[2]}
    strict = scan_corpus(store, ChainKind.ETHEREUM, db, verify_full=True)
    assert {row.tx_hash for row in strict.rows} == {t[2]}
    store.close()


def test_scan_corpus_writes_payload_files(tmp_path):
    store, t = _poison_store()
    db = load_signatures()
    out = tmp_path / "carved"
    report = scan_corpus(store, ChainKind.ETHEREUM, db, out_dir=out)
    assert report.write_errors == []
    assert (out / f"{t[1]}.png").read_bytes() == PNG_MAGIC + b"imagedata"
    assert (out / f"{t[4]}.wav").read_bytes() == RIFF_WAVE
    assert (out / f"{t[4]}.avi").exists()
    assert not (out / f"{t[5]}.png").exists()
    store.close()


@given(ledgers.three_chain_ledgers())
@settings(max_examples=100)
def test_scan_corpus_matches_the_full_decode_loop(ledger):
    # the model decodes every stored tx of each chain; --verify-full keeps
    # a subset of the candidate rows
    _, outputs = ledgers.check_reports(ledger, "poison scan")
    for chain in ledgers.CHAINS:
        label = f"poison scan --chain {chain}"
        verified = ledgers.csv_rows(outputs[f"{label} --verify-full"][1])
        assert set(map(tuple, verified)) \
            <= set(map(tuple, ledgers.csv_rows(outputs[label][1])))
