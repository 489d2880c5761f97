"""Ledger store: ingestion, rejection, cutoff, summaries."""

import ast
import json
import random
import sqlite3
import tempfile
from contextlib import closing
from unittest import mock
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens
from chainlens import errors
from chainlens.errors import (ChainLensError, ConflictingBlock, ConflictingTx,
                              EmptyChain, MalformedJson, SchemaViolation)
from chainlens.eth.contracts import build_contract_registry, iter_creations
from chainlens import store as store_module
from chainlens.model import (NAME_OP_KINDS, REQUIRED, Block, ChainKind,
                             FieldError, IngestSummary, RejectedLine,
                             Transaction, amount_field, hex_field, int_field,
                             iso_week_key, month_key, normalize_hex,
                             str_list_field, tally_periods)
from chainlens.store import (Store, _parse_block, _parse_tx, ingest_blocks,
                             monthly_tx_counts, parse_rfc3339, read_records)

import ledgers
import oracles
from conftest import (addr, block_line, eth_labeled_fixture, h32,
                      hex_like_text, load_store, outcome, tx_line)


def test_normalize_hex():
    assert normalize_hex("0xAB12") == "ab12"
    assert normalize_hex("ab12") == "ab12"
    with pytest.raises(ValueError):
        normalize_hex("0xg1")
    with pytest.raises(ValueError):
        normalize_hex("abc")
    with pytest.raises(ValueError):
        normalize_hex("ab", byte_len=2)


_BYTE_LENS = st.none() | st.sampled_from([0, 1, 2, 20, 32]) \
    | st.integers(0, 40)


@given(hex_like_text(), _BYTE_LENS)
@settings(max_examples=500)
def test_normalize_hex_matches_the_set_test_reference(text, byte_len):
    # the same digits, or the same error class and message
    assert outcome(normalize_hex, text, byte_len) \
        == outcome(oracles.normalize_hex_reference, text, byte_len)


@given(st.lists(hex_like_text(), max_size=4), st.sampled_from([1, 20, 32]))
@settings(max_examples=300)
def test_hex_list_field_matches_the_per_entry_reference(value, byte_len):
    # each entry alone through the set-test reference, its error naming
    # the list's key
    assert outcome(str_list_field, {"txs": value}, "txs", [], byte_len) \
        == outcome(oracles.str_list_field_reference, {"txs": value}, "txs",
                   [], byte_len)


# values near every reader's type: hex-like text, decimal text, booleans,
# floats, integers past 2^63, null, and lists that hold other than strings
_READER_VALUES = st.one_of(
    hex_like_text(), st.integers(-2**70, 2**70).map(str), st.booleans(),
    st.floats(), st.none(), st.integers(-2**70, 2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, -2**63 - 1]),
    st.lists(hex_like_text(), max_size=4),
    st.lists(st.one_of(hex_like_text(), st.integers(), st.none(),
                       st.booleans(), st.floats(), st.lists(st.text(max_size=2),
                                                            max_size=2)),
             max_size=4))
# lists of hex entries one byte either side of 1 and 2 bytes long, whose
# lengths may add up to a right total with no entry of the right length
_NEAR_WIDTH_LISTS = st.lists(st.integers(0, 3).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)).map(
    lambda raw: "0x" + raw.hex()), max_size=4)
_DEFAULTS = st.sampled_from([REQUIRED, None, 0, "", []])
# each reader, the reader it replaced, its arguments after obj and key, and
# the values of obj[key]
_READERS = {
    "int": (int_field, oracles.int_field_reference, st.tuples(
        st.sampled_from([None, 0, 1]), _DEFAULTS,
        st.sampled_from([None, 10, 2**63 - 1])), _READER_VALUES),
    "amount": (amount_field, oracles.amount_field_reference,
               st.tuples(_DEFAULTS), _READER_VALUES),
    "hex": (hex_field, oracles.hex_field_reference,
            st.tuples(_BYTE_LENS, _DEFAULTS), _READER_VALUES),
    "str list": (str_list_field, oracles.str_list_field_reference,
                 st.tuples(_DEFAULTS,
                           st.sampled_from([None, 0, 1, 2, 20, 32])),
                 _READER_VALUES | _NEAR_WIDTH_LISTS),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@given(data=st.data())
@settings(max_examples=400)
def test_field_readers_match_the_readers_they_replaced(reader, data):
    # the same value, or the same error class, key and message
    new, old, arguments, values = _READERS[reader]
    obj = data.draw(st.fixed_dictionaries({}, optional={"k": values}))
    args = data.draw(arguments)
    assert outcome(new, obj, "k", *args) == outcome(old, obj, "k", *args)


def test_time_keys():
    # 2015-08-01T00:00:00Z
    assert month_key(1438387200) == "2015-08"
    assert iso_week_key(1438387200) == "2015-W31"
    # ISO week years differ from calendar years at the boundary
    assert iso_week_key(1420070400) == "2015-W01"  # 2015-01-01
    assert iso_week_key(1451606400) == "2015-W53"  # 2016-01-01


def test_parse_rfc3339():
    assert parse_rfc3339("1970-01-01T00:00:10Z") == 10
    assert parse_rfc3339("1438387200") == 1438387200
    assert parse_rfc3339("2015-08-01T00:00:00+00:00") == 1438387200


def _tally(amounts: dict[str, int], key_of) -> list[tuple[str, int]]:
    """(period, amount) rows of one item per UTC day ("YYYY-MM-DD")."""
    items = [(int(datetime.fromisoformat(day).replace(
        tzinfo=timezone.utc).timestamp()), "n", amount)
        for day, amount in amounts.items()]
    return [(key, tally["n"]) for key, tally in tally_periods(items, key_of)]


def test_week_span_crosses_year():
    # Mondays of 2015-W02 and 2014-W52
    assert _tally({"2015-01-05": 2, "2014-12-22": 1}, iso_week_key) == [
        ("2014-W52", 1), ("2015-W01", 0), ("2015-W02", 2)]
    # 2015 is an ISO year with 53 weeks
    assert _tally({"2015-12-21": 1, "2016-01-04": 3}, iso_week_key) == [
        ("2015-W52", 1), ("2015-W53", 0), ("2016-W01", 3)]
    assert _tally({"2014-11-30": 4, "2015-02-01": 5}, month_key) == [
        ("2014-11", 4), ("2014-12", 0), ("2015-01", 0), ("2015-02", 5)]
    assert _tally({"2015-08-15": 7}, month_key) == [("2015-08", 7)]
    assert _tally({"2015-08-01": 7}, iso_week_key) == [("2015-W31", 7)]
    assert _tally({}, month_key) == []
    # every month of five years, leap February included, exactly once
    months = [month for month, _ in _tally({"2012-01-31": 1,
                                            "2016-12-01": 1}, month_key)]
    assert months == [f"{year}-{month:02d}" for year in range(2012, 2017)
                      for month in range(1, 13)]


def test_tally_periods_skips_orphans_and_keeps_zero_amounts():
    items = [(1441065600, "a", 2), (None, "a", 5), (1438387200, "b", 0),
             (1441065601, "a", 3), (None, "c", 1)]
    # "b" stays a key at amount 0: nmc fees lists the op kinds seen that way
    assert tally_periods(items, month_key) == [
        ("2015-08", {"b": 0}), ("2015-09", {"a": 5})]
    assert tally_periods([(None, "a", 1)], month_key) == []
    # the last second a block may carry closes its period
    last = 253402300799
    assert tally_periods([(last, "a", 1)], month_key) == [("9999-12", {"a": 1})]
    assert [week for week, _ in tally_periods(
        [(last - 8 * 86_400, "a", 1), (last, "a", 1)], iso_week_key)] == [
        "9999-W51", "9999-W52"]
    # from a Saturday of 9999-W51, a whole week's step would land in the
    # year 10000, the last two days of 9999-W52
    assert [week for week, _ in tally_periods(
        [(253401739200, "a", 1), (last, "a", 1)], iso_week_key)] == [
        "9999-W51", "9999-W52"]  # 9999-12-25T12:00Z


def test_ingest_and_reject_counts():
    lines = [
        block_line("eth", 0, 1000, [h32(1)]),
        tx_line("eth", h32(1), 0, 0, "aa" * 20, "bb" * 20, "5"),
        "not json at all",
        json.dumps({"type": "mystery", "chain": "eth"}),
        json.dumps({"type": "block", "chain": "nmc", "height": 1,
                    "hash": h32(9), "parent": h32(8), "time": 5, "txs": []}),
        tx_line("eth", "0xzz", 0, 1, "aa" * 20, None),  # bad hash
        "",
    ]
    store = Store(":memory:")
    summary = ingest_blocks(lines, ChainKind.ETHEREUM, store)
    assert summary.blocks_loaded == 1
    assert summary.txs_loaded == 1
    assert summary.rejected_count == 4
    assert [r.line_no for r in summary.rejected] == [3, 4, 5, 6]
    assert isinstance(summary.rejected[0].error, MalformedJson)
    store.close()


def test_strict_mode_raises():
    lines = [block_line("eth", 0, 1000), "garbage"]
    store = Store(":memory:")
    with pytest.raises(MalformedJson):
        ingest_blocks(lines, ChainKind.ETHEREUM, store, strict=True)
    store.close()


def test_a_raised_ingest_leaves_nothing_behind(tmp_path):
    # the block before the bad line is not committed by the next ingest
    with Store(tmp_path) as store:
        with pytest.raises(MalformedJson):
            ingest_blocks([block_line("eth", 0, 1000), "garbage"],
                          ChainKind.ETHEREUM, store, strict=True)
        ingest_blocks([block_line("eth", 1, 2000)], ChainKind.ETHEREUM, store)
    with Store(tmp_path) as store:
        assert store.block_count(ChainKind.ETHEREUM) == 1


def test_ingest_idempotent():
    lines = [
        block_line("eth", 0, 1000, [h32(1)]),
        tx_line("eth", h32(1), 0, 0, "aa" * 20, None, "5", "60"),
        block_line("eth", 1, 2000),
    ]
    store = Store(":memory:")
    first = ingest_blocks(lines, ChainKind.ETHEREUM, store)
    assert (first.blocks_loaded, first.txs_loaded) == (2, 1)
    second = ingest_blocks(lines, ChainKind.ETHEREUM, store)
    assert (second.blocks_loaded, second.txs_loaded,
            second.rejected_count) == (0, 0, 0)
    assert store.block_count(ChainKind.ETHEREUM) == 2
    store.close()


def test_conflicting_block_same_height():
    # a stored height that arrives with any one field changed, its hash or
    # another, its chain's own field included, is a conflict, and the
    # stored block stays as it was
    for chain, owned, other in ((ChainKind.NAMECOIN, "auxpow", [False, True]),
                                (ChainKind.PEERCOIN, "proof", ["pos", "pow"])):
        line = block_line(chain.value, 5, 1000, [h32(1)], **{owned: other[0]})
        store = load_store([line], chain)
        stored = list(store.iter_blocks(chain))
        changed = [json.dumps({**json.loads(line), key: value})
                   for key, value in [
                       ("hash", h32(0xDEAD)), ("time", 999999),
                       ("parent", h32(0xBEEF)), ("txs", [h32(2)]),
                       (owned, other[1])]]
        summary = ingest_blocks(changed, chain, store)
        assert (summary.blocks_loaded, summary.rejected_count) == (0, 5)
        assert [r.line_no for r in summary.rejected] == [1, 2, 3, 4, 5]
        assert all(isinstance(r.error, ConflictingBlock)
                   for r in summary.rejected)
        for one in changed:
            with pytest.raises(ConflictingBlock):
                ingest_blocks([one], chain, store, strict=True)
        assert list(store.iter_blocks(chain)) == stored
        # an identical re-delivery is still a silent no-op
        again = ingest_blocks([line], chain, store, strict=True)
        assert (again.blocks_loaded, again.rejected_count) == (0, 0)
        store.close()


def test_conflicting_tx_same_hash():
    lines = [block_line("eth", 0, 1000, [h32(1)]),
             tx_line("eth", h32(1), 0, 0, "aa" * 20, None, "5")]
    store = Store(":memory:")
    ingest_blocks(lines, ChainKind.ETHEREUM, store)
    stored = list(store.iter_txs(ChainKind.ETHEREUM))
    changed = [tx_line("eth", h32(1), 0, 0, "bb" * 20, None, "5"),
               tx_line("eth", h32(1), 0, 0, "aa" * 20, None, "6")]
    summary = ingest_blocks(changed, ChainKind.ETHEREUM, store)
    assert (summary.txs_loaded, summary.rejected_count) == (0, 2)
    assert [r.line_no for r in summary.rejected] == [1, 2]
    assert all(isinstance(r.error, ConflictingTx) for r in summary.rejected)
    with pytest.raises(ConflictingTx):
        ingest_blocks(changed[1:], ChainKind.ETHEREUM, store, strict=True)
    assert list(store.iter_txs(ChainKind.ETHEREUM)) == stored
    # an identical re-delivery is still a silent no-op
    again = ingest_blocks(lines, ChainKind.ETHEREUM, store, strict=True)
    assert (again.txs_loaded, again.rejected_count) == (0, 0)
    store.close()


def test_duplicate_position_rejected_with_line_number():
    lines = [
        block_line("eth", 0, 1000, [h32(1), h32(2)]),
        tx_line("eth", h32(1), 0, 0, "aa" * 20, None),
        tx_line("eth", h32(2), 0, 0, "bb" * 20, None),  # same (height, index)
    ]
    store = Store(":memory:")
    summary = ingest_blocks(lines, ChainKind.ETHEREUM, store)
    assert summary.rejected_count == 1
    err = summary.rejected[0].error
    assert isinstance(err, SchemaViolation)
    assert err.line_no == 3
    store.close()


def test_block_with_duplicate_tx_hashes_rejected():
    bad = json.dumps({"type": "block", "chain": "eth", "height": 0,
                      "hash": h32(5), "parent": h32(0), "time": 9,
                      "txs": [h32(1), h32(1)]})
    store = Store(":memory:")
    summary = ingest_blocks([bad], ChainKind.ETHEREUM, store)
    assert summary.rejected_count == 1
    store.close()


def test_eth_address_validation_but_opaque_elsewhere():
    eth_bad = tx_line("eth", h32(1), 0, 0, "tooshort", None)
    store = Store(":memory:")
    summary = ingest_blocks([block_line("eth", 0, 5), eth_bad],
                            ChainKind.ETHEREUM, store)
    assert summary.rejected_count == 1
    nmc_ok = tx_line("nmc", h32(2), 0, 0, "N4someBase58Addr", "NAnother")
    summary = ingest_blocks([block_line("nmc", 0, 5), nmc_ok],
                            ChainKind.NAMECOIN, store)
    assert summary.rejected_count == 0 and summary.txs_loaded == 1
    store.close()


def _three_block_store() -> Store:
    lines = [
        block_line("eth", 0, 100, [h32(1)]),
        tx_line("eth", h32(1), 0, 0, "aa" * 20, "bb" * 20, "7"),
        block_line("eth", 1, 200, [h32(2)]),
        tx_line("eth", h32(2), 1, 0, "aa" * 20, "bb" * 20, "5"),
        block_line("eth", 2, 300),
    ]
    return load_store(lines, ChainKind.ETHEREUM)


def test_apply_cutoff_strictly_before():
    store = _three_block_store()
    assert store.apply_cutoff(ChainKind.ETHEREUM, 301) == 2
    assert store.apply_cutoff(ChainKind.ETHEREUM, 300) == 1
    assert store.apply_cutoff(ChainKind.ETHEREUM, 101) == 0
    with pytest.raises(EmptyChain):
        store.apply_cutoff(ChainKind.ETHEREUM, 100)
    store.close()


def test_summarize_respects_cutoff():
    store = _three_block_store()
    full = store.summarize_chain(ChainKind.ETHEREUM)
    assert (full.tx_count, full.tx_volume, full.cutoff_height) == (2, 12, 2)
    clipped = store.summarize_chain(ChainKind.ETHEREUM, cutoff_height=0)
    assert (clipped.tx_count, clipped.tx_volume, clipped.cutoff_height) == (1, 7, 0)
    store.close()


def test_summarize_empty_chain():
    store = Store(":memory:")
    with pytest.raises(EmptyChain):
        store.summarize_chain(ChainKind.PEERCOIN)
    store.close()


def test_monthly_counts_zero_fill():
    lines = [
        block_line("eth", 0, 1438387200, [h32(1)]),   # 2015-08
        tx_line("eth", h32(1), 0, 0, "aa" * 20, None),
        block_line("eth", 1, 1443657600, [h32(2)]),   # 2015-10
        tx_line("eth", h32(2), 1, 0, "aa" * 20, None),
    ]
    store = load_store(lines, ChainKind.ETHEREUM)
    assert monthly_tx_counts(store, ChainKind.ETHEREUM) == [
        ("2015-08", 1), ("2015-09", 0), ("2015-10", 1)]
    store.close()


def test_value_precision_beyond_float():
    # 2**63 + 1 wei survives storage and summation exactly
    big = str(2**63 + 1)
    lines = [
        block_line("eth", 0, 100, [h32(1), h32(2)]),
        tx_line("eth", h32(1), 0, 0, "aa" * 20, None, big),
        tx_line("eth", h32(2), 0, 1, "aa" * 20, None, big),
    ]
    store = load_store(lines, ChainKind.ETHEREUM)
    assert store.summarize_chain(ChainKind.ETHEREUM).tx_volume == 2 * (2**63 + 1)
    store.close()


@st.composite
def _chain_strategy(draw):
    n_blocks = draw(st.integers(min_value=1, max_value=12))
    base_time = draw(st.integers(min_value=1, max_value=2**31 - 10**6))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=10**5),
                         min_size=n_blocks, max_size=n_blocks))
    lines = []
    tx_no = 0
    times = []
    time = base_time
    for height, gap in enumerate(gaps):
        time += gap
        times.append(time)
        n_txs = draw(st.integers(min_value=0, max_value=3))
        hashes = [h32(0xF000 + tx_no + i) for i in range(n_txs)]
        lines.append(block_line("eth", height, time, hashes))
        for index, tx_hash in enumerate(hashes):
            value = draw(st.integers(min_value=0, max_value=10**24))
            lines.append(tx_line("eth", tx_hash, height, index, "aa" * 20,
                                 "bb" * 20, str(value)))
        tx_no += n_txs
    return lines, times


@given(_chain_strategy())
@settings(max_examples=50)
def test_ingest_properties_random_chains(chain):
    lines, times = chain
    store = Store(":memory:")
    try:
        first = ingest_blocks(lines, ChainKind.ETHEREUM, store)
        assert first.rejected_count == 0
        again = ingest_blocks(lines, ChainKind.ETHEREUM, store)
        assert (again.blocks_loaded, again.txs_loaded) == (0, 0)

        summary = store.summarize_chain(ChainKind.ETHEREUM)
        assert summary.tx_count == first.txs_loaded
        assert summary.tx_volume == sum(
            int(tx.value) for tx in store.iter_txs(ChainKind.ETHEREUM))

        # cutoff monotonicity: later cutoffs never lower the height
        cut_points = sorted({t for t in (times[0] + 1, times[-1],
                                         times[-1] + 1) if t > times[0]})
        heights = [store.apply_cutoff(ChainKind.ETHEREUM, c)
                   for c in cut_points]
        assert heights == sorted(heights)
        # strictly-before semantics at the exact boundary
        assert store.apply_cutoff(ChainKind.ETHEREUM, times[-1] + 1) \
            == len(times) - 1
    finally:
        store.close()


def _block_record(draw, chain: ChainKind, height: int,
                  tx_hashes: list[str]) -> dict:
    record = {"type": "block", "chain": chain.value, "height": height,
              "hash": h32(0xB000 + height),
              "parent": h32(draw(st.integers(0, 99))),
              "time": draw(st.integers(1, 2**31)), "txs": tx_hashes}
    if chain is ChainKind.NAMECOIN:
        record["auxpow"] = draw(st.sampled_from([None, False, True]))
    if chain is ChainKind.PEERCOIN:
        record["proof"] = draw(st.sampled_from(["pow", "pos"]))
    return record


_NAME_OP = {"kind": "new", "name": "d/x", "name_hash": "ab", "paid_fee": "1"}


def _tx_record(draw, chain: ChainKind, tx_hash: str, height: int,
               index: int) -> dict:
    record = {"type": "tx", "chain": chain.value, "hash": tx_hash,
              "height": height, "index": index,
              "from": addr(draw(st.integers(1, 3))),
              "to": draw(st.sampled_from([None, addr(1), addr(2)])),
              "value": str(draw(st.integers(0, 2**70))),
              "input": draw(st.sampled_from(["", "00", "6001"])),
              "fee": draw(st.none() | st.integers(0, 9).map(str)),
              "gas": draw(st.none() | st.integers(0, 10**6))}
    if chain is ChainKind.NAMECOIN:
        record["name_op"] = draw(st.sampled_from([None, _NAME_OP]))
    return record


# a valid value of each record field other than the one given
_CHANGED = {
    "hash": lambda value: h32(int(value, 16) ^ 1),
    "parent": lambda value: h32(int(value, 16) + 1),
    "time": lambda value: value + 1,
    "txs": lambda value: value + [h32(0xEEEE)],
    "auxpow": {None: True, True: False, False: None}.get,
    "proof": {"pow": "pos", "pos": "pow"}.get,
    "from": lambda value: addr(9),
    "to": lambda value: None if value else addr(9),
    "value": lambda value: str(int(value) + 1),
    "input": lambda value: value + "ff",
    "fee": lambda value: str(int(value or 0) + 1),
    "gas": lambda value: (value or 0) + 1,
    "name_op": lambda value: None if value else _NAME_OP,
    "height": lambda value: value + 1,
    "index": lambda value: value + 1,
}


def _malformed(chain: ChainKind) -> list[tuple]:
    return [("{", MalformedJson, None),
            ("[1]", SchemaViolation, "type"),
            (json.dumps({"type": "tx", "chain": "btc"}), SchemaViolation,
             "chain"),
            (json.dumps({"type": "block", "chain": chain.value, "height": -1}),
             SchemaViolation, "height")]


@st.composite
def _redelivery_strategy(draw):
    """A chain, a random ledger of it, and a second delivery mixing its
    records as they are, with one field changed, new txs on its taken
    positions, new records, and malformed lines (given as (line, error
    class, field))."""
    chain = draw(st.sampled_from(list(ChainKind)))
    first = []
    for height in range(draw(st.integers(1, 5))):
        hashes = [h32(0x7000 + 16 * height + index)
                  for index in range(draw(st.integers(0, 3)))]
        first.append(_block_record(draw, chain, height, hashes))
        first += [_tx_record(draw, chain, tx_hash, height, index)
                  for index, tx_hash in enumerate(hashes)]
    second = []
    for n in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ["same", "changed", "moved", "new block", "new tx", "malformed"]))
        record = draw(st.sampled_from(first))
        if kind == "same":
            second.append(record)
        elif kind == "changed":
            key = draw(st.sampled_from(sorted(set(record) - {"type", "chain"})))
            second.append({**record, key: _CHANGED[key](record[key])})
        elif kind == "moved":
            second.append(_tx_record(draw, chain, h32(0x8000 + n),
                                     record["height"], record.get("index", 0)))
        elif kind == "new block":
            second.append(_block_record(draw, chain, 100 + n, []))
        elif kind == "new tx":
            second.append(_tx_record(draw, chain, h32(0x8000 + n),
                                     draw(st.integers(0, 6)),
                                     draw(st.integers(0, 4))))
        else:
            second.append(draw(st.sampled_from(_malformed(chain))))
    return chain, first, second


class _WriteRuleModel:
    """Stored records keyed by block height, by tx hash and by tx position."""

    def __init__(self):
        self.blocks, self.txs, self.positions = {}, {}, {}

    def ingest(self, items) -> tuple[int, int, list[tuple]]:
        """(blocks loaded, txs loaded, [(line, error class, field)])."""
        blocks_loaded = txs_loaded = 0
        rejected = []
        for line_no, item in enumerate(items, start=1):
            if isinstance(item, tuple):
                rejected.append((line_no, *item[1:]))
            elif item["type"] == "block":
                stored = self.blocks.get(item["height"])
                if stored is None:
                    self.blocks[item["height"]] = item
                    blocks_loaded += 1
                elif stored != item:
                    rejected.append((line_no, ConflictingBlock, None))
            elif item["hash"] in self.txs:
                if self.txs[item["hash"]] != item:
                    rejected.append((line_no, ConflictingTx, None))
            elif (item["height"], item["index"]) in self.positions:
                rejected.append((line_no, SchemaViolation, "index"))
            else:
                self.txs[item["hash"]] = item
                self.positions[item["height"], item["index"]] = item["hash"]
                txs_loaded += 1
        return blocks_loaded, txs_loaded, rejected

    def rows(self) -> tuple[list[tuple], list[tuple]]:
        """The stored block and tx rows, in table column order; every
        record field here is already in its stored form."""
        auxpow = {None: None, False: 0, True: 1}
        blocks = [(rec["chain"], rec["height"], rec["hash"], rec["parent"],
                   rec["time"], auxpow[rec.get("auxpow")], rec.get("proof"),
                   json.dumps(rec["txs"]))
                  for _, rec in sorted(self.blocks.items())]
        txs = []
        for position in sorted(self.positions):
            rec = self.txs[self.positions[position]]
            op = rec.get("name_op") or {}
            txs.append((
                rec["chain"], rec["hash"], rec["height"], rec["index"],
                rec["from"], rec["to"], rec["value"], rec["input"],
                rec["fee"], rec["gas"], op.get("kind"), op.get("name"),
                op.get("name_hash"), op.get("paid_fee")))
        return blocks, txs


def _lines(items) -> list[str]:
    return [item[0] if isinstance(item, tuple) else json.dumps(item)
            for item in items]


@given(_redelivery_strategy())
@settings(max_examples=80)
def test_write_rule_matches_the_reference_model(deliveries):
    chain, first, second = deliveries
    model = _WriteRuleModel()
    assert model.ingest(first)[2] == []
    expected = model.ingest(second)
    store = load_store(_lines(first), chain)
    try:
        summary = ingest_blocks(_lines(second), chain, store)
        assert (summary.blocks_loaded, summary.txs_loaded, [
            (r.line_no, type(r.error), getattr(r.error, "field", None))
            for r in summary.rejected]) == expected
        assert (list(store.iter_blocks(chain)),
                list(store.iter_txs(chain))) == model.rows()
    finally:
        store.close()
    # --strict raises the first of the same errors
    store = load_store(_lines(first), chain)
    try:
        if not expected[2]:
            ingest_blocks(_lines(second), chain, store,
                          strict=True)
            return
        line_no, error_class, field = expected[2][0]
        with pytest.raises(ChainLensError) as caught:
            ingest_blocks(_lines(second), chain, store,
                          strict=True)
        assert (type(caught.value), getattr(caught.value, "field", None),
                getattr(caught.value, "line_no", line_no)) \
            == (error_class, field, line_no)
    finally:
        store.close()


# -- chunked writes against the per-row rule ---------------------------------

def _reference_ingest(lines, chain: ChainKind, store: Store,
                      strict: bool = False) -> IngestSummary:
    """`ingest_blocks` as it was before writes went by the chunk: each
    line's row written as the line is read, by the per-row reference rule."""
    summary = IngestSummary()

    def reject(line_no: int, err: ChainLensError) -> None:
        if strict:
            raise err
        summary.rejected.append(RejectedLine(line_no, err))

    def load(obj: dict) -> None:
        if obj.get("chain") != chain.value:
            raise FieldError(
                "chain", f"expected {chain.value!r}, got {obj.get('chain')!r}")
        if obj["type"] == "block":
            summary.blocks_loaded += oracles.put_row_reference(
                store._conn, "blocks", "height", ConflictingBlock,
                _parse_block(obj, chain))
        else:
            summary.txs_loaded += oracles.put_row_reference(
                store._conn, "txs", "hash", ConflictingTx,
                _parse_tx(obj, chain))

    try:
        for _ in read_records(lines, ("block", "tx"), load, reject):
            pass
    except BaseException:
        store.rollback()
        raise
    store.commit()
    return summary


def _deliveries(ingest, chain: ChainKind, first: list[str],
                second: list[str], strict: bool = False) -> tuple:
    """Both deliveries through `ingest`: (blocks and txs loaded by the
    second, its rejections as (line, class, field, message), the stored
    block and tx rows)."""
    store = Store(":memory:")
    try:
        ingest(first, chain, store, strict=True)
        summary = ingest(second, chain, store, strict=strict)
        return (summary.blocks_loaded, summary.txs_loaded,
                [(r.line_no, type(r.error), getattr(r.error, "field", None),
                  str(r.error)) for r in summary.rejected],
                list(store.iter_blocks(chain)), list(store.iter_txs(chain)))
    finally:
        store.close()


def _same_as_the_per_row_rule(chain: ChainKind, first: list[str],
                              second: list[str]) -> tuple:
    """The chunked outcome of two deliveries, checked against the per-row
    reference, also under --strict, where the same first error is raised."""
    lenient = _deliveries(ingest_blocks, chain, first, second)
    assert lenient == _deliveries(_reference_ingest, chain, first, second)
    assert outcome(_deliveries, ingest_blocks, chain, first, second, True) \
        == outcome(_deliveries, _reference_ingest, chain, first, second, True)
    return lenient


@st.composite
def _redelivery_with_repeats(draw):
    """`_redelivery_strategy`'s deliveries, the second also repeating some
    of its own records, as they are or with one field changed, so that one
    chunk may hold two rows under one key or at one position."""
    chain, first, second = draw(_redelivery_strategy())
    for _ in range(draw(st.integers(0, 4))):
        item = draw(st.sampled_from(second))
        if isinstance(item, dict) and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(set(item) - {"type", "chain"})))
            item = {**item, key: _CHANGED[key](item[key])}
        second.insert(draw(st.integers(0, len(second))), item)
    return chain, first, second


_CHUNKS = [1, 2, 3, store_module.WRITE_CHUNK]


@pytest.mark.parametrize("chunk", _CHUNKS)
@given(_redelivery_with_repeats())
@settings(max_examples=60)
def test_chunked_writes_match_the_per_row_rule(chunk, deliveries):
    chain, first, second = deliveries
    with mock.patch.object(store_module, "WRITE_CHUNK", chunk):
        _same_as_the_per_row_rule(chain, _lines(first), _lines(second))


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_one_chunk_of_every_outcome_rejects_in_line_order(chunk):
    a, b, c = "aa" * 20, "bb" * 20, "cc" * 20
    first = [block_line("eth", 0, 1000, [h32(1), h32(2), h32(5)]),
             tx_line("eth", h32(1), 0, 0, a, None, "5"),
             tx_line("eth", h32(2), 0, 1, a, b, "1"),
             tx_line("eth", h32(5), 0, 2, b, a, "2")]
    second = [
        block_line("eth", 1, 2000, [h32(3)]),  # new
        tx_line("eth", h32(1), 0, 0, a, None, "5"),  # identical
        tx_line("eth", h32(2), 0, 1, a, b, "9"),  # conflicting
        tx_line("eth", h32(4), 0, 2, c, None),  # at a taken position
        tx_line("eth", h32(3), 1, 0, a, None),  # new
        tx_line("eth", h32(6), 1, 0, b, None),  # where the chunk's new tx is
        block_line("eth", 1, 2000, [h32(3)]),  # the chunk's own duplicate
        block_line("eth", 0, 999, [h32(1), h32(2), h32(5)]),  # conflicting
        "{",  # malformed
        block_line("eth", 2, 3000),  # new
    ]
    with mock.patch.object(store_module, "WRITE_CHUNK", chunk):
        loaded_blocks, loaded_txs, rejected, _, _ = \
            _same_as_the_per_row_rule(ChainKind.ETHEREUM, first, second)
        with load_store(first, ChainKind.ETHEREUM) as store, \
                pytest.raises(ConflictingTx) as caught:
            ingest_blocks(second, ChainKind.ETHEREUM, store, strict=True)
    assert (loaded_blocks, loaded_txs) == (2, 1)
    assert [row[:3] for row in rejected] == [
        (3, ConflictingTx, None), (4, SchemaViolation, "index"),
        (6, SchemaViolation, "index"), (8, ConflictingBlock, None),
        (9, MalformedJson, None)]
    assert [message for *_, message in rejected[1:3]] == [
        f"line 4: invalid field 'index': position (0, 2) already held by "
        f"tx {h32(5)}",
        f"line 6: invalid field 'index': position (1, 0) already held by "
        f"tx {h32(3)}"]
    assert str(caught.value) == rejected[0][3] == (
        f"line 3: conflicting tx {h32(2)}: different contents already stored")


# each chain's lines fill different sets of columns; the eth lines put a
# send, then a creation, at one (height, index), behind an earlier creation
# whose columns the later one shares, so that one statement per column set
# in first-seen order would insert the later line first
_COLUMN_SETS = {
    ChainKind.ETHEREUM: [
        tx_line("eth", h32(1), 0, 1, "aa" * 20, None, "0", "6001"),
        tx_line("eth", h32(2), 0, 0, "aa" * 20, "bb" * 20, "5", gas=21000),
        tx_line("eth", h32(3), 0, 0, "bb" * 20, None, "0", "6001"),
        tx_line("eth", h32(4), 1, 0, "bb" * 20, "aa" * 20, "1", fee="7"),
        block_line("eth", 0, 1000, [h32(2), h32(1)]),
        block_line("eth", 1, 2000, [h32(4)])],
    ChainKind.NAMECOIN: [
        block_line("nmc", 0, 1000, [h32(5), h32(6), h32(7)]),
        block_line("nmc", 1, 2000, auxpow=None),
        block_line("nmc", 2, 3000, auxpow=True),
        block_line("nmc", 3, 4000, auxpow=False),
        tx_line("nmc", h32(5), 0, 0, "n1", None,
                name_op={"kind": "new", "name_hash": "ab", "paid_fee": "1"}),
        tx_line("nmc", h32(6), 0, 1, "n1", "n2",
                name_op={"kind": "firstupdate", "name": "d/x"}),
        tx_line("nmc", h32(7), 0, 2, "n2", "n1", "3", fee="1", gas=7)],
    ChainKind.PEERCOIN: [
        block_line("ppc", 0, 1000, [h32(8)], proof="pos"),
        block_line("ppc", 1, 2000, proof="pow"),
        tx_line("ppc", h32(8), 0, 0, "p1", "p2", "4")],
}


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_column_sets_keep_line_order_and_store_the_parsed_rows(chunk):
    for chain, lines in _COLUMN_SETS.items():
        with mock.patch.object(store_module, "WRITE_CHUNK", chunk):
            _, _, rejected, blocks, txs = \
                _same_as_the_per_row_rule(chain, [], lines)
        # the send came first, so the creation is the one refused
        taken = [] if chain is not ChainKind.ETHEREUM else [
            (3, SchemaViolation, "index",
             f"line 3: invalid field 'index': position (0, 0) already held "
             f"by tx {h32(2)}")]
        assert rejected == taken
        # SELECT * gives back each parsed row, its NULL columns included
        parsed = [(_parse_block if obj["type"] == "block" else _parse_tx)(
            obj, chain) for line_no, obj in enumerate(map(json.loads, lines), 1)
            if line_no not in {line for line, *_ in taken}]
        assert blocks == [row for row in parsed if type(row) is Block]
        assert txs == sorted((row for row in parsed if type(row) is
                              Transaction), key=lambda row: row[2:4])


class _RecordingConnection:
    """A sqlite3 connection that records every parameter row it binds."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn
        self.bound: list = []

    def execute(self, sql, params=()):
        self.bound.append(params)
        return self._conn.execute(sql, params)

    def executemany(self, sql, rows):
        rows = list(rows)
        self.bound.extend(rows)
        return self._conn.executemany(sql, rows)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_ingest_binds_plain_tuples_without_nulls():
    rng = random.Random(29)
    for chain in ChainKind:
        first, second = _mutated_lines(rng, chain, 60)
        with Store(":memory:") as store:
            recorder = _RecordingConnection(store._conn)
            with mock.patch.object(store, "_conn", recorder):
                ingest_blocks(first, chain, store)
                summary = ingest_blocks(second, chain, store)
            # rows were loaded and rejected, and rows with NULLs stored
            assert summary.txs_loaded and summary.rejected
            assert any(None in row for row in store.iter_txs(chain))
        assert recorder.bound
        assert [params for params in recorder.bound
                if type(params) is not tuple or None in params] == []


def _mutated_lines(rng: random.Random, chain: ChainKind,
                   n_blocks: int) -> tuple[list[str], list[str]]:
    """(first delivery, second delivery) of a random ledger: the first is
    its lower third as it is; the second is all of it, each record kept,
    changed in one field, given a bad field, moved, repeated or cut
    short."""
    records = []
    for height in range(n_blocks):
        hashes = [h32(0x10000 * height + i) for i in range(rng.randrange(6))]
        block = {"type": "block", "chain": chain.value, "height": height,
                 "hash": h32(0xB00000 + height), "parent": h32(height),
                 "time": 1_438_387_200 + 600 * height, "txs": hashes}
        if chain is ChainKind.NAMECOIN:
            block["auxpow"] = rng.choice([None, False, True])
        if chain is ChainKind.PEERCOIN:
            block["proof"] = rng.choice(["pow", "pos"])
        records.append(block)
        for index, tx_hash in enumerate(hashes):
            tx = {"type": "tx", "chain": chain.value, "hash": tx_hash,
                  "height": height, "index": index,
                  "from": addr(rng.randrange(1, 9)),
                  "to": rng.choice([None, addr(1), addr(2)]),
                  "value": str(rng.randrange(2**70)),
                  "input": rng.choice(["", "00", "6001"]),
                  "fee": rng.choice([None, "0", "7"]),
                  "gas": rng.choice([None, 21000])}
            if chain is ChainKind.NAMECOIN:
                tx["name_op"] = rng.choice([None, _NAME_OP])
            records.append(tx)
    first = [json.dumps(record) for record in records[:len(records) // 3]]
    bad = {"height": -1, "hash": "0xzz", "time": 0, "txs": [1],
           "from": 7, "to": True, "value": "-3", "input": "abc", "gas": 2**63,
           "index": "1", "fee": 1.5, "parent": None, "auxpow": 2,
           "proof": "pos ", "name_op": []}
    second = []
    for record in records:
        kind = rng.choices(["same", "changed", "bad", "moved", "repeated",
                            "cut"], [10, 3, 2, 1, 2, 1])[0]
        key = rng.choice(sorted(set(record) - {"type", "chain"}))
        if kind == "changed":
            record = {**record, key: _CHANGED[key](record[key])}
        elif kind == "bad":
            record = {**record, key: bad[key]}
        elif kind == "moved" and record["type"] == "tx":
            record = {**record, "index": rng.randrange(6)}
        line = json.dumps(record)
        if kind == "cut":
            line = line[:rng.randrange(1, len(line))]
        second.append(line)
        if kind == "repeated":
            second.insert(rng.randrange(max(0, len(second) - 300),
                                        len(second) + 1), line)
    return first, second


def test_thirty_thousand_mutated_lines_store_and_reject_as_per_row():
    rng = random.Random(24)
    mutated = 0
    for chain in ChainKind:
        first, second = _mutated_lines(rng, chain, 2_700)
        mutated += len(second)
        loaded_blocks, loaded_txs, rejected, _, _ = \
            _same_as_the_per_row_rule(chain, first, second)
        # every outcome occurs: loads, conflicts, taken positions, bad lines
        assert loaded_blocks and loaded_txs
        assert {row[1] for row in rejected} >= {
            ConflictingBlock, ConflictingTx, SchemaViolation, MalformedJson}
        assert any(row[2] == "index" and "already held" in row[3]
                   for row in rejected)
    assert mutated >= 30_000


# -- row encoding of ingest ---------------------------------------------------
# The expected rows are built here from the drawn values, in the encoding
# the store uses: amounts as decimal strings, auxpow as 0 or 1,
# the tx hashes as JSON text, the name op as four columns.

@st.composite
def _hex_form(draw, raw: bytes):
    """(raw as record hex in some prefix and case, its normalized hex)."""
    digits = raw.hex()
    prefix = draw(st.sampled_from(["", "0x", "0X"]))
    return prefix + draw(st.sampled_from([digits, digits.upper()])), digits


def _address_form(chain: ChainKind):
    if chain is ChainKind.ETHEREUM:
        return st.binary(min_size=20, max_size=20).flatmap(_hex_form)
    base58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
    return st.text(base58, min_size=1, max_size=34).map(lambda a: (a, a))


@st.composite
def _amount_form(draw):
    """(an amount as a JSON integer or decimal string, its value)."""
    value = draw(st.sampled_from([0, 2**63 - 1, 2**63, 2**64 + 1])
                 | st.integers(0, 2**70))
    return draw(st.sampled_from([value, str(value)])), value


def _maybe(draw, record: dict, key: str, forms, null: bool = True,
           required: bool = False):
    """Set record[key] to the form of a drawn (form, value); unless
    `required`, maybe to null instead if `null`, or leave it absent;
    returns the value, None for null or absent."""
    choice = "set" if required else draw(
        st.sampled_from(["absent", "set"] + ["null"] * null))
    if choice == "absent":
        return None
    if choice == "null":
        record[key] = None
        return None
    form, value = draw(forms)
    record[key] = form
    return value


def _text(min_size: int = 0):
    """(a string, itself), of text that UTF-8 can encode."""
    return st.text(st.characters(blacklist_categories=("Cs",)),
                   min_size=min_size, max_size=8).map(lambda t: (t, t))


@st.composite
def _name_op_form(draw):
    """(a name_op record ingest accepts, its stored (kind, name, name_hash,
    paid_fee) columns): a `new` op has a non-empty name_hash and no name,
    the others a non-empty name."""
    kind = draw(st.sampled_from(NAME_OP_KINDS))
    op = {"kind": kind}
    new = kind == "new"
    name = None if new else _maybe(draw, op, "name", _text(1), required=True)
    name_hash = _maybe(draw, op, "name_hash", _text(1 if new else 0),
                       required=new)
    paid_fee = _maybe(draw, op, "paid_fee", _amount_form(), null=False)
    return op, (kind, name, name_hash, str(paid_fee or 0))


@st.composite
def _encoding_case(draw):
    """(chain, its records, the block rows and the tx rows they stand for);
    every record is one that ingest accepts."""
    chain = draw(st.sampled_from(list(ChainKind)))
    digests = draw(st.lists(st.binary(min_size=32, max_size=32), max_size=5,
                            unique=True))
    records, blocks, txs = [], [], []
    n_blocks = draw(st.integers(1, 2))
    for height in range(n_blocks):
        mine = digests[height::n_blocks]
        forms = [draw(_hex_form(digest)) for digest in mine]
        hash_form, hash_ = draw(_hex_form(draw(st.binary(min_size=32,
                                                         max_size=32))))
        parent_form, parent = draw(_hex_form(draw(st.binary(min_size=32,
                                                            max_size=32))))
        time_ = draw(st.integers(1, 253_402_300_799))
        record = {"type": "block", "chain": chain.value, "height": height,
                  "hash": hash_form, "parent": parent_form, "time": time_}
        if forms or draw(st.booleans()):
            record["txs"] = [form for form, _ in forms]
        auxpow = proof = None
        if chain is ChainKind.NAMECOIN:
            auxpow = _maybe(draw, record, "auxpow",
                            st.booleans().map(lambda b: (b, b)))
        if chain is ChainKind.PEERCOIN:
            proof = _maybe(draw, record, "proof", st.sampled_from(
                ["pow", "pos"]).map(lambda p: (p, p)), required=True)
        records.append(record)
        blocks.append((chain.value, height, hash_, parent, time_,
                       None if auxpow is None else int(auxpow), proof,
                       json.dumps([digits for _, digits in forms])))
        for index, (form, digits) in enumerate(forms):
            sender_form, sender = draw(_address_form(chain))
            record = {"type": "tx", "chain": chain.value, "hash": form,
                      "height": height, "index": index, "from": sender_form}
            recipient = _maybe(draw, record, "to", _address_form(chain))
            value = _maybe(draw, record, "value", _amount_form(), null=False)
            input_ = _maybe(draw, record, "input", st.binary(max_size=8)
                            .flatmap(_hex_form), null=False)
            fee = _maybe(draw, record, "fee", _amount_form())
            gas = _maybe(draw, record, "gas", st.integers(0, 2**63 - 1)
                         .map(lambda g: (g, g)))
            name_op = (_maybe(draw, record, "name_op", _name_op_form())
                       if chain is ChainKind.NAMECOIN else None)
            records.append(record)
            txs.append((chain.value, digits, height, index, sender, recipient,
                        str(value or 0), input_ or "",
                        None if fee is None else str(fee), gas,
                        *(name_op or (None,) * 4)))
    return chain, records, blocks, txs


@given(_encoding_case())
@settings(max_examples=100)
def test_ingest_stores_the_rows_of_the_dataclass_encoding(case):
    chain, records, blocks, txs = case
    with tempfile.TemporaryDirectory() as root:
        with Store(root) as store:
            summary = ingest_blocks(map(json.dumps, records), chain, store,
                                    strict=True)
        assert (summary.blocks_loaded, summary.txs_loaded) \
            == (len(blocks), len(txs))
        with closing(sqlite3.connect(store.path)) as conn:
            stored = (
                conn.execute("SELECT * FROM blocks ORDER BY height").fetchall(),
                conn.execute("SELECT * FROM txs ORDER BY height, idx")
                .fetchall())
    assert stored == (blocks, txs)


def _query_plans(store: Store, read) -> list[str]:
    """The EXPLAIN QUERY PLAN details of each statement `read()` runs."""
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)
    read()
    store._conn.set_trace_callback(None)
    return [" | ".join(row[3] for row in store._conn.execute(
        "EXPLAIN QUERY PLAN " + sql)) for sql in statements]


def test_reads_go_through_the_indexes():
    lines, _ = eth_labeled_fixture()
    store = load_store(lines, ChainKind.ETHEREUM)
    # the creation scan and the nonce count each need their partial index,
    # which a chain bound as ? rather than spelled 'eth' would lose
    [plan] = _query_plans(store, lambda: list(iter_creations(store)))
    assert "USING INDEX eth_creations" in plan
    assert "USING INDEX eth_txs_by_sender" in plan
    # ledger order comes from the UNIQUE (chain, height, idx) index alone
    [plan] = _query_plans(store, lambda: list(
        store.iter_txs(ChainKind.ETHEREUM)))
    assert "USING INDEX sqlite_autoindex_txs_2" in plan
    assert "TEMP B-TREE" not in plan
    [plan] = _query_plans(store, lambda: list(
        store.iter_tx_inputs(ChainKind.ETHEREUM)))
    assert "USING INDEX sqlite_autoindex_txs_2" in plan
    assert "TEMP B-TREE" not in plan
    # so do the name ops, each joined to its block by the primary key
    [plan] = _query_plans(store, lambda: list(store.iter_name_ops()))
    assert "USING INDEX sqlite_autoindex_txs_2" in plan
    assert "TEMP B-TREE" not in plan
    # and the sends to registry addresses, whose order precreation keeps
    addresses = [record.address for record in build_contract_registry(store)]
    [plan] = _query_plans(store, lambda: list(
        store.iter_eth_sends_to(addresses)))
    assert "SEARCH txs USING INDEX sqlite_autoindex_txs_2 (chain=?)" in plan
    assert "SEARCH blocks USING INDEX sqlite_autoindex_blocks_1" \
        " (chain=? AND height=?)" in plan
    assert "TEMP B-TREE" not in plan
    # the monthly counts group txs by block along that index, then look
    # each block up by its primary key
    for read in (store.iter_monthly_eth_classes,
                 lambda: store.iter_monthly_tx_counts(ChainKind.ETHEREUM, 3)):
        [plan] = _query_plans(store, lambda: list(read()))
        assert "INDEX sqlite_autoindex_txs_2 (chain=?" in plan
        assert "SEARCH blocks USING INDEX sqlite_autoindex_blocks_1" in plan
        assert plan.count("TEMP B-TREE") == 1  # for the months alone
    store.close()


# -- field rules of ingest records ------------------------------------------

_ABSENT = object()
_NOT_INTEGERS = [True, 1.5, "1", -1, None, _ABSENT]
_PAST_INT64 = 1 << 63  # one more than an SQLite INTEGER column holds
_PAST_YEAR_9999 = 253402300800  # 10000-01-01T00:00:00Z
# eth records; a field that another chain owns is null on them
_BLOCK = {"type": "block", "chain": "eth", "height": 1, "hash": h32(0xB1),
          "parent": h32(0xB0), "time": 1000, "txs": [h32(1)],
          "auxpow": None, "proof": None}
_TX = {"type": "tx", "chain": "eth", "hash": h32(1), "height": 1, "index": 0,
       "from": "aa" * 20, "to": "bb" * 20, "value": "5", "input": "00",
       "fee": "1", "gas": 21000, "name_op": None}
# each chain-owned field: its chain, and a value of it that ingest accepts
_OWNED = {"auxpow": ("nmc", True), "proof": ("ppc", "pow"),
          "name_op": ("nmc", _NAME_OP)}
_REJECTED = {
    "block": {
        "chain": [True, 1.5, "1", -1, None, "nmc", _ABSENT],
        "height": _NOT_INTEGERS + [_PAST_INT64],
        "time": _NOT_INTEGERS + [0, _PAST_YEAR_9999, _PAST_INT64],
        "hash": _NOT_INTEGERS + ["ab" * 31, "zz" * 32],
        "parent": _NOT_INTEGERS + ["ab" * 31],
        "txs": [True, 1.5, "1", -1, None, [True], ["ab" * 31],
                [h32(1), h32(1)]],
        "auxpow": [1.5, "1", -1, 1],
        "proof": [True, 1.5, "1", -1, "pos "],
    },
    "tx": {
        "chain": [True, 1.5, "1", -1, None, _ABSENT],
        "height": _NOT_INTEGERS + [_PAST_INT64],
        "index": _NOT_INTEGERS + [_PAST_INT64],
        "hash": _NOT_INTEGERS + ["ab" * 31],
        "from": _NOT_INTEGERS + ["", "ab" * 19],
        "to": [True, 1.5, "1", -1, "", "ab" * 19],
        "value": [True, 1.5, -1, None, "-1", "five"],
        "input": [True, 1.5, "1", -1, None, "0xzz"],
        "fee": [True, 1.5, -1, "-1", "five"],
        "gas": [True, 1.5, "1", -1, _PAST_INT64],
        "name_op": [True, 1.5, "1", -1, []],
        "name_op.kind": [True, 1.5, "1", -1, None, "renew", _ABSENT],
        "name_op.name": [True, 1.5, -1],
        # a `new` op commits to a non-empty hash
        "name_op.name_hash": [True, 1.5, -1, None, "", _ABSENT],
        "name_op.paid_fee": [True, 1.5, -1, None, "-1"],
    },
    # the other ops reveal or renew a non-empty name
    "firstupdate tx": {"name_op.name": [None, "", _ABSENT]},
    "update tx": {"name_op.name": [None, "", _ABSENT]},
    "ppc block": {"proof": [None, _ABSENT]},
    # a Namecoin or Peercoin address is any string but the empty one
    "nmc tx": {"from": [""], "to": [""]},
    "ppc tx": {"from": [""], "to": [""]},
}


def _with(record: dict, key: str, value) -> dict:
    """A copy of `record` with `key` (dotted for name_op) set or removed."""
    record = json.loads(json.dumps(record))
    target = record
    *path, last = key.split(".")
    for part in path:
        target = target[part]
    if value is _ABSENT:
        del target[last]
    else:
        target[last] = value
    return record


_BASES = {"block": _BLOCK, "tx": _TX,
          "firstupdate tx": {**_TX, "chain": "nmc", "name_op": {
              **_NAME_OP, "kind": "firstupdate"}},
          "update tx": {**_TX, "chain": "nmc", "name_op": {
              **_NAME_OP, "kind": "update"}},
          "ppc block": _with(_BLOCK, "chain", "ppc"),
          "nmc tx": {**_TX, "chain": "nmc", "from": "n1", "to": "n2"},
          "ppc tx": {**_TX, "chain": "ppc", "from": "p1", "to": "p2"}}


def _case(kind: str, key: str, value) -> tuple[ChainKind, dict]:
    """(chain, `_BASES[kind]` of that chain with `key` set to `value`, or
    removed). A value of a chain-owned field other than null, or of a field
    inside one, is set on a record of the owning chain."""
    base = _BASES[kind]
    field = key.split(".")[0]
    if (field in _OWNED and base[field] is None
            and ("." in key or value not in (None, _ABSENT))):
        chain, valid = _OWNED[field]
        base = {**base, "chain": chain, field: valid}
    return ChainKind(base["chain"]), _with(base, key, value)


@pytest.mark.parametrize("kind, key, value", [
    pytest.param(kind, key, value,
                 id=f"{kind} {key}={'absent' if value is _ABSENT else value!r}")
    for kind, fields in _REJECTED.items()
    for key, values in fields.items() for value in values])
def test_ingest_names_the_rejected_field(kind, key, value):
    chain, record = _case(kind, key, value)
    lines = [block_line(chain.value, 0, 500, proof="pow"
                        if chain is ChainKind.PEERCOIN else None), "",
             json.dumps(record)]
    store = Store(":memory:")
    summary = ingest_blocks(lines, chain, store)
    assert (summary.blocks_loaded, summary.txs_loaded) == (1, 0)
    [rejected] = summary.rejected
    assert isinstance(rejected.error, SchemaViolation)
    assert (rejected.line_no, rejected.error.field) == (3, key)
    with pytest.raises(SchemaViolation) as caught:
        ingest_blocks(lines[2:], chain, store, strict=True)
    assert (caught.value.line_no, caught.value.field) == (1, key)
    store.close()


@pytest.mark.parametrize("kind, key, first, second", [
    ("tx", "value", "123", 123),
    ("tx", "value", _ABSENT, 0),
    ("tx", "to", _ABSENT, None),
    ("tx", "fee", _ABSENT, None),
    ("tx", "fee", "7", 7),
    ("tx", "gas", _ABSENT, None),
    ("tx", "input", _ABSENT, ""),
    ("tx", "input", "0XAB", "ab"),
    ("tx", "from", "0x" + "AA" * 20, "aa" * 20),
    ("tx", "name_op", _ABSENT, None),
    ("tx", "name_op.name", _ABSENT, None),
    ("firstupdate tx", "name_op.name_hash", _ABSENT, None),
    ("tx", "name_op.paid_fee", _ABSENT, 0),
    ("block", "txs", _ABSENT, []),
    ("block", "auxpow", _ABSENT, None),
    ("block", "proof", _ABSENT, None),
    ("block", "hash", "0x" + h32(0xB1).upper(), h32(0xB1)),
], ids=lambda value: "absent" if value is _ABSENT else repr(value))
def test_ingest_field_forms_load_the_same_rows(kind, key, first, second):
    stored = []
    for value in (first, second):
        chain, record = _case(kind, key, value)
        store = Store(":memory:")
        summary = ingest_blocks([json.dumps(record)], chain, store,
                                strict=True)
        assert summary.blocks_loaded + summary.txs_loaded == 1
        stored.append((list(store.iter_blocks(chain)),
                       list(store.iter_txs(chain))))
        store.close()
    assert stored[0] == stored[1]


def test_bool_checks_live_only_in_the_field_readers():
    # a hand-rolled field type check needs isinstance(x, bool) to refuse
    # true/false as a number; every such decision belongs to model's readers
    package = Path(chainlens.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(name, ast.Name) and name.id == "bool"
                            for name in ast.walk(node.args[1]))):
                found.append(f"{path.relative_to(package)}:{node.lineno}")
    assert found == []


def test_block_times_and_period_keys_have_one_owner():
    # Store alone joins txs to block times; model alone turns a time into
    # a month or week, and tally_periods is the one zero-filled tally
    package = Path(chainlens.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_store = {id(node) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and cls.name == "Store"
                    and path == package / "store.py" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            where = f"{path.relative_to(package)}:{getattr(node, 'lineno', 0)}"
            name = getattr(node, "id", getattr(node, "attr",
                                               getattr(node, "name", None)))
            if name == "fill_periods":
                found.append(f"{where} fill_periods")
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called == "block_times" and id(node) not in in_store:
                found.append(f"{where} block_times(")
            if (called in ("month_key", "iso_week_key")
                    and path != package / "model.py"):
                found.append(f"{where} {called}(")
    assert found == []


def test_the_connection_has_one_owner():
    # Store owns every query: no code outside the class reads its _conn
    package = Path(chainlens.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_store = {id(node) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and cls.name == "Store"
                    and path == package / "store.py" for node in ast.walk(cls)}
        found += [f"{path.relative_to(package)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_conn"
                  and id(node) not in in_store]
    assert found == []


def test_ledger_analyses_read_narrow_rows():
    # the eth, nmc and ppc analyses and the payload scan ask the store for
    # the columns and rows they count, never for every decoded tx or block
    # or for txs dated in Python
    package = Path(chainlens.__file__).parent
    chains = sorted((package / "chains").glob("*.py"))
    found, time_tests = [], []
    for path in [*sorted((package / "eth").glob("*.py")), *chains,
                 package / "poison.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.relative_to(package)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", None) in (
                    "iter_txs", "iter_blocks", "iter_dated_txs", "block_times"):
                found.append(f"{where} {node.func.attr}(")
            if path not in chains:
                continue
            if isinstance(node, ast.Name) and node.id in ("Block",
                                                          "Transaction"):
                found.append(f"{where} {node.id}")
            if (isinstance(node, ast.Compare)
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                    and "time" in ast.unparse(node.left)):
                time_tests.append(ast.unparse(node))
    assert found == []
    # the store's joins leave orphans out of each count; the one test of a
    # missing block time is rereg's, whose histories keep an orphan op
    assert time_tests == ["block_time is None"]


def test_store_writes_through_one_rule():
    # one function holds the INSERT, _line_error alone gives an error its
    # line number, and ingest_blocks alone sizes its chunks
    tree = ast.parse((Path(chainlens.__file__).parent / "store.py")
                     .read_text(encoding="utf-8"))
    owner = {}
    for func in ast.walk(tree):  # breadth first: inner functions win
        if isinstance(func, ast.FunctionDef):
            owner.update(dict.fromkeys(map(id, ast.walk(func)), func.name))
    inserts = [owner.get(id(node)) for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and "INSERT" in node.value]
    violations = {owner.get(id(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "SchemaViolation"}
    chunked = {owner.get(id(node)) for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "WRITE_CHUNK"
               and isinstance(node.ctx, ast.Load)}
    assert inserts == ["_put"]
    assert violations == {"_line_error"}
    assert chunked == {"ingest_blocks"}
    # a record is built by the parser alone; a read gives the fetched row
    built = {owner.get(id(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None)
             in ("Block", "Transaction")}
    assert built == {"_parse_block", "_parse_tx"}
    # after its docstring, each put_* is one call of the write rule
    puts = {func.name: [ast.unparse(stmt).split("(")[0]
                        for stmt in func.body[1:]]
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            and func.name in ("put_block", "put_tx")}
    assert puts == {"put_block": ["return self._put"],
                    "put_tx": ["return self._put"]}


def test_record_types_are_the_table_columns(tmp_path):
    # a Block or Transaction is its stored row: its fields are the columns
    with Store(tmp_path) as store:
        path = store.path
    with closing(sqlite3.connect(path)) as conn:
        for record, table in ((Block, "blocks"), (Transaction, "txs")):
            columns = tuple(row[1] for row in
                            conn.execute(f"PRAGMA table_info({table})"))
            assert record._fields == columns


def test_every_error_class_is_raised():
    # an error class that no code constructs or hands on is dead; a name
    # that is only imported or caught does not count
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, ChainLensError)
               and value is not ChainLensError}
    package = Path(chainlens.__file__).parent
    used = set()
    for path in sorted(package.rglob("*.py")):
        if path == package / "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        caught = {id(node) for handler in ast.walk(tree)
                  if isinstance(handler, ast.ExceptHandler) and handler.type
                  for node in ast.walk(handler.type)}
        used |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id in classes
                 and id(node) not in caught}
    assert sorted(classes - used) == []


# -- the CLI's dated counts against the ledger model --------------------------

@given(ledgers.three_chain_ledgers())
@settings(max_examples=50)
def test_dated_txs_match_the_block_time_join(ledger):
    # a tx is dated by its block's time; the txs of heights with no block
    # are the orphans, which summarize counts, no month does, and eth
    # classify reports on its orphans: line
    files, internal, terminated, options = ledger
    model, outputs = ledgers.check_reports(
        (files, internal, terminated, {**options, "cutoff": None}),
        "summarize", "report tx-monthly", "eth classify")
    for chain in ledgers.CHAINS:
        code, months, _ = outputs[f"report tx-monthly --chain {chain}"]
        if code:  # no block: the chain is refused
            continue
        orphans = sum(tx["height"] not in model.blocks[chain]
                      for tx in model.txs[chain].values())
        [_, summary] = ledgers.csv_rows(
            outputs[f"summarize --chain {chain}"][1])
        assert sum(int(n) for _, n in ledgers.csv_rows(months)[1:]) \
            + orphans == int(summary[4])
        if chain == "eth" and outputs["eth classify"][0] == 0:
            assert outputs["eth classify"][2] \
                == ([f"orphans: {orphans}"] if orphans else [])


@given(ledgers.three_chain_ledgers())
@settings(max_examples=80)
def test_monthly_tx_counts_match_the_dated_tally(ledger):
    # with the drawn --cutoff, if any
    ledgers.check_reports(ledger, "report tx-monthly")
