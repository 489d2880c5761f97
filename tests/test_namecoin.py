"""Name-operation fee accounting, merge-mine splits, re-registrations."""

from datetime import date, datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlens.chains.namecoin import (FeeSchedule, build_name_histories,
                                       detect_reregistrations,
                                       merge_mine_split, weekly_fee_sums)
from chainlens.chains.peercoin import pos_pow_counts
from chainlens.errors import AuxPowBeforeActivation, EmptyChain
from chainlens.model import NAME_OP_KINDS, ChainKind, utc_date
from chainlens.store import Store, ingest_blocks

import oracles
from conftest import block_line, h32, load_store, outcome, tx_line

NMC = UNITS = 10**8


def _ts(year, month, day):
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp())


def name_op(kind, paid_fee, name=None, name_hash=None):
    op = {"kind": kind, "paid_fee": str(paid_fee)}
    if name is not None:
        op["name"] = name
    if name_hash is not None:
        op["name_hash"] = name_hash
    return op


def nmc_fixture():
    """Five blocks straddling the merge-mining activation height.

    Weeks: 2011-W18 (May 2-3), W19 (May 9), W20 (May 16-17); the
    re-registration day is 2011-05-17.
    """
    t = [h32(0xA000 + i) for i in range(10)]
    lines = [
        block_line("nmc", 19200, _ts(2011, 5, 2), [t[1], t[2]]),
        block_line("nmc", 19201, _ts(2011, 5, 3), [t[3]], auxpow=True),
        block_line("nmc", 19202, _ts(2011, 5, 9), [t[4], t[5]], auxpow=False),
        block_line("nmc", 19203, _ts(2011, 5, 16), [t[6]], auxpow=True),
        block_line("nmc", 19204, _ts(2011, 5, 17), [t[7], t[8], t[9]]),
        tx_line("nmc", t[1], 19200, 0, "n1sender", None, "0",
                name_op=name_op("new", 1_000_000, name_hash="ab" * 16)),
        tx_line("nmc", t[2], 19200, 1, "n1sender", "n2dest", "5" + "0" * 8),
        tx_line("nmc", t[3], 19201, 0, "n1sender", None, "0",
                name_op=name_op("firstupdate", 3_000_000, name="d/alpha")),
        tx_line("nmc", t[4], 19202, 0, "n1sender", None, "0",
                name_op=name_op("update", 500_000, name="d/alpha")),
        tx_line("nmc", t[5], 19202, 1, "n3sender", None, "0",
                name_op=name_op("new", 1_000_000, name_hash="cd" * 16)),
        tx_line("nmc", t[6], 19203, 0, "n3sender", None, "0",
                name_op=name_op("firstupdate", 700_000, name="d/beta")),
        tx_line("nmc", t[7], 19204, 0, "n4sender", None, "0",
                name_op=name_op("firstupdate", 600_000, name="d/alpha")),
        tx_line("nmc", t[8], 19204, 1, "n4sender", None, "0",
                name_op=name_op("firstupdate", 800_000, name="d/beta")),
        tx_line("nmc", t[9], 19204, 2, "n4sender", None, "0",
                name_op=name_op("firstupdate", 900_000, name="d/gamma")),
    ]
    return lines


@pytest.fixture
def nmc_store():
    store = load_store(nmc_fixture(), ChainKind.NAMECOIN)
    yield store
    store.close()


def test_weekly_fee_sums_zero_filled(nmc_store):
    rows = weekly_fee_sums(nmc_store)
    assert rows == [
        ("2011-W18", "new", 1_000_000),
        ("2011-W18", "firstupdate", 3_000_000),
        ("2011-W18", "update", 0),
        ("2011-W19", "new", 1_000_000),
        ("2011-W19", "firstupdate", 0),
        ("2011-W19", "update", 500_000),
        ("2011-W20", "new", 0),
        ("2011-W20", "firstupdate", 3_000_000),
        ("2011-W20", "update", 0),
    ]


def test_weekly_fee_sums_empty():
    store = Store(":memory:")
    assert weekly_fee_sums(store) == []
    store.close()


def test_merge_mine_split_counts(nmc_store):
    split = merge_mine_split(nmc_store)
    assert split.rows == {"blocks": (3, 2),
                          "txs": (7, 2),
                          "name_new": (2, 0),
                          "name_firstupdate": (3, 2),
                          "name_update": (1, 0)}
    assert sum(split.rows["txs"]) == 9
    assert split.merged_pct("blocks") == pytest.approx(40.0)
    assert split.merged_pct("name_update") == 0.0


def test_merge_mine_split_skips_orphans():
    # an orphan firstupdate: its block at height 19199 is not stored
    orphan = tx_line("nmc", h32(0xA0FF), 19199, 0, "n5sender", None, "0",
                     name_op=name_op("firstupdate", 400_000, name="d/delta"))
    store = load_store(nmc_fixture() + [orphan], ChainKind.NAMECOIN)
    split = merge_mine_split(store)
    assert split.rows["txs"] == (7, 2)
    assert split.rows["name_firstupdate"] == (3, 2)
    store.close()


def test_merge_mine_split_rejects_early_auxpow():
    lines = [block_line("nmc", 100, _ts(2011, 5, 2), [], auxpow=True)]
    store = load_store(lines, ChainKind.NAMECOIN)
    with pytest.raises(AuxPowBeforeActivation):
        merge_mine_split(store)
    store.close()


def test_merge_mine_split_empty_chain():
    store = Store(":memory:")
    with pytest.raises(EmptyChain):
        merge_mine_split(store)
    store.close()


def test_name_histories(nmc_store):
    histories = build_name_histories(nmc_store)
    assert set(histories) == {"d/alpha", "d/beta", "d/gamma"}
    assert [(h, k) for h, k, _ in histories["d/alpha"]] == \
        [(19201, "firstupdate"), (19202, "update"), (19204, "firstupdate")]


def test_reregistration_detection(nmc_store):
    # a renewal at 19202 then a new registration at 19204: a one-block
    # expiry window makes d/alpha lapse first, d/beta not
    schedule = FeeSchedule(expiry_window_blocks=1)
    report = detect_reregistrations(nmc_store, schedule, date(2011, 5, 17))
    assert report.firstupdates_on_day == 3
    assert report.reregistrations == [("d/alpha", [19201])]
    assert report.anomalies == [("d/beta", [19203])]


def test_reregistration_wide_window_flags_anomaly(nmc_store):
    schedule = FeeSchedule(expiry_window_blocks=10)
    report = detect_reregistrations(nmc_store, schedule, date(2011, 5, 17))
    assert report.reregistrations == []
    assert sorted(name for name, _ in report.anomalies) == \
        ["d/alpha", "d/beta"]


def test_reregistration_quiet_day(nmc_store):
    report = detect_reregistrations(nmc_store, FeeSchedule(),
                                    date(2011, 5, 9))
    assert report.firstupdates_on_day == 0
    assert report.reregistrations == [] and report.anomalies == []


def test_orphan_name_ops():
    # the txs at height 19201 have no stored block
    t = [h32(0xC000 + i) for i in range(3)]
    lines = [
        block_line("nmc", 19200, _ts(2011, 5, 2), [t[0]]),
        block_line("nmc", 19204, _ts(2011, 5, 17), [t[2]]),
        tx_line("nmc", t[0], 19200, 0, "n1", None, "0",
                name_op=name_op("new", 1_000_000, name_hash="ab" * 16)),
        tx_line("nmc", t[1], 19201, 0, "n1", None, "0",
                name_op=name_op("firstupdate", 3_000_000, name="d/alpha")),
        tx_line("nmc", t[2], 19204, 0, "n1", None, "0",
                name_op=name_op("firstupdate", 600_000, name="d/alpha")),
    ]
    store = load_store(lines, ChainKind.NAMECOIN)
    # fees skip the orphan: 2011-W19 holds nothing
    assert weekly_fee_sums(store) == [
        ("2011-W18", "new", 1_000_000), ("2011-W18", "firstupdate", 0),
        ("2011-W19", "new", 0), ("2011-W19", "firstupdate", 0),
        ("2011-W20", "new", 0), ("2011-W20", "firstupdate", 600_000)]
    # an orphan registration still precedes the later one
    report = detect_reregistrations(store, FeeSchedule(expiry_window_blocks=1),
                                    date(2011, 5, 17))
    assert (report.firstupdates_on_day, report.reregistrations) == \
        (1, [("d/alpha", [19201])])
    store.close()


_LAST = 253_402_300_799  # 9999-12-31T23:59:59Z, the last block time


def _at(text: str) -> int:
    return int(datetime.fromisoformat(text).replace(
        tzinfo=timezone.utc).timestamp())


# the moments near which one drawn ledger's blocks fall: a span of weeks,
# not of millennia. ISO week 2015-W53 with a month edge inside it; a month
# edge and a Saturday of 2011; December 9999 up to the last block time
_ERAS = [
    [_at("2015-12-28T00:00:00"), _at("2016-01-01T00:00:00"),
     _at("2016-01-04T00:00:00")],
    [_at("2011-04-30T12:00:00"), _at("2011-05-01T00:00:00"),
     _at("2011-05-07T12:00:00")],
    [_at("9999-11-30T23:59:59"), _at("9999-12-25T12:00:00"),
     _at("9999-12-27T00:00:00"), _LAST],
]


def _op_line(tx_hash, height, index, op) -> str:
    """An nmc tx line; `op` is None or (kind, name or None, paid fee)."""
    extra = {}
    if op is not None:
        kind, name, fee = op
        extra["name_op"] = name_op(kind, fee, name,
                                   "ab" * 16 if kind == "new" else None)
    return tx_line("nmc", tx_hash, height, index, "n1", None, "0", **extra)


@st.composite
def _nmc_ppc_ledgers(draw):
    """nmc lines at heights from 0 or from just below the merge-mining
    activation, some of them orphans, each block with or without auxpow;
    ppc lines; an expiry window and a day that a drawn nmc block falls on."""
    era = draw(st.sampled_from(_ERAS))
    time = st.tuples(st.sampled_from(era), st.sampled_from([-1, 0, 1])
                     | st.integers(-9 * 86_400, 9 * 86_400)).map(
        lambda pair: min(sum(pair), _LAST))
    op = st.none() | st.tuples(
        st.sampled_from(NAME_OP_KINDS), st.sampled_from(["d/a", "d/b"]),
        st.sampled_from([0, 1, 500_000, 2**64])).flatmap(
        lambda op: st.sampled_from([op, (op[0], None, op[2])])
        if op[0] == "new" else st.just(op))
    base = draw(st.sampled_from([0, 19_195]))
    heights = draw(st.lists(st.tuples(
        st.integers(0, 3), st.sampled_from([None, False, True]), time,
        st.lists(op, max_size=3)), max_size=8))
    nmc, days = [], [date(2011, 5, 7)]
    for offset, (stored, auxpow, block_time, ops) in enumerate(heights):
        height = base + offset
        hashes = [h32(0xF000 + 4 * offset + index)
                  for index in range(len(ops))]
        if stored:  # else its txs are orphans
            tag = {} if auxpow is None else {"auxpow": auxpow}
            nmc.append(block_line("nmc", height, block_time, hashes, **tag))
            days.append(utc_date(block_time))
        nmc += [_op_line(tx_hash, height, index, tx_op)
                for index, (tx_hash, tx_op) in enumerate(zip(hashes, ops))]
    ppc = [block_line("ppc", height, block_time, [], proof=proof)
           for height, (block_time, proof) in enumerate(draw(st.lists(
               st.tuples(time, st.sampled_from(["pos", "pow"])),
               max_size=6)))]
    return nmc, ppc, draw(st.integers(0, 8)), draw(st.sampled_from(days))


# d/a: an orphan registration at 19,195, lapsed at 19,199 (a one-block
# window), then registered again inside the window at 19,200; d/b: a
# renewal with no registration before it, then a first one at 19,200. The
# blocks carry no auxpow, false and true on both sides of 19,200, and the
# ppc blocks straddle a month edge
_EXAMPLE = (
    [_op_line(h32(0xF000), 19_195, 0, ("firstupdate", "d/a", 7)),
     block_line("nmc", 19_196, _at("2011-04-30T12:00:00"), [h32(0xF004)]),
     _op_line(h32(0xF004), 19_196, 0, ("update", "d/b", 3)),
     block_line("nmc", 19_197, _at("2011-05-01T00:00:00"), [h32(0xF008)],
                auxpow=False),
     _op_line(h32(0xF008), 19_197, 0, ("new", None, 2**64)),
     block_line("nmc", 19_199, _at("2011-05-07T12:00:00"), [h32(0xF010)]),
     _op_line(h32(0xF010), 19_199, 0, ("firstupdate", "d/a", 5)),
     block_line("nmc", 19_200, _at("2011-05-07T13:00:00"),
                [h32(0xF014), h32(0xF015)], auxpow=True),
     _op_line(h32(0xF014), 19_200, 0, ("firstupdate", "d/a", 1)),
     _op_line(h32(0xF015), 19_200, 1, ("firstupdate", "d/b", 0))],
    [block_line("ppc", 0, _at("2011-04-30T23:59:59"), [], proof="pow"),
     block_line("ppc", 1, _at("2011-05-01T00:00:00"), [], proof="pos")],
    1, date(2011, 5, 7))


@given(_nmc_ppc_ledgers())
@example(_EXAMPLE)
@settings(max_examples=150, deadline=None)
def test_ledger_reports_match_the_per_row_references(ledger):
    # the same rows, or the same error class and message, as the reports
    # that decoded every row and skipped orphans in Python
    nmc, ppc, window, day = ledger
    store = load_store(nmc, ChainKind.NAMECOIN)
    try:
        ingest_blocks(ppc, ChainKind.PEERCOIN, store, strict=True)
        schedule = FeeSchedule(expiry_window_blocks=window)
        for report, reference, args in [
                (weekly_fee_sums, oracles.weekly_fee_sums_reference, ()),
                (merge_mine_split, oracles.merge_mine_split_reference, ()),
                (build_name_histories,
                 oracles.build_name_histories_reference, ()),
                (detect_reregistrations,
                 oracles.detect_reregistrations_reference, (schedule, day)),
                (pos_pow_counts, oracles.pos_pow_counts_reference, ())]:
            assert outcome(report, store, *args) \
                == outcome(reference, store, *args), report.__name__
    finally:
        store.close()
