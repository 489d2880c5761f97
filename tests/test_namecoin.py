"""Name-operation fee accounting, merge-mine splits, re-registrations."""

from datetime import date, datetime, timezone

import pytest
from hypothesis import example, given, settings

from chainlens.chains.namecoin import (FeeSchedule, build_name_histories,
                                       detect_reregistrations,
                                       merge_mine_split, weekly_fee_sums)
from chainlens.errors import AuxPowBeforeActivation, EmptyChain
from chainlens.model import ChainKind
from chainlens.store import Store

import ledgers
from conftest import block_line, h32, load_store, tx_line

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


@given(ledgers.three_chain_ledgers())
@example(ledgers.EXAMPLE)
@settings(max_examples=150)
def test_ledger_reports_match_the_per_row_references(ledger):
    # the model reads the nmc and ppc ledgers row by row, orphans included
    ledgers.check_reports(ledger, "nmc", "ppc")
