"""Interaction classification and zombie reporting on a labeled ledger."""

import contextlib
import csv
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlens.cli import run_cli
from chainlens.errors import EmptyChain
from chainlens.eth.classify import (TxClass, classify_transaction,
                                    monthly_class_counts, zombie_report)
from chainlens.eth.contracts import build_contract_registry
from chainlens.model import ChainKind, month_key, tally_periods
from chainlens.store import Store

import oracles
from conftest import (SENDER_A, SENDER_B, ZOMBIE_Z1, ZOMBIE_Z2, ZOMBIE_Z3,
                      addr, block_line, eth_labeled_fixture,
                      eth_termination_sidefile, h32, load_store, tx_line)


@pytest.fixture
def labeled():
    lines, labels = eth_labeled_fixture()
    store = load_store(lines, ChainKind.ETHEREUM)
    yield store, labels
    store.close()


def _classify_all(store):
    registry = build_contract_registry(store)
    return {tx.hash: classify_transaction(tx, registry)
            for tx in store.iter_txs(ChainKind.ETHEREUM)}


def test_every_label_matches(labeled):
    store, labels = labeled
    got = _classify_all(store)
    assert len(labels) == 20
    for tx_hash, expected in labels:
        assert got[tx_hash] is expected, tx_hash


def test_class_totals(labeled):
    store, labels = labeled
    counts = Counter(_classify_all(store).values())
    assert counts == {TxClass.ZOMBIE_CREATE: 3,
                      TxClass.CREATE_CONTRACT: 3,
                      TxClass.TO_CONTRACT: 7,
                      TxClass.TO_ACCOUNT: 7}
    assert counts == Counter(cls for _, cls in labels)


def test_termination_does_not_change_class(labeled):
    # dead contracts still classify as contracts
    store, labels = labeled
    registry = build_contract_registry(
        store, terminations=eth_termination_sidefile())
    for tx in store.iter_txs(ChainKind.ETHEREUM):
        assert classify_transaction(tx, registry) is dict(labels)[tx.hash]


def test_monthly_class_counts(labeled):
    store, _ = labeled
    registry = build_contract_registry(store)
    rows = monthly_class_counts(store, registry)
    assert [month for month, _ in rows] == ["2015-08", "2015-09", "2015-10"]
    by_month = dict(rows)
    assert by_month["2015-08"] == {TxClass.ZOMBIE_CREATE: 1,
                                   TxClass.CREATE_CONTRACT: 2,
                                   TxClass.TO_CONTRACT: 2,
                                   TxClass.TO_ACCOUNT: 3}
    assert by_month["2015-09"] == {TxClass.ZOMBIE_CREATE: 1,
                                   TxClass.CREATE_CONTRACT: 1,
                                   TxClass.TO_CONTRACT: 3,
                                   TxClass.TO_ACCOUNT: 3}
    assert by_month["2015-10"] == {TxClass.ZOMBIE_CREATE: 1,
                                   TxClass.CREATE_CONTRACT: 0,
                                   TxClass.TO_CONTRACT: 2,
                                   TxClass.TO_ACCOUNT: 1}
    total = sum(sum(split.values()) for _, split in rows)
    assert total == 20


def test_monthly_counts_empty_chain():
    store = Store(":memory:")
    registry = build_contract_registry(store)
    with pytest.raises(EmptyChain):
        monthly_class_counts(store, registry)
    store.close()


def test_zombie_report(labeled):
    store, _ = labeled
    report = zombie_report(store)
    assert report.count == 3
    assert report.total_balance == 34
    assert report.top_by_balance == [(ZOMBIE_Z3, 21), (ZOMBIE_Z1, 13),
                                     (ZOMBIE_Z2, 0)]
    assert report.per_creator == [(SENDER_A, 2), (SENDER_B, 1)]
    assert report.cdf == [(1, 1), (2, 2), (4, 3)]


def test_zombie_report_top_k(labeled):
    store, _ = labeled
    report = zombie_report(store, top_k=1)
    assert report.top_by_balance == [(ZOMBIE_Z3, 21)]
    assert report.count == 3


# -- the SQL counts against a per-tx reference -------------------------------

_SENDERS = (SENDER_A, SENDER_B)
# few recipients, so drawn sends often reach a contract: the first two
# contracts each sender creates, an --internal contract and an account
_RECIPIENTS = ([oracles.contract_address_oracle(sender, nonce)
                for sender in _SENDERS for nonce in (0, 1)]
               + [addr(0xC1DE), "cc" * 20])
# 2015-08-01, 2015-09-01, 2015-10-01 and 2016-01-01, UTC
_MONTH_EDGES = (1438387200, 1441065600, 1443657600, 1451606400)


def _eth_ledger(heights, internal) -> tuple[list[str], list[str]]:
    """(ledger lines, --internal lines) of a plan: per height, whether its
    block is stored, its time and its txs as (sender, recipient or None,
    input); and internal creations as (recipient, height)."""
    lines = []
    for height, (stored, time, txs) in enumerate(heights):
        hashes = [h32(0xF000 + 8 * height + i) for i in range(len(txs))]
        if stored:
            lines.append(block_line("eth", height, time, hashes))
        lines += [tx_line("eth", tx_hash, height, index, _SENDERS[sender],
                          None if to is None else _RECIPIENTS[to], "1",
                          input_hex)
                  for index, (tx_hash, (sender, to, input_hex))
                  in enumerate(zip(hashes, txs))]
    side = [json.dumps({"type": "internal_create", "address": _RECIPIENTS[to],
                        "parent": SENDER_B, "height": height})
            for to, height in internal]
    return lines, side


_A, _B = 0, 1
_C = 0  # _RECIPIENTS[0], what SENDER_A creates at nonce 0
_INTERNAL = 4
# sends to C before, in and after its creation block on both sides of its
# index, one an orphan; C created again by --internal; a send to an
# --internal contract in its creation block (index -1); month edges
_EXAMPLE = (
    [(True, 1441065600 - 1, [(_B, _C, "")]),
     (True, 1441065600, [(_B, _INTERNAL, ""), (_B, _C, "aa"),
                         (_A, None, "60"), (_B, _C, "")]),
     (False, 1441065600, [(_B, _C, ""), (_A, None, "")]),
     (True, 1443657600 - 1, [(_A, None, ""), (_B, _C, "")])],
    [(_C, 3), (_INTERNAL, 1), (_INTERNAL, 0)])


@st.composite
def _eth_ledger_plans(draw):
    tx = st.tuples(st.sampled_from((_A, _B)),
                   st.none() | st.integers(0, len(_RECIPIENTS) - 1),
                   st.sampled_from(("", "60")))
    time = st.tuples(st.sampled_from(_MONTH_EDGES),
                     st.sampled_from((-1, 0))
                     | st.integers(-20 * 86_400, 20 * 86_400)).map(sum)
    heights = draw(st.lists(st.tuples(st.integers(0, 4).map(bool), time,
                                      st.lists(tx, max_size=4)),
                            min_size=1, max_size=7))
    internal = draw(st.lists(st.tuples(st.integers(0, len(_RECIPIENTS) - 1),
                                       st.integers(0, len(heights))),
                             max_size=3))
    return heights, internal


def _reference_class_counts(store, registry):
    """Each dated tx classified on its own, then tallied."""
    items = ((block_time, classify_transaction(tx, registry), 1)
             for block_time, tx in oracles.dated_txs_reference(
                 store, ChainKind.ETHEREUM))
    return [(month, {cls: counts[cls] for cls in TxClass})
            for month, counts in tally_periods(items, month_key)]


@given(_eth_ledger_plans())
@example(_EXAMPLE)
@settings(max_examples=150, deadline=None)
def test_monthly_class_counts_match_the_per_tx_reference(plan):
    lines, side = _eth_ledger(*plan)
    store = load_store(lines, ChainKind.ETHEREUM)
    try:
        registry = build_contract_registry(store, side)
        if store.block_count(ChainKind.ETHEREUM) == 0:
            with pytest.raises(EmptyChain):
                monthly_class_counts(store, registry)
            return
        assert monthly_class_counts(store, registry) \
            == _reference_class_counts(store, registry)
    finally:
        store.close()


def test_the_example_ledger_covers_every_class():
    lines, side = _eth_ledger(*_EXAMPLE)
    store = load_store(lines, ChainKind.ETHEREUM)
    registry = build_contract_registry(store, side)
    assert monthly_class_counts(store, registry) == [
        ("2015-08", {TxClass.TO_ACCOUNT: 1, TxClass.TO_CONTRACT: 0,
                     TxClass.CREATE_CONTRACT: 0, TxClass.ZOMBIE_CREATE: 0}),
        ("2015-09", {TxClass.TO_ACCOUNT: 1, TxClass.TO_CONTRACT: 3,
                     TxClass.CREATE_CONTRACT: 1, TxClass.ZOMBIE_CREATE: 1})]
    assert store.orphan_count(ChainKind.ETHEREUM) == 2
    store.close()


@given(_eth_ledger_plans())
@example(_EXAMPLE)
@settings(max_examples=40, deadline=None)
def test_class_columns_and_orphans_add_up_to_the_tx_count(plan):
    # every stored tx is in one class column or on the orphans: line
    lines, side = _eth_ledger(*plan)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "ledger.ndjson").write_text("\n".join(lines) + "\n")
        (root / "internal.ndjson").write_text("\n".join(side) + "\n")
        db = ["--db", str(root / "db"), "--out", str(root / "out.csv")]

        def run(*argv) -> tuple[int, str]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli([*db, *argv])
            return code, err.getvalue()

        assert run("ingest", str(root / "ledger.ndjson"),
                   "--chain", "eth")[0] == 0
        code, err = run("eth", "classify", "--internal",
                        str(root / "internal.ndjson"))
        heights, _ = plan
        if not any(stored for stored, _, _ in heights):
            assert code == 2  # no block: EmptyChain
            return
        assert code == 0
        classes = list(csv.reader(io.StringIO(
            (root / "out.csv").read_text())))[1:]
        orphans = sum(not stored for stored, _, txs in heights for _ in txs)
        assert err == (f"orphans: {orphans}\n" if orphans else "")
        assert run("summarize", "--chain", "eth") == (0, "")
        [_, summary] = csv.reader(io.StringIO((root / "out.csv").read_text()))
        assert sum(int(n) for row in classes for n in row[1:]) + orphans \
            == int(summary[4])
