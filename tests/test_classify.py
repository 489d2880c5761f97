"""Interaction classification and zombie reporting on a labeled ledger."""

from collections import Counter

import pytest
from hypothesis import example, given, settings

from chainlens.errors import EmptyChain
from chainlens.eth.classify import (TxClass, classify_transaction,
                                    monthly_class_counts, zombie_report)
from chainlens.eth.contracts import build_contract_registry
from chainlens.model import ChainKind
from chainlens.store import Store

import ledgers
from conftest import (SENDER_A, SENDER_B, ZOMBIE_Z1, ZOMBIE_Z2, ZOMBIE_Z3,
                      eth_labeled_fixture, eth_termination_sidefile,
                      load_store)


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


# -- the CLI's counts against the ledger model --------------------------------

@given(ledgers.three_chain_ledgers())
@example(ledgers.EXAMPLE)
@settings(max_examples=150)
def test_monthly_class_counts_match_the_per_tx_reference(ledger):
    # the model classifies each stored tx on its own, then tallies
    ledgers.check_reports(ledger, "eth classify")


@given(ledgers.three_chain_ledgers())
@example(ledgers.EXAMPLE)
@settings(max_examples=40)
def test_class_columns_and_orphans_add_up_to_the_tx_count(ledger):
    # every stored eth tx is in one class column or on the orphans: line
    files, internal, terminated, options = ledger
    _, outputs = ledgers.check_reports(
        (files, internal, terminated, {**options, "cutoff": None}),
        "eth classify", "summarize --chain eth")
    code, classes, notes = outputs["eth classify"]
    if code:  # no eth block, or a side-file the model also refuses
        return
    orphans = sum(int(note.removeprefix("orphans: ")) for note in notes)
    [_, summary] = ledgers.csv_rows(outputs["summarize --chain eth"][1])
    assert sum(int(n) for row in ledgers.csv_rows(classes)[1:]
               for n in row[1:]) + orphans == int(summary[4])
