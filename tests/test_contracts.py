"""Contract lifecycle registry: derivation, creations, lifetimes, funding."""

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.errors import MalformedJson, SchemaViolation
from chainlens.eth.classify import (TxClass, classify_transaction,
                                    monthly_class_counts)
from chainlens.eth.contracts import (ContractRecord, ContractRegistry,
                                     CreatorKind, build_contract_registry,
                                     derive_contract_address,
                                     find_precreation_funding, iter_creations,
                                     lifetime_histogram)
from chainlens.model import ChainKind
from chainlens.store import Store, ingest_blocks

from conftest import (CONTRACT_C1, CONTRACT_C2, CONTRACT_C3, ZOMBIE_Z1,
                      ZOMBIE_Z2, ZOMBIE_Z3, SENDER_A, SENDER_B, addr,
                      block_line, eth_internal_sidefile, eth_labeled_fixture,
                      eth_termination_sidefile, h32, load_store, tx_line)
import ledgers
import oracles

# frozen from the independent RLP+Keccak oracle; the first two pairs are
# the classic published example of address derivation
DERIVATION_VECTORS = [
    ("6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0", 0,
     "cd234a471b72ba2f1ccf0a70fcaba648a5eecd8d"),
    ("6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0", 1,
     "343c43a37d37dff08ae8c4a11544c718abb4fcf8"),
    ("156660f5d7870e95f86c6b9e5c27612c23b92d04", 1,
     "5b86ae3b9c4842fa9cd321f643bb26c1cced9b5b"),
    ("06b7eaa990a2bc6ddafdcf30fea4104c4d39fdc4", 256,
     "5e419f36b9bce4ab45ec728aef07494371a485ca"),
    ("bca21468c542806c1e356ba26c1c05bc7f0e7654", 2,
     "10a3a2a8048705c3121c05bcfb90e8e1ec4cc4b6"),
    ("e51352fee2d84bc33d12fbe9b6af506c9d0baaa2", 255,
     "d52457790a3ca0ffc9c3d0caccc7a1c2d88caa63"),
    ("af94aceb9459384ece52baad45954f192f888f58", 1,
     "143af4f3de14d394c0ad7fbbf4448973dcdd01fb"),
    ("058cde5733e93327d8ef98d901328f3fc316f26d", 1,
     "b185f1d59bb339e7216fe7c4f356d14a988e4b4d"),
    ("055e022247a8608830f66eaa69641733d764b8c5", 255,
     "0e68ef9e42fd7592bbd8b1f07c3eeacf09e4893b"),
    ("46b1298d08112f7a834bc26faafa10da4099cb2f", 2,
     "5fc693ac0a37cadb19183201d09e6b8897796b92"),
]


@pytest.mark.parametrize("sender,nonce,expected", DERIVATION_VECTORS)
def test_derivation_vectors(sender, nonce, expected):
    assert derive_contract_address(sender, nonce) == expected
    assert oracles.contract_address_oracle(sender, nonce) == expected


def _fixture_store():
    lines, _ = eth_labeled_fixture()
    return load_store(lines, ChainKind.ETHEREUM)


def test_iter_creations_infers_nonces():
    store = _fixture_store()
    created = {address for _, address in iter_creations(store)}
    assert created == {CONTRACT_C1, CONTRACT_C2, CONTRACT_C3,
                       ZOMBIE_Z1, ZOMBIE_Z2, ZOMBIE_Z3}
    store.close()


def test_registry_records_creations():
    store = _fixture_store()
    registry = build_contract_registry(store)
    record = registry.get(CONTRACT_C1)
    assert record.creation_height == 0
    assert record.creator == SENDER_A
    assert record.creator_kind is CreatorKind.BY_TRANSACTION
    # a creation with empty code still registers a contract
    assert registry.get(ZOMBIE_Z3).creator_kind is CreatorKind.BY_TRANSACTION
    store.close()


def test_created_before_uses_block_and_index():
    store = _fixture_store()
    registry = build_contract_registry(store)
    # C3 is created at (3, 0)
    assert registry.created_before(CONTRACT_C3, 3, 1)
    assert not registry.created_before(CONTRACT_C3, 3, 0)
    assert not registry.created_before(CONTRACT_C3, 2, 5)
    assert registry.created_before(CONTRACT_C3, 4, 0)
    store.close()


def test_internal_creations_join_registry():
    store = _fixture_store()
    registry = build_contract_registry(
        store, internal_creations=eth_internal_sidefile())
    record = registry.get(addr(0xC1DE))
    assert record.creator_kind is CreatorKind.BY_CONTRACT
    assert record.creator == CONTRACT_C1
    assert record.creation_index == -1
    # an internal creation at height h precedes every tx in that block
    assert registry.created_before(addr(0xC1DE), 2, 0)
    store.close()


def test_terminations_and_lifetimes():
    store = _fixture_store()
    registry = build_contract_registry(
        store, terminations=eth_termination_sidefile())
    assert registry.get(CONTRACT_C1).termination_height == 5
    assert registry.get(CONTRACT_C3).termination_height == 4
    histogram = lifetime_histogram(registry)
    assert histogram == {"<=100": 2, "<=10000": 0, ">10000": 0}
    store.close()


def test_lifetime_histogram_empty_when_nothing_dies():
    store = _fixture_store()
    registry = build_contract_registry(store)
    assert lifetime_histogram(registry) == {}
    store.close()


def test_termination_before_creation_is_fatal():
    store = _fixture_store()
    bad = [json.dumps({"type": "terminate", "address": CONTRACT_C3,
                       "height": 1})]
    with pytest.raises(SchemaViolation):
        build_contract_registry(store, terminations=bad)
    store.close()


def test_repeated_termination_must_keep_its_height():
    # C1 dies at 5: a second line saying 5 again is a no-op, one saying
    # 500 names its line instead of moving the lifetime to <=10000
    store = _fixture_store()
    kills = eth_termination_sidefile()
    registry = build_contract_registry(store, terminations=kills + kills[:1])
    assert registry.get(CONTRACT_C1).termination_height == 5
    assert lifetime_histogram(registry)["<=100"] == 2
    later = json.dumps({"type": "terminate", "address": CONTRACT_C1,
                        "height": 500})
    with pytest.raises(SchemaViolation) as caught:
        build_contract_registry(store, terminations=kills + [later])
    assert (caught.value.line_no, caught.value.field) == (3, "height")
    store.close()


def test_termination_of_unknown_contract_ignored():
    store = _fixture_store()
    orphan = [json.dumps({"type": "terminate", "address": addr(0xFEED),
                          "height": 3})]
    registry = build_contract_registry(store, terminations=orphan)
    assert registry.get(addr(0xFEED)) is None
    store.close()


def test_side_file_errors_keep_file_line_numbers():
    store = _fixture_store()
    kill = json.dumps({"type": "terminate", "address": CONTRACT_C1,
                       "height": 5})
    with pytest.raises(MalformedJson) as caught:
        build_contract_registry(store, terminations=["", kill, "  ", "{oops"])
    assert caught.value.line_no == 4
    no_height = json.dumps({"type": "terminate", "address": CONTRACT_C1})
    with pytest.raises(SchemaViolation) as caught:
        build_contract_registry(store, terminations=["", "", no_height])
    assert caught.value.line_no == 3
    store.close()


@pytest.mark.parametrize("side, record, field", [
    ("internal_creations", {"type": "internal_create", "parent": CONTRACT_C1,
                            "height": 3}, "address"),
    ("internal_creations", {"type": "internal_create", "address": addr(7),
                            "parent": "0x1234", "height": 3}, "parent"),
    ("internal_creations", {"type": "internal_create", "address": addr(7),
                            "parent": CONTRACT_C1}, "height"),
    ("terminations", {"type": "terminate", "address": 5, "height": 3},
     "address"),
    ("terminations", {"type": "terminate", "address": CONTRACT_C1,
                      "height": None}, "height"),
], ids=["internal address", "internal parent", "internal height",
        "terminate address", "terminate height"])
def test_side_file_errors_name_the_field(side, record, field):
    store = _fixture_store()
    with pytest.raises(SchemaViolation) as caught:
        build_contract_registry(store, **{side: ["", json.dumps(record)]})
    assert (caught.value.line_no, caught.value.field) == (2, field)
    store.close()


def test_side_file_line_must_be_an_object():
    store = _fixture_store()
    with pytest.raises(SchemaViolation) as caught:
        build_contract_registry(store, internal_creations=["", "[1, 2]"])
    assert (caught.value.line_no, caught.value.field) == (2, "type")
    store.close()


def test_precreation_funding():
    store = _fixture_store()
    _, labels = eth_labeled_fixture()
    registry = build_contract_registry(store)
    hits = find_precreation_funding(store, registry)
    # exactly tx 4: pays 5 toward C2 one block before its creation
    assert hits == [(labels[3][0], CONTRACT_C2, 1)]
    store.close()


def test_precreation_orders_sends_in_the_creation_block_by_index():
    # C is created at (1, 2): the sends at (1, 0) and (1, 1) precede it, as
    # classify says (to_account), and the send at (1, 3) follows it; an
    # internal creation at height 2 precedes the send at (2, 0). The orphan
    # at height 0 pays C before its creation, and the send at (1, 0) pays
    # nothing.
    c = oracles.contract_address_oracle(SENDER_A, 0)
    orphan, unpaid = h32(0x05), h32(0x0F)
    sends = [h32(0x10), h32(0x12), h32(0x20)]
    store = load_store([
        tx_line("eth", orphan, 0, 0, SENDER_B, c, "4"),
        block_line("eth", 1, 1_438_387_200,
                   [unpaid, sends[0], h32(0x11), sends[1]]),
        tx_line("eth", unpaid, 1, 0, SENDER_B, c, "0"),
        tx_line("eth", sends[0], 1, 1, SENDER_B, c, "5"),
        tx_line("eth", h32(0x11), 1, 2, SENDER_A, None, "0", "60"),
        tx_line("eth", sends[1], 1, 3, SENDER_B, c, "6"),
        block_line("eth", 2, 1_438_387_201, [sends[2]]),
        tx_line("eth", sends[2], 2, 0, SENDER_B, addr(0xC1DE), "7")],
        ChainKind.ETHEREUM)
    registry = build_contract_registry(store, [json.dumps(
        {"type": "internal_create", "address": addr(0xC1DE),
         "parent": c, "height": 2})])
    assert find_precreation_funding(store, registry) == [(orphan, c, 1),
                                                         (sends[0], c, 1)]
    assert [classify_transaction(tx, registry)
            for tx in store.iter_txs(ChainKind.ETHEREUM)
            if tx.hash in sends] == [TxClass.TO_ACCOUNT, TxClass.TO_CONTRACT,
                                     TxClass.TO_CONTRACT]
    # the orphan is in no month, but in the `orphans: N` that classify
    # prints; the unpaid send is to_account
    assert monthly_class_counts(store, registry) == [("2015-08", {
        TxClass.TO_ACCOUNT: 2, TxClass.TO_CONTRACT: 2,
        TxClass.CREATE_CONTRACT: 1, TxClass.ZOMBIE_CREATE: 0})]
    assert store.orphan_count(ChainKind.ETHEREUM) == 1
    store.close()


def test_duplicate_registration_keeps_first():
    registry = ContractRegistry()
    first = ContractRecord(address=addr(1), creation_height=1,
                           creator=addr(2),
                           creator_kind=CreatorKind.BY_TRANSACTION)
    second = ContractRecord(address=addr(1), creation_height=9,
                            creator=addr(3),
                            creator_kind=CreatorKind.BY_CONTRACT)
    registry.add(first)
    registry.add(second)
    assert registry.get(addr(1)).creation_height == 1


def test_duplicate_registration_keeps_the_earliest_in_either_order(caplog):
    # the later creation arrives first; the earlier one still wins, and at
    # one height the lower index does
    later = ContractRecord(address=addr(1), creation_height=9,
                           creator=addr(3),
                           creator_kind=CreatorKind.BY_CONTRACT)
    earlier = ContractRecord(address=addr(1), creation_height=1,
                             creator=addr(2),
                             creator_kind=CreatorKind.BY_TRANSACTION,
                             creation_index=0)
    registry = ContractRegistry()
    registry.add(later)
    with caplog.at_level("WARNING"):
        registry.add(earlier)
    assert registry.get(addr(1)) is earlier
    assert f"contract {addr(1)} created twice (heights 9, 1); keeping the " \
           "one at height 1" in caplog.text
    internal = ContractRecord(address=addr(1), creation_height=1,
                              creator=addr(4),
                              creator_kind=CreatorKind.BY_CONTRACT)
    registry.add(internal)  # index -1: before any tx of height 1
    assert registry.get(addr(1)) is internal
    registry.add(earlier)
    assert registry.get(addr(1)) is internal


def test_an_earlier_internal_creation_listed_later_makes_a_contract():
    # --internal lines at heights 1 and then 0: the send at (0, 0) reaches
    # a contract created at height 0, before any tx of that block
    target = addr(0xC1DE)
    lines = [block_line("eth", 0, 1_438_387_200, [h32(1)]),
             tx_line("eth", h32(1), 0, 0, SENDER_A, target, "1"),
             block_line("eth", 1, 1_438_387_260)]
    side = [json.dumps({"type": "internal_create", "address": target,
                        "parent": SENDER_B, "height": height})
            for height in (1, 0)]
    store = load_store(lines, ChainKind.ETHEREUM)
    try:
        registry = build_contract_registry(store, side)
        assert registry.get(target).creation_height == 0
        [tx] = store.iter_txs(ChainKind.ETHEREUM)
        assert classify_transaction(tx, registry) is TxClass.TO_CONTRACT
        assert monthly_class_counts(store, registry) == [
            ("2015-08", {TxClass.TO_ACCOUNT: 0, TxClass.TO_CONTRACT: 1,
                         TxClass.CREATE_CONTRACT: 0,
                         TxClass.ZOMBIE_CREATE: 0})]
    finally:
        store.close()


def test_lifetime_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        lifetime_histogram(ContractRegistry(), bucket_edges=(100, 100))


@st.composite
def _creation_chain(draw):
    """A random eth chain as two deliveries, later heights first; NDJSON
    lines of Namecoin txs from the same senders with no recipient; and the
    (tx hash, sender, nonce) of each eth creation in ledger order.

    The block of a height is sometimes never stored: its txs are orphans,
    which still count toward their sender's nonce.
    """
    senders = [addr(0x5E00 + i) for i in range(draw(st.integers(1, 4)))]
    n_heights = draw(st.integers(1, 6))
    split = draw(st.integers(0, n_heights))
    early, late, nmc, creations, nonces = [], [], [], [], {}
    for height in range(n_heights):
        hashes, txs = [], []
        for index in range(draw(st.integers(0, 8))):
            sender = draw(st.sampled_from(senders))
            to = draw(st.one_of(st.none(), st.sampled_from(senders)))
            tx_hash = h32(0x7000 + 100 * height + index)
            hashes.append(tx_hash)
            txs.append(tx_line("eth", tx_hash, height, index, sender, to))
            nonce = nonces.get(sender, 0)
            nonces[sender] = nonce + 1
            if to is None:
                creations.append((tx_hash, sender, nonce))
        if draw(st.integers(0, 3)):  # else the txs of this height are orphans
            txs.insert(0, block_line("eth", height,
                                     1_438_387_200 + 600 * height, hashes))
        (early if height < split else late).extend(txs)
        if draw(st.booleans()):
            nmc_hash = h32(0x9000 + height)
            nmc += [block_line("nmc", height, 1_438_387_200 + 600 * height,
                               [nmc_hash]),
                    tx_line("nmc", nmc_hash, height, 0,
                            draw(st.sampled_from(senders)), None)]
    return [late, early], nmc, creations


@given(_creation_chain())
@settings(max_examples=60)
def test_iter_creations_matches_scalar_derivation(chain):
    deliveries, nmc_lines, creations = chain
    store = Store(":memory:")
    for lines in deliveries:
        ingest_blocks(lines, ChainKind.ETHEREUM, store, strict=True)
    ingest_blocks(nmc_lines, ChainKind.NAMECOIN, store, strict=True)
    derived = [(tx.hash, address) for tx, address in iter_creations(store)]
    store.close()
    assert derived == [(tx_hash, derive_contract_address(sender, nonce))
                       for tx_hash, sender, nonce in creations]
    assert derived == [(tx_hash, oracles.contract_address_oracle(sender, nonce))
                       for tx_hash, sender, nonce in creations]


def test_iter_creations_after_the_indexes_are_dropped(tmp_path):
    # a store file written before the partial indexes existed (it still has
    # the old index txs_by_height) gets them back when it is opened
    lines, _ = eth_labeled_fixture()
    with Store(tmp_path) as store:
        ingest_blocks(lines, ChainKind.ETHEREUM, store, strict=True)
        expected = [(tx.hash, address) for tx, address in iter_creations(store)]
    conn = sqlite3.connect(tmp_path / "chainlens.sqlite")
    conn.executescript(
        "DROP INDEX eth_txs_by_sender; DROP INDEX eth_creations;"
        " CREATE INDEX txs_by_height ON txs (chain, height, idx);")
    conn.close()
    with Store(tmp_path) as store:
        derived = [(tx.hash, address) for tx, address in iter_creations(store)]
    assert len(expected) == 6
    assert derived == expected


def test_iter_creations_without_creations():
    lines = [block_line("eth", 0, 1_438_387_200, [h32(1)]),
             tx_line("eth", h32(1), 0, 0, SENDER_A, SENDER_B, value="5")]
    store = load_store(lines, ChainKind.ETHEREUM)
    assert list(iter_creations(store)) == []
    store.close()


@pytest.mark.parametrize("height", [True, 1.5, "1", -1],
                         ids=["bool", "fraction", "string", "negative"])
@pytest.mark.parametrize("kind", ["internal_create", "terminate"])
def test_side_file_height_must_be_a_natural_integer(kind, height):
    store = _fixture_store()
    record = {"type": kind, "address": CONTRACT_C1, "height": height}
    if kind == "internal_create":
        record.update(address=addr(0xC1DE), parent=CONTRACT_C1)
    side = {"internal_create": "internal_creations",
            "terminate": "terminations"}[kind]
    with pytest.raises(SchemaViolation) as caught:
        build_contract_registry(store, **{side: ["", json.dumps(record)]})
    assert caught.value.line_no == 2 and "height" in str(caught.value)
    store.close()


@given(ledgers.three_chain_ledgers())
@settings(max_examples=60)
def test_precreation_funding_matches_the_decoded_ledger(ledger):
    # the model decodes every stored eth tx and orders each paying send
    # and its contract's creation by (height, index)
    ledgers.check_reports(ledger, "eth precreation")
