"""Proof-of-stake vs proof-of-work monthly block counts."""

from datetime import datetime, timezone

import pytest

from chainlens.chains.peercoin import pos_pow_counts
from chainlens.errors import EmptyChain, SchemaViolation
from chainlens.model import ChainKind
from chainlens.store import Store, ingest_blocks

from conftest import block_line, load_store


def _ts(year, month, day):
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp())


def _ppc_store():
    # 2012-09: 2 pow + 1 pos; 2012-10: empty; 2012-11: 3 pos
    lines = [
        block_line("ppc", 0, _ts(2012, 9, 1), [], proof="pow"),
        block_line("ppc", 1, _ts(2012, 9, 10), [], proof="pos"),
        block_line("ppc", 2, _ts(2012, 9, 20), [], proof="pow"),
        block_line("ppc", 3, _ts(2012, 11, 2), [], proof="pos"),
        block_line("ppc", 4, _ts(2012, 11, 12), [], proof="pos"),
        block_line("ppc", 5, _ts(2012, 11, 30), [], proof="pos"),
    ]
    return load_store(lines, ChainKind.PEERCOIN)


def test_monthly_counts_zero_filled():
    store = _ppc_store()
    rows = pos_pow_counts(store)
    assert rows == [("2012-09", 1, 2), ("2012-10", 0, 0), ("2012-11", 3, 0)]
    store.close()


def test_counts_conserve_block_total():
    store = _ppc_store()
    rows = pos_pow_counts(store)
    assert sum(pos + pow_ for _, pos, pow_ in rows) == \
        store.block_count(ChainKind.PEERCOIN)
    store.close()


def test_missing_proof_tag_is_fatal():
    # ingest refuses the block, so pos_pow_counts never sees it
    lines = [block_line("ppc", 0, _ts(2012, 9, 1), [])]
    store = Store(":memory:")
    [rejected] = ingest_blocks(lines, ChainKind.PEERCOIN, store).rejected
    assert (rejected.line_no, rejected.error.field) == (1, "proof")
    with pytest.raises(SchemaViolation, match="line 1: invalid field 'proof'"):
        ingest_blocks(lines, ChainKind.PEERCOIN, store, strict=True)
    with pytest.raises(EmptyChain):
        pos_pow_counts(store)
    store.close()


def test_empty_chain():
    store = Store(":memory:")
    with pytest.raises(EmptyChain):
        pos_pow_counts(store)
    store.close()
