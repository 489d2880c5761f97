"""Embedded ledger store: NDJSON ingestion, queries, and chain summaries.

One SQLite file per store directory. Currency amounts are persisted as
decimal strings because values may exceed 2**63; they are summed as Python
integers so fee totals carry no float drift.
"""

from __future__ import annotations

import json
import logging
import sqlite3
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import (ChainLensError, ConflictingBlock, ConflictingTx,
                     EmptyChain, MalformedJson, SchemaViolation)
from .model import (Block, ChainKind, ChainSummary, IngestSummary,
                    NameOpKind, NameOpPayload, ProofKind, RejectedLine,
                    Transaction, fill_periods, month_key, normalize_hex)

log = logging.getLogger(__name__)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocks (
    chain     TEXT NOT NULL,
    height    INTEGER NOT NULL,
    hash      TEXT NOT NULL,
    parent    TEXT NOT NULL,
    time      INTEGER NOT NULL,
    auxpow    INTEGER,
    proof     TEXT,
    tx_hashes TEXT NOT NULL,
    PRIMARY KEY (chain, height)
);
CREATE INDEX IF NOT EXISTS blocks_by_time ON blocks (chain, time);
CREATE TABLE IF NOT EXISTS txs (
    chain   TEXT NOT NULL,
    hash    TEXT NOT NULL,
    height  INTEGER NOT NULL,
    idx     INTEGER NOT NULL,
    sender  TEXT NOT NULL,
    recipient TEXT,
    value   TEXT NOT NULL,
    input   TEXT NOT NULL,
    fee     TEXT,
    gas     INTEGER,
    name_op TEXT,
    PRIMARY KEY (chain, hash),
    UNIQUE (chain, height, idx)
);
CREATE INDEX IF NOT EXISTS txs_by_height ON txs (chain, height, idx);
"""


class Store:
    """Single-writer, multi-reader ledger store rooted at a directory.

    Pass ":memory:" for an ephemeral store (tests, one-shot analyses).
    """

    def __init__(self, root: str | Path):
        if str(root) == ":memory:":
            self.root = None
            self.path = ":memory:"
        else:
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
            self.path = self.root / "chainlens.sqlite"
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes --------------------------------------------------------

    def put_block(self, block: Block) -> bool:
        """Insert a block; returns False if the identical block already exists."""
        cur = self._conn.execute(
            "SELECT hash FROM blocks WHERE chain=? AND height=?",
            (block.chain.value, block.height))
        row = cur.fetchone()
        if row is not None:
            if row[0] != block.hash:
                raise ConflictingBlock(block.height)
            return False
        self._conn.execute(
            "INSERT INTO blocks VALUES (?,?,?,?,?,?,?,?)",
            (block.chain.value, block.height, block.hash, block.parent_hash,
             block.timestamp,
             None if block.is_auxpow is None else int(block.is_auxpow),
             block.proof.value if block.proof else None,
             json.dumps(block.tx_hashes)))
        return True

    def put_tx(self, tx: Transaction) -> bool:
        """Insert a transaction; returns False if the identical tx already exists."""
        name_op = None
        if tx.name_op is not None:
            name_op = json.dumps({
                "kind": tx.name_op.kind.value,
                "name": tx.name_op.name,
                "name_hash": tx.name_op.name_hash,
                "paid_fee": str(tx.name_op.paid_fee),
            })
        values = (tx.chain.value, tx.hash, tx.block_height, tx.index_in_block,
                  tx.sender, tx.recipient, str(tx.value), tx.input_data,
                  None if tx.fee is None else str(tx.fee), tx.gas_limit,
                  name_op)
        cur = self._conn.execute(
            "SELECT * FROM txs WHERE chain=? AND hash=?", (tx.chain.value, tx.hash))
        row = cur.fetchone()
        if row is not None:
            if row != values:
                raise ConflictingTx(tx.hash)
            return False
        cur = self._conn.execute(
            "SELECT hash FROM txs WHERE chain=? AND height=? AND idx=?",
            (tx.chain.value, tx.block_height, tx.index_in_block))
        row = cur.fetchone()
        if row is not None:
            raise SchemaViolation(
                0, "index",
                f"position ({tx.block_height}, {tx.index_in_block}) already "
                f"held by tx {row[0]}")
        self._conn.execute("INSERT INTO txs VALUES (?,?,?,?,?,?,?,?,?,?,?)",
                           values)
        return True

    def commit(self) -> None:
        self._conn.commit()

    # -- reads ---------------------------------------------------------

    def iter_blocks(self, chain: ChainKind,
                    max_height: int | None = None) -> Iterator[Block]:
        sql = "SELECT * FROM blocks WHERE chain=?"
        args: list = [chain.value]
        if max_height is not None:
            sql += " AND height<=?"
            args.append(max_height)
        for row in self._conn.execute(sql + " ORDER BY height", args):
            yield _row_to_block(row)

    def iter_txs(self, chain: ChainKind,
                 max_height: int | None = None) -> Iterator[Transaction]:
        sql = "SELECT * FROM txs WHERE chain=?"
        args: list = [chain.value]
        if max_height is not None:
            sql += " AND height<=?"
            args.append(max_height)
        for row in self._conn.execute(sql + " ORDER BY height, idx", args):
            yield _row_to_tx(row)

    def block_times(self, chain: ChainKind) -> dict[int, int]:
        """Map height -> timestamp for the whole chain."""
        cur = self._conn.execute(
            "SELECT height, time FROM blocks WHERE chain=?", (chain.value,))
        return dict(cur.fetchall())

    def block_count(self, chain: ChainKind) -> int:
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM blocks WHERE chain=?", (chain.value,))
        return cur.fetchone()[0]


def _row_to_block(row: tuple) -> Block:
    chain, height, hash_, parent, time_, auxpow, proof, tx_hashes = row
    return Block(chain=ChainKind(chain), height=height, hash=hash_,
                 parent_hash=parent, timestamp=time_,
                 tx_hashes=json.loads(tx_hashes),
                 is_auxpow=None if auxpow is None else bool(auxpow),
                 proof=ProofKind(proof) if proof else None)


def _row_to_tx(row: tuple) -> Transaction:
    (chain, hash_, height, idx, sender, recipient, value, input_,
     fee, gas, name_op_json) = row
    name_op = None
    if name_op_json:
        raw = json.loads(name_op_json)
        name_op = NameOpPayload(kind=NameOpKind(raw["kind"]),
                                paid_fee=int(raw["paid_fee"]),
                                name=raw.get("name"),
                                name_hash=raw.get("name_hash"))
    return Transaction(chain=ChainKind(chain), hash=hash_, block_height=height,
                       index_in_block=idx, sender=sender, recipient=recipient,
                       value=int(value), input_data=input_,
                       fee=None if fee is None else int(fee),
                       gas_limit=gas, name_op=name_op)


# -- line parsing -------------------------------------------------------

RecordSource = Iterable[str] | IO[str] | str | Path


def read_records(source: RecordSource, types: tuple[str, ...],
                 reject: Callable[[int, ChainLensError], None] | None = None
                 ) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each NDJSON record whose `type` is in `types`.

    `source` is a file path or an iterable of lines. Blank lines are
    skipped but counted, so line numbers are those of the file. A line that
    is not JSON raises MalformedJson; one that is not an object, or not of
    an accepted type, raises SchemaViolation on field "type". With a
    `reject` callback, the error goes to it instead and reading goes on.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from read_records(fh, types, reject)
        return
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            err: ChainLensError = MalformedJson(line_no, exc.msg)
        else:
            if not isinstance(obj, dict):
                err = SchemaViolation(line_no, "type", "line is not an object")
            elif obj.get("type") not in types:
                err = SchemaViolation(
                    line_no, "type",
                    f"expected {' or '.join(map(repr, types))}, "
                    f"got {obj.get('type')!r}")
            else:
                yield line_no, obj
                continue
        if reject is None:
            raise err
        reject(line_no, err)



def _require(cond: bool, line_no: int, field: str, detail: str) -> None:
    if not cond:
        raise SchemaViolation(line_no, field, detail)


def _parse_amount(raw, line_no: int, field: str) -> int:
    _require(isinstance(raw, (str, int)) and not isinstance(raw, bool),
             line_no, field, "expected a decimal string or integer")
    try:
        amount = int(raw)
    except ValueError:
        raise SchemaViolation(line_no, field, f"not a decimal integer: {raw!r}")
    _require(amount >= 0, line_no, field, "negative amount")
    return amount


def _parse_hash(raw, line_no: int, field: str) -> str:
    _require(isinstance(raw, str), line_no, field, "expected a hex string")
    try:
        return normalize_hex(raw, byte_len=32)
    except ValueError as exc:
        raise SchemaViolation(line_no, field, str(exc))


def _parse_address(raw, line_no: int, field: str, chain: ChainKind) -> str:
    _require(isinstance(raw, str) and raw != "", line_no, field,
             "expected a non-empty string")
    if chain is not ChainKind.ETHEREUM:
        return raw
    try:
        return normalize_hex(raw, byte_len=20)
    except ValueError as exc:
        raise SchemaViolation(line_no, field, str(exc))


def _parse_block_line(obj: dict, chain: ChainKind, line_no: int) -> Block:
    height = obj.get("height")
    _require(isinstance(height, int) and not isinstance(height, bool)
             and height >= 0, line_no, "height", "must be a non-negative integer")
    time_ = obj.get("time")
    _require(isinstance(time_, int) and not isinstance(time_, bool)
             and time_ > 0, line_no, "time", "must be a positive integer")
    tx_hashes_raw = obj.get("txs", [])
    _require(isinstance(tx_hashes_raw, list), line_no, "txs", "must be a list")
    tx_hashes = [_parse_hash(h, line_no, "txs") for h in tx_hashes_raw]
    _require(len(set(tx_hashes)) == len(tx_hashes), line_no, "txs",
             "duplicate transaction hashes")
    auxpow = obj.get("auxpow")
    _require(auxpow is None or isinstance(auxpow, bool), line_no, "auxpow",
             "must be a boolean")
    proof_raw = obj.get("proof")
    proof = None
    if proof_raw is not None:
        _require(proof_raw in ("pow", "pos"), line_no, "proof",
                 "must be 'pow' or 'pos'")
        proof = ProofKind(proof_raw)
    return Block(chain=chain, height=height,
                 hash=_parse_hash(obj.get("hash"), line_no, "hash"),
                 parent_hash=_parse_hash(obj.get("parent"), line_no, "parent"),
                 timestamp=time_, tx_hashes=tx_hashes,
                 is_auxpow=auxpow, proof=proof)


def _parse_name_op(raw, line_no: int) -> NameOpPayload | None:
    if raw is None:
        return None
    _require(isinstance(raw, dict), line_no, "name_op", "must be an object")
    kind_raw = raw.get("kind")
    _require(kind_raw in ("new", "firstupdate", "update"), line_no,
             "name_op.kind", "must be new|firstupdate|update")
    name = raw.get("name")
    _require(name is None or isinstance(name, str), line_no, "name_op.name",
             "must be a string")
    name_hash = raw.get("name_hash")
    _require(name_hash is None or isinstance(name_hash, str), line_no,
             "name_op.name_hash", "must be a string")
    return NameOpPayload(kind=NameOpKind(kind_raw),
                         paid_fee=_parse_amount(raw.get("paid_fee", 0),
                                                line_no, "name_op.paid_fee"),
                         name=name, name_hash=name_hash)


def _parse_tx_line(obj: dict, chain: ChainKind, line_no: int) -> Transaction:
    height = obj.get("height")
    _require(isinstance(height, int) and not isinstance(height, bool)
             and height >= 0, line_no, "height", "must be a non-negative integer")
    index = obj.get("index")
    _require(isinstance(index, int) and not isinstance(index, bool)
             and index >= 0, line_no, "index", "must be a non-negative integer")
    recipient_raw = obj.get("to")
    recipient = None
    if recipient_raw is not None:
        recipient = _parse_address(recipient_raw, line_no, "to", chain)
    input_raw = obj.get("input", "")
    _require(isinstance(input_raw, str), line_no, "input", "must be a string")
    try:
        input_data = normalize_hex(input_raw)
    except ValueError as exc:
        raise SchemaViolation(line_no, "input", str(exc))
    fee_raw = obj.get("fee")
    gas_raw = obj.get("gas")
    _require(gas_raw is None or (isinstance(gas_raw, int)
             and not isinstance(gas_raw, bool) and gas_raw >= 0),
             line_no, "gas", "must be a non-negative integer")
    return Transaction(
        chain=chain,
        hash=_parse_hash(obj.get("hash"), line_no, "hash"),
        block_height=height, index_in_block=index,
        sender=_parse_address(obj.get("from"), line_no, "from", chain),
        recipient=recipient,
        value=_parse_amount(obj.get("value", 0), line_no, "value"),
        input_data=input_data,
        fee=None if fee_raw is None else _parse_amount(fee_raw, line_no, "fee"),
        gas_limit=gas_raw,
        name_op=_parse_name_op(obj.get("name_op"), line_no))


# -- operations ----------------------------------------------------------


def ingest_blocks(source: RecordSource, chain: ChainKind,
                  store: Store, strict: bool = False) -> IngestSummary:
    """Load an NDJSON dump into the store.

    Lines that fail to parse or violate an invariant are rejected and
    counted, not fatal, unless `strict` upgrades them to an exception.
    Re-ingesting a file already loaded is a no-op reporting zero loads; a
    stored block height or tx hash with different contents is a conflict.
    """
    summary = IngestSummary()

    def reject(line_no: int, err: ChainLensError) -> None:
        if strict:
            raise err
        log.warning("rejected %s", RejectedLine(line_no, err))
        summary.rejected.append(RejectedLine(line_no, err))

    for line_no, obj in read_records(source, ("block", "tx"), reject):
        try:
            rec_chain = obj.get("chain")
            if rec_chain != chain.value:
                raise SchemaViolation(line_no, "chain",
                                      f"expected {chain.value!r}, got {rec_chain!r}")
            if obj["type"] == "block":
                if store.put_block(_parse_block_line(obj, chain, line_no)):
                    summary.blocks_loaded += 1
            else:
                if store.put_tx(_parse_tx_line(obj, chain, line_no)):
                    summary.txs_loaded += 1
        except ChainLensError as err:
            if isinstance(err, SchemaViolation) and err.line_no == 0:
                err = SchemaViolation(line_no, err.field, err.detail)
            reject(line_no, err)
    store.commit()
    return summary


def apply_cutoff(store: Store, chain: ChainKind, cutoff: int) -> int:
    """Greatest height whose block timestamp is strictly before `cutoff`."""
    cur = store._conn.execute(
        "SELECT MAX(height) FROM blocks WHERE chain=? AND time<?",
        (chain.value, cutoff))
    height = cur.fetchone()[0]
    if height is None:
        raise EmptyChain(chain.value, f"no block before timestamp {cutoff}")
    return height


def summarize_chain(store: Store, chain: ChainKind,
                    cutoff_height: int | None = None) -> ChainSummary:
    conn = store._conn
    sql = "SELECT MIN(time), MAX(time), MAX(height) FROM blocks WHERE chain=?"
    args: list = [chain.value]
    if cutoff_height is not None:
        sql += " AND height<=?"
        args.append(cutoff_height)
    first_time, last_time, last_height = conn.execute(sql, args).fetchone()
    if first_time is None:
        raise EmptyChain(chain.value)
    tx_sql = "SELECT value FROM txs WHERE chain=?"
    tx_args: list = [chain.value]
    if cutoff_height is not None:
        tx_sql += " AND height<=?"
        tx_args.append(cutoff_height)
    count = 0
    volume = 0
    for (value,) in conn.execute(tx_sql, tx_args):
        count += 1
        volume += int(value)
    return ChainSummary(chain=chain, first_block_time=first_time,
                        cutoff_time=last_time, cutoff_height=last_height,
                        tx_count=count, tx_volume=volume)


def monthly_tx_counts(store: Store, chain: ChainKind,
                      cutoff_height: int | None = None) -> list[tuple[str, int]]:
    """Transactions per UTC calendar month, zero-filled across the span."""
    if store.block_count(chain) == 0:
        raise EmptyChain(chain.value)
    times = store.block_times(chain)
    counts: dict[str, int] = {}
    for tx in store.iter_txs(chain, max_height=cutoff_height):
        block_time = times.get(tx.block_height)
        if block_time is None:
            continue
        key = month_key(block_time)
        counts[key] = counts.get(key, 0) + 1
    return fill_periods(counts, 0)


def parse_rfc3339(text: str) -> int:
    """RFC 3339 timestamp (or epoch seconds) to Unix seconds, UTC."""
    if text.isdigit():
        return int(text)
    normalized = text.replace("Z", "+00:00")
    moment = datetime.fromisoformat(normalized)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())

