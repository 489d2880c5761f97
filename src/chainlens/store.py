"""Embedded ledger store: NDJSON ingestion, queries, and chain summaries.

One SQLite file per store directory. Currency amounts are persisted as
decimal strings because values may exceed 2**63; they are summed as Python
integers so fee totals carry no float drift.
"""

from __future__ import annotations

import json
import re
import sqlite3
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from types import NoneType
from typing import IO, Callable, Iterable, Iterator, Sequence

from .errors import (ChainLensError, ConflictingBlock, ConflictingTx,
                     EmptyChain, LineError, MalformedJson, SchemaViolation,
                     StoreSchemaMismatch, StoreUnreadable)
from .model import (NAME_OP_KINDS, REQUIRED, Block, ChainKind, ChainSummary,
                    FieldError, IngestSummary, RejectedLine, T, Transaction,
                    amount_field, bool_field, hex_field, int_field, month_key,
                    str_field, str_list_field, tally_periods)

# the most parsed rows an ingest holds before it writes them, in one
# statement per table and set of filled columns
WRITE_CHUNK = 256
_SQLITE_INT_MAX = (1 << 63) - 1  # an INTEGER column holds at most 8 signed bytes
# 9999-12-31T23:59:59Z: a later time has no datetime, so no month or week
_LAST_BLOCK_TIME = 253_402_300_799
# `model.Block` and `model.Transaction` are rows of these tables, their
# fields the columns in order. The two partial indexes cover Ethereum
# only: each creation in ledger order, and each sender's txs in ledger
# order, which counts its nonce.
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
    op_kind TEXT,
    op_name TEXT,
    op_name_hash TEXT,
    op_fee  TEXT,
    PRIMARY KEY (chain, hash),
    UNIQUE (chain, height, idx)
);
CREATE INDEX IF NOT EXISTS eth_txs_by_sender ON txs (sender, height, idx)
    WHERE chain = 'eth';
CREATE INDEX IF NOT EXISTS eth_creations ON txs (height, idx)
    WHERE chain = 'eth' AND recipient IS NULL;
"""
# The chain is spelled as the literal 'eth': the planner uses a partial
# index only when the query's WHERE implies the index's, which a bound ?
# never does. Left to itself it would rather walk every eth tx through the
# UNIQUE autoindex than the few creations, hence INDEXED BY.
_ETH_CREATIONS = """
SELECT c.*, (SELECT COUNT(*) FROM txs AS p
             WHERE p.chain = 'eth' AND p.sender = c.sender
               AND (p.height, p.idx) < (c.height, c.idx))
FROM txs AS c INDEXED BY eth_creations
WHERE c.chain = 'eth' AND c.recipient IS NULL
ORDER BY c.height, c.idx
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
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:  # e.g. the path is a directory
            raise StoreUnreadable(str(self.path), str(exc)) from exc
        try:
            # refuse a store written with other columns before writing to it
            for record, table in ((Block, "blocks"), (Transaction, "txs")):
                columns = tuple(row[1] for row in self._conn.execute(
                    f"PRAGMA table_info({table})"))
                if columns and columns != record._fields:
                    raise StoreSchemaMismatch(str(self.path), table)
            self._conn.executescript(_SCHEMA)
        except Exception as exc:
            self._conn.close()
            if isinstance(exc, sqlite3.DatabaseError):  # not a SQLite file
                raise StoreUnreadable(str(self.path), str(exc)) from exc
            raise

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes --------------------------------------------------------

    def put_block(self, rows: Sequence[Block]) -> list[bool | Exception]:
        """Write a chunk of blocks as they are, by `_put`'s rule."""
        return self._put("blocks", "height", ConflictingBlock, rows)

    def put_tx(self, rows: Sequence[Transaction]) -> list[bool | Exception]:
        """Write a chunk of txs as they are, by `_put`'s rule."""
        return self._put("txs", "hash", ConflictingTx, rows)

    def _put(self, table: str, key: str, conflict: type[ChainLensError],
             rows: Sequence[tuple]) -> list[bool | Exception]:
        """The one write rule, over a non-empty chunk of rows of `table`:
        for each row, True if it was inserted. Otherwise the row stored
        under the primary key, chain and `key` (the row's first two
        columns), is the same row (False) or a different one (a
        `conflict`); with none there, a tx's (height, index) is taken (a
        FieldError on "index").

        Each outcome is the one the row has when written alone after the
        rows before it. The chunk's rows are split by which of their
        columns are NULL, and each group is inserted by one statement that
        names only its filled columns, so no NULL and no NamedTuple is
        bound: a column left out takes its default, NULL. The groups
        change the order of the rows, which matters only when two of them
        share a unique key, the primary key or a tx's (chain, height,
        index): such a chunk goes one row at a time instead."""
        keys = {row[:2] for row in rows}
        positions = ({(row[0], row[2], row[3]) for row in rows}
                     if table == "txs" else keys)
        if len(rows) > 1 and min(len(keys), len(positions)) < len(rows):
            return [outcome for row in rows
                    for outcome in self._put(table, key, conflict, [row])]
        # a column's type is NoneType where it is NULL. (*...,) builds the
        # key at its final size: tuple(map(...)) grows one, and each grown
        # tuple freed parks in CPython's free list, up to ~0.3 MB of them
        groups: dict[tuple, list[tuple]] = {}
        for row in rows:
            groups.setdefault((*map(type, row),), []).append(row)
        columns = rows[0]._fields
        inserted = 0
        for types, group in groups.items():
            kept = [i for i, kind in enumerate(types) if kind is not NoneType]
            # DO NOTHING, unlike OR IGNORE, fails a NOT NULL column left out
            inserted += self._conn.executemany(
                f"INSERT INTO {table} ({','.join(columns[i] for i in kept)})"
                f" VALUES ({','.join('?' * len(kept))}) ON CONFLICT DO NOTHING",
                map(itemgetter(*kept), group)).rowcount
        if inserted == len(rows):
            return [True] * len(rows)
        # a new row takes max(rowid) + 1, so the rows inserted just now, by
        # every group, are the `inserted` ones with the highest rowids
        (last,) = self._conn.execute(
            f"SELECT max(rowid) FROM {table}").fetchone()
        chains = {chain for chain, _ in keys}
        stored = {found[1:3]: found for found in self._conn.execute(
            f"SELECT rowid, * FROM {table} WHERE chain IN"
            f" ({','.join('?' * len(chains))}) AND {key} IN"
            f" ({','.join('?' * len(keys))})",
            (*chains, *(value for _, value in keys)))}
        outcomes: list[bool | Exception] = []
        for row in rows:
            found = stored.get(row[:2])
            if found is None:
                (holder,) = self._conn.execute(
                    "SELECT hash FROM txs WHERE chain=? AND height=? AND idx=?",
                    (row[0], row[2], row[3])).fetchone()
                outcomes.append(FieldError(
                    "index", f"position ({row[2]}, {row[3]}) already held "
                             f"by tx {holder}"))
            elif found[0] > last - inserted:
                outcomes.append(True)
            else:
                outcomes.append(False if found[1:] == row
                                else conflict(row[1]))
        return outcomes

    def commit(self) -> None:
        self._conn.commit()

    def rollback(self) -> None:
        """Discard every write since the last commit."""
        self._conn.rollback()

    # -- reads ---------------------------------------------------------

    def iter_blocks(self, chain: ChainKind) -> Iterator[Block]:
        """The stored blocks of a chain, by height."""
        yield from map(Block._make, self._conn.execute(
            "SELECT * FROM blocks WHERE chain=? ORDER BY height",
            (chain.value,)))

    def iter_txs(self, chain: ChainKind) -> Iterator[Transaction]:
        """The stored txs of a chain, in ledger order."""
        yield from map(Transaction._make, self._conn.execute(
            "SELECT * FROM txs WHERE chain=? ORDER BY height, idx",
            (chain.value,)))

    def iter_name_ops(self) -> Iterator[
            tuple[int, int | None, str, str | None, str]]:
        """(height, block time or None for an orphan, kind, name, paid fee)
        of each Namecoin name op, in ledger order."""
        yield from self._conn.execute(
            "SELECT height, time, op_kind, op_name, op_fee FROM txs"
            " LEFT JOIN blocks USING (chain, height) WHERE chain = 'nmc'"
            " AND op_kind IS NOT NULL ORDER BY height, idx")

    def merge_mined_counts(self) -> tuple[list[tuple], list[tuple]]:
        """Namecoin blocks as (merged, count, lowest height) per side, and
        dated txs as (merged, op kind, count): `merged` is 1 where the
        block carries auxpow, else 0, and an orphan tx is left out."""
        blocks = self._conn.execute(
            "SELECT auxpow IS 1, COUNT(*), MIN(height) FROM blocks"
            " WHERE chain = 'nmc' GROUP BY 1").fetchall()
        txs = self._conn.execute(
            "SELECT auxpow IS 1, op_kind, COUNT(*) FROM txs"
            " JOIN blocks USING (chain, height) WHERE chain = 'nmc'"
            " GROUP BY 1, 2").fetchall()
        return blocks, txs

    def iter_monthly_proofs(self) -> Iterator[tuple[int, str, int]]:
        """(first time, proof, count) of the ppc blocks per month and proof."""
        yield from self._conn.execute(
            "SELECT MIN(time), proof, COUNT(*) FROM blocks WHERE chain = 'ppc'"
            " GROUP BY strftime('%Y-%m', time, 'unixepoch'), proof")

    def iter_eth_creations(self) -> Iterator[tuple[Transaction, int]]:
        """(creation tx, its sender's nonce) for each Ethereum contract
        creation in ledger order. The nonce is the number of the sender's
        stored eth txs before the creation, orphans included."""
        for row in self._conn.execute(_ETH_CREATIONS):
            yield Transaction._make(row[:-1]), row[-1]

    def iter_monthly_eth_classes(self) -> Iterator[
            tuple[str, int, int, int, int]]:
        """(month, its first block time, sends, creations with code,
        creations without) of each UTC month that has a dated Ethereum tx;
        an orphan, a tx whose block is not stored, is in no month. A send
        is a tx with a recipient, a creation one without."""
        # counted per block first, so each block's month is named once
        yield from self._conn.execute(
            "SELECT strftime('%Y-%m', time, 'unixepoch') AS month, MIN(time),"
            " SUM(sends), SUM(code), SUM(empty) FROM blocks JOIN"
            " (SELECT chain, height, COUNT(recipient) AS sends,"
            " SUM(recipient IS NULL AND input != '') AS code,"
            " SUM(recipient IS NULL AND input = '') AS empty"
            " FROM txs WHERE chain = 'eth' GROUP BY height)"
            " USING (chain, height) GROUP BY month")

    def iter_eth_sends_to(self, recipients: Iterable[str]) -> Iterator[
            tuple[str | None, str, str, int, int, int]]:
        """(month, hash, recipient, height, index, 1 if the value is not
        zero else 0) of each Ethereum tx sent to one of `recipients`, in
        ledger order. The month is as `iter_monthly_eth_classes` names it,
        and None for an orphan."""
        # a value is stored as str(int), so the text '0' is its only zero
        yield from self._conn.execute(
            "SELECT strftime('%Y-%m', time, 'unixepoch'), txs.hash, recipient,"
            " height, idx, value != '0' FROM txs LEFT JOIN blocks"
            " USING (chain, height) WHERE chain = 'eth' AND recipient IN"
            " (SELECT value FROM json_each(?)) ORDER BY height, idx",
            (json.dumps(list(recipients)),))

    def iter_tx_inputs(self, chain: ChainKind) -> Iterator[tuple[str, str]]:
        """(hash, input) of each stored tx of a chain whose input is not
        empty, in ledger order, orphans included."""
        yield from self._conn.execute(
            "SELECT hash, input FROM txs WHERE chain=? AND input != ''"
            " ORDER BY height, idx", (chain.value,))

    def orphan_count(self, chain: ChainKind) -> int:
        """The number of stored txs of a chain whose block is not stored."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM txs WHERE chain=? AND height NOT IN"
            " (SELECT height FROM blocks WHERE chain=?)",
            (chain.value, chain.value)).fetchone()[0]

    def iter_monthly_tx_counts(self, chain: ChainKind,
                               max_height: int | None = None
                               ) -> Iterator[tuple[int, int]]:
        """(first block time, tx count) of each UTC month that has a dated
        tx up to `max_height`; an orphan, a tx whose block is not stored,
        is in no month."""
        where, args = _up_to(chain, max_height)
        # counted per block first, so each block's month is named once
        yield from self._conn.execute(
            "SELECT MIN(time), SUM(n) FROM blocks JOIN"
            f" (SELECT chain, height, COUNT(*) AS n FROM txs WHERE {where}"
            " GROUP BY height) USING (chain, height)"
            " GROUP BY strftime('%Y-%m', time, 'unixepoch')", args)

    def block_times(self, chain: ChainKind) -> dict[int, int]:
        """Map height -> timestamp for the whole chain."""
        cur = self._conn.execute(
            "SELECT height, time FROM blocks WHERE chain=?", (chain.value,))
        return dict(cur.fetchall())

    def block_count(self, chain: ChainKind) -> int:
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM blocks WHERE chain=?", (chain.value,))
        return cur.fetchone()[0]

    def apply_cutoff(self, chain: ChainKind, cutoff: int) -> int:
        """Greatest height whose block timestamp is strictly before `cutoff`."""
        cur = self._conn.execute(
            "SELECT MAX(height) FROM blocks WHERE chain=? AND time<?",
            (chain.value, cutoff))
        height = cur.fetchone()[0]
        if height is None:
            raise EmptyChain(chain.value, f"no block before timestamp {cutoff}")
        return height

    def summarize_chain(self, chain: ChainKind,
                        cutoff_height: int | None = None) -> ChainSummary:
        where, args = _up_to(chain, cutoff_height)
        first_time, last_time, last_height = self._conn.execute(
            f"SELECT MIN(time), MAX(time), MAX(height) FROM blocks WHERE {where}",
            args).fetchone()
        if first_time is None:
            raise EmptyChain(chain.value)
        count = 0
        volume = 0
        for (value,) in self._conn.execute(
                f"SELECT value FROM txs WHERE {where}", args):
            count += 1
            volume += int(value)
        return ChainSummary(chain=chain, first_block_time=first_time,
                            cutoff_time=last_time, cutoff_height=last_height,
                            tx_count=count, tx_volume=volume)


def _up_to(chain: ChainKind, max_height: int | None) -> tuple[str, list]:
    """WHERE clause and arguments for a chain's rows up to `max_height`."""
    if max_height is None:
        return "chain=?", [chain.value]
    return "chain=? AND height<=?", [chain.value, max_height]


# -- line parsing -------------------------------------------------------

RecordSource = Iterable[str] | IO[str] | str | Path


# what surrogateescape decodes a byte that is not UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


def read_records(source: RecordSource, types: tuple[str, ...],
                 parse: Callable[[dict], T],
                 reject: Callable[[int, ChainLensError], None] | None = None
                 ) -> Iterator[tuple[int, T]]:
    """(line number, parse(obj)) for each NDJSON object whose `type` is in `types`.

    `source` is a file path or an iterable of lines. Blank lines are
    skipped but counted, so line numbers are those of the file. A line that
    is not JSON raises MalformedJson; one that is not an object, or not of
    an accepted type, raises SchemaViolation on field "type"; an error from
    `parse` is raised as `_line_error` names it. With a `reject` callback,
    the error goes to it instead and reading goes on. A file is decoded
    line by line: a line that is not UTF-8 is MalformedJson.
    """
    if isinstance(source, (str, Path)):
        # an undecodable byte reads as a lone surrogate, found below
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            yield from read_records(fh, types, parse, reject)
        return
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii() and (bad := _UNDECODED.search(line)):
                raise MalformedJson(line_no, "not UTF-8: undecodable byte "
                                    f"0x{ord(bad.group()) & 0xFF:02x}")
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise FieldError("type", "line is not an object")
            if obj.get("type") not in types:
                raise FieldError("type", f"expected {' or '.join(map(repr, types))}"
                                         f", got {obj.get('type')!r}")
            record = parse(obj)
        except (json.JSONDecodeError, FieldError, ChainLensError) as exc:
            err = _line_error(line_no, exc)
            if reject is None:
                raise err
            reject(line_no, err)
            continue
        yield line_no, record


def _line_error(line_no: int, exc: Exception) -> ChainLensError:
    """The error that refuses line `line_no` for `exc`: bad JSON is
    MalformedJson, a FieldError a SchemaViolation on its field, a
    LineError (such as a conflict with the store) gets the line's number,
    and any other ChainLensError is itself."""
    if isinstance(exc, json.JSONDecodeError):
        return MalformedJson(line_no, exc.msg)
    if isinstance(exc, FieldError):
        return SchemaViolation(line_no, exc.key, exc.detail)
    if isinstance(exc, LineError):
        exc.line_no = line_no
    return exc


def _address(obj: dict, key: str, chain: ChainKind, default=REQUIRED):
    """An Ethereum address as 20 bytes of hex; a non-empty string elsewhere."""
    if chain is ChainKind.ETHEREUM:
        return hex_field(obj, key, 20, default)
    address = str_field(obj, key, default)
    if address == "":
        raise FieldError(key, "must not be empty")
    return address


def _owned(obj: dict, key: str, owner: ChainKind, chain: ChainKind):
    """obj[key], a field only `owner` records carry; on another chain it
    must be absent or null."""
    value = obj.get(key)
    if value is not None and chain is not owner:
        raise FieldError(key, f"belongs to a {owner.value!r} {obj['type']}, "
                              f"not a {chain.value!r} one")
    return value


def _parse_block(obj: dict, chain: ChainKind) -> Block:
    """The stored row of a block record."""
    height = int_field(obj, "height", minimum=0, maximum=_SQLITE_INT_MAX)
    time_ = int_field(obj, "time", minimum=1, maximum=_LAST_BLOCK_TIME)
    tx_hashes = str_list_field(obj, "txs", [], byte_len=32)
    if len(set(tx_hashes)) != len(tx_hashes):
        raise FieldError("txs", "duplicate transaction hashes")
    _owned(obj, "auxpow", ChainKind.NAMECOIN, chain)
    auxpow = bool_field(obj, "auxpow", default=None)
    proof = _owned(obj, "proof", ChainKind.PEERCOIN, chain)
    if proof is None:
        if chain is ChainKind.PEERCOIN:
            raise FieldError("proof", "is required on a 'ppc' block")
    elif proof not in ("pow", "pos"):
        raise FieldError("proof", "must be 'pow' or 'pos'")
    # json.dumps(tx_hashes): hex digits need no JSON escape
    listed = '["' + '", "'.join(tx_hashes) + '"]' if tx_hashes else "[]"
    return Block(chain.value, height, hex_field(obj, "hash", 32),
                 hex_field(obj, "parent", 32), time_,
                 None if auxpow is None else int(auxpow), proof, listed)


def _parse_name_op(obj: dict, chain: ChainKind) -> tuple[str | None, ...]:
    """The stored (kind, name, name hash, paid fee) of a tx's name op, all
    None if it has none.

    Only a Namecoin tx carries one. A name_new commits to a hash and hides
    the name until the reveal, so it needs `name_hash`; a name_firstupdate
    or name_update needs `name`.
    """
    raw = _owned(obj, "name_op", ChainKind.NAMECOIN, chain)
    if raw is None:
        return None, None, None, None
    if not isinstance(raw, dict):
        raise FieldError("name_op", "must be an object")
    op = {f"name_op.{key}": value for key, value in raw.items()}
    if op.get("name_op.kind") not in NAME_OP_KINDS:
        raise FieldError("name_op.kind", "must be new|firstupdate|update")
    name = str_field(op, "name_op.name", None)
    name_hash = str_field(op, "name_op.name_hash", None)
    required = "name_op.name_hash" if raw["kind"] == "new" else "name_op.name"
    if not op.get(required):
        raise FieldError(required, "must be a non-empty string in a "
                                   f"{raw['kind']!r} op")
    return (raw["kind"], name, name_hash,
            str(amount_field(op, "name_op.paid_fee", 0)))


def _parse_tx(obj: dict, chain: ChainKind) -> Transaction:
    """The stored row of a tx record."""
    # the first bad field, in this order, names a rejected line
    height = int_field(obj, "height", minimum=0, maximum=_SQLITE_INT_MAX)
    index = int_field(obj, "index", minimum=0, maximum=_SQLITE_INT_MAX)
    recipient = _address(obj, "to", chain, default=None)
    input_ = hex_field(obj, "input", default="")
    gas = int_field(obj, "gas", minimum=0, default=None,
                    maximum=_SQLITE_INT_MAX)
    hash_ = hex_field(obj, "hash", 32)
    sender = _address(obj, "from", chain)
    value = amount_field(obj, "value", default=0)
    fee = amount_field(obj, "fee", default=None)
    return Transaction(chain.value, hash_, height, index, sender, recipient,
                       str(value), input_, None if fee is None else str(fee),
                       gas, *_parse_name_op(obj, chain))


# -- operations ----------------------------------------------------------


def ingest_blocks(source: RecordSource, chain: ChainKind,
                  store: Store, strict: bool = False) -> IngestSummary:
    """Load an NDJSON dump into the store in one transaction, its parsed
    rows written WRITE_CHUNK at a time by one put_block and one put_tx.

    Lines that fail to parse, violate an invariant or conflict with the
    store are rejected and counted, in line order, not fatal, unless
    `strict` upgrades the first of them to an exception: the rows read
    before a bad line are written before it is refused. A re-delivered
    block or tx is compared with the stored row as a whole: an equal one
    is a no-op, so re-ingesting a file already loaded reports zero loads;
    a different one is a conflict, as is a new tx at a stored tx's
    (height, index). Each outcome is the one the line would have if every
    line were written alone, in order. A call that raises leaves nothing
    of its own in the store.
    """
    summary = IngestSummary()
    pending: list[tuple[int, Block | Transaction]] = []  # read, not written

    def refuse(line_no: int, err: ChainLensError) -> None:
        if strict:
            raise err
        summary.rejected.append(RejectedLine(line_no, err))

    def write() -> None:
        """Write the pending rows, then count or refuse each in line order."""
        outcomes = {}
        for kind, put in ((Block, store.put_block), (Transaction, store.put_tx)):
            chunk = [row for _, row in pending if type(row) is kind]
            outcomes[kind] = iter(put(chunk) if chunk else ())
        for line_no, row in pending:
            outcome = next(outcomes[type(row)])
            if isinstance(outcome, Exception):
                refuse(line_no, _line_error(line_no, outcome))
            elif outcome and type(row) is Block:
                summary.blocks_loaded += 1
            elif outcome:
                summary.txs_loaded += 1
        pending.clear()

    def reject(line_no: int, err: ChainLensError) -> None:
        write()  # the lines before it first
        refuse(line_no, err)

    expected = chain.value

    def parse(obj: dict) -> Block | Transaction:
        if obj.get("chain") != expected:
            raise FieldError(
                "chain", f"expected {expected!r}, got {obj.get('chain')!r}")
        if obj["type"] == "block":
            return _parse_block(obj, chain)
        return _parse_tx(obj, chain)

    try:
        for line_no, row in read_records(source, ("block", "tx"), parse,
                                         reject):
            pending.append((line_no, row))
            if len(pending) >= WRITE_CHUNK:
                write()
        write()
    except BaseException:
        store.rollback()
        raise
    store.commit()
    return summary


def monthly_tx_counts(store: Store, chain: ChainKind,
                      cutoff_height: int | None = None) -> list[tuple[str, int]]:
    """Transactions per UTC calendar month, zero-filled across the span."""
    if store.block_count(chain) == 0:
        raise EmptyChain(chain.value)
    months = store.iter_monthly_tx_counts(chain, max_height=cutoff_height)
    rows = tally_periods(((first_time, "txs", count)
                          for first_time, count in months), month_key)
    return [(month, tally["txs"]) for month, tally in rows]


def parse_rfc3339(text: str) -> int:
    """RFC 3339 timestamp (or epoch seconds) to Unix seconds, UTC."""
    if text.isdigit():
        seconds = int(text)
        if seconds > _SQLITE_INT_MAX:
            raise ValueError(f"{text} is past SQLite's INTEGER range")
        return seconds
    normalized = text.replace("Z", "+00:00")
    moment = datetime.fromisoformat(normalized)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())

