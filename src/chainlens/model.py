"""Chain-agnostic ledger data model shared by every analysis module.

A `Block` or `Transaction` is its stored row: the parser builds it, the
store writes it as it is and reads it back, and an analysis decodes only
the fields it uses.
"""

from __future__ import annotations

import csv
import enum
import json
from binascii import a2b_hex
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, NamedTuple, TypeVar

from .errors import ChainLensError

HEX_DIGITS = frozenset("0123456789abcdef")
T = TypeVar("T")


class ChainKind(str, enum.Enum):
    ETHEREUM = "eth"
    NAMECOIN = "nmc"
    PEERCOIN = "ppc"


# the kinds of a Namecoin name op, in the order reports list them
NAME_OP_KINDS = ("new", "firstupdate", "update")


def strip_0x(text: str) -> str:
    return text[2:] if text[:2] in ("0x", "0X") else text


def normalize_hex(text: str, byte_len: int | None = None) -> str:
    """Lowercase hex without the 0x prefix; raises ValueError on bad digits."""
    digits = strip_0x(text)
    try:  # an even run of hex digits and nothing else
        if byte_len in (None, len(a2b_hex(digits))):
            return digits.lower()
    except ValueError:
        pass
    digits = digits.lower()  # the checks below name what is wrong
    if len(digits) % 2:
        raise ValueError(f"odd-length hex string: {text!r}")
    if not HEX_DIGITS.issuperset(digits):
        raise ValueError(f"non-hex digits in {text!r}")
    if byte_len is not None and len(digits) != 2 * byte_len:
        raise ValueError(f"expected {byte_len} bytes of hex, got {len(digits) // 2}")
    return digits


# Each reader below returns obj[key] checked against its type, or raises a
# FieldError naming `key`. An absent key gives `default`, as does a JSON
# null where the default is None; without a default the key is required.
REQUIRED: Any = object()


class FieldError(ValueError):
    """A field of an input record that is missing or not of its type."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key!r} {detail}")
        self.key = key
        self.detail = detail


def _fault(key: str, value: Any, expected: str) -> FieldError:
    """The error of a field read as `value` that is not `expected`."""
    if value is REQUIRED:
        return FieldError(key, "is missing")
    return FieldError(key, f"must be {expected}, got {value!r}")


def _field(obj: dict, key: str, default: Any, kinds: tuple[type, ...],
           expected: str) -> Any:
    """obj[key] if its JSON type is one of `kinds`; a bool is not an int."""
    value = obj.get(key, default)
    if type(value) in kinds or (value is default and default is not REQUIRED):
        return value
    raise _fault(key, value, expected)


# The three readers below are the ones every ingested line calls: each
# accepts a well-formed value without calling another reader.

def int_field(obj: dict, key: str, minimum: int | None = None,
              default: Any = REQUIRED, maximum: int | None = None) -> int:
    """A JSON integer (not a bool, fraction or string) in [minimum, maximum]."""
    value = obj.get(key, default)
    if value is default and default is not REQUIRED:
        return value
    if type(value) is not int:
        raise _fault(key, value, "an integer")
    if minimum is not None and value < minimum:
        raise FieldError(key, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise FieldError(key, f"must be <= {maximum}, got {value}")
    return value


def amount_field(obj: dict, key: str, default: Any = REQUIRED) -> int:
    """A non-negative integer of any size, as a decimal string or integer."""
    value = obj.get(key, default)
    if value is default and default is not REQUIRED:
        return value
    if type(value) is not str and type(value) is not int:
        raise _fault(key, value, "a decimal string or integer")
    try:
        amount = int(value)
    except ValueError:
        raise FieldError(key, f"not a decimal integer: {value!r}") from None
    if amount < 0:
        raise FieldError(key, "negative amount")
    return amount


def hex_field(obj: dict, key: str, byte_len: int | None = None,
              default: Any = REQUIRED) -> str:
    """`normalize_hex` of a string, `byte_len` bytes long when given."""
    value = obj.get(key, default)
    if value is default and default is not REQUIRED:
        return value
    if type(value) is not str:
        raise _fault(key, value, "a hex string")
    digits = value[2:] if value[:2] in ("0x", "0X") else value
    try:  # normalize_hex's own first check
        if byte_len in (None, len(a2b_hex(digits))):
            return digits.lower()
    except ValueError:
        pass
    try:
        return normalize_hex(value, byte_len)
    except ValueError as exc:
        raise FieldError(key, str(exc)) from None


def bool_field(obj: dict, key: str, default: Any = REQUIRED) -> bool:
    return _field(obj, key, default, (bool,), "true or false")


def number_field(obj: dict, key: str, default: Any = REQUIRED) -> float:
    return _field(obj, key, default, (int, float), "a number")


def str_field(obj: dict, key: str, default: Any = REQUIRED) -> str:
    """A string that UTF-8 can encode: SQLite cannot store a lone surrogate,
    which a JSON `\\ud800` escape gives."""
    value = _field(obj, key, default, (str,), "a string")
    if value is not default:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise FieldError(key, f"is not UTF-8 text: {value!r}") from None
    return value


def is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def str_list_field(obj: dict, key: str, default: Any = REQUIRED,
                   byte_len: int | None = None) -> list[str]:
    """A list of strings (the default, if any, is a list); with `byte_len`,
    each is read as `hex_field` reads hex of that many bytes."""
    value = _field(obj, key, default, (list,), "a list of strings")
    if not is_str_list(value):
        raise FieldError(key, f"must be a list of strings, got {value!r}")
    if byte_len is None:
        return value
    digits = [item[2:] if item[:2] in ("0x", "0X") else item
              for item in value]
    try:  # each entry's length, then one check of all the digits
        if set(map(len, digits)) <= {2 * byte_len}:
            a2b_hex("".join(digits))
            return [entry.lower() for entry in digits]
    except ValueError:
        pass
    try:  # the first bad entry names the error
        return [normalize_hex(item, byte_len) for item in value]
    except ValueError as exc:
        raise FieldError(key, str(exc)) from None


LineSource = Iterable[str] | str | Path


def read_lines(source: LineSource, parse: Callable[[str], T] = str,
               header: Callable[[str], bool] | None = None,
               key: Callable[[T], str] | None = None) -> list[T]:
    """parse(text) of each line of a list file (a path or lines), where
    `text` is the line up to any `#`, stripped.

    A line left blank is skipped but counted, as is line 1 when
    `header(text)` is true. A ValueError from `parse` is raised again
    with `line N: ` before its message. With `key`, which names a value's
    key (as in "week 2011-W18"), a line whose key an earlier line had is
    bad too: `line N: duplicate <key>`.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return read_lines(fh, parse, header, key)
    values = []
    keys: set[str] = set()
    for line_no, line in enumerate(source, start=1):
        text = line.split("#", 1)[0].strip()
        if not text or (line_no == 1 and header is not None and header(text)):
            continue
        try:
            value = parse(text)
            if key is not None:
                name = key(value)
                if name in keys:
                    raise ValueError(f"duplicate {name}")
                keys.add(name)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        values.append(value)
    return values


def read_table(source: LineSource, header: tuple[str, ...], width: int,
               parse: Callable[[list[str]], T],
               key: Callable[[T], str] | None = None) -> list[T]:
    """parse(stripped cells) of each row of a CSV table, read as
    `read_lines` reads, `key` included; line 1 is a header when its first
    cell is in `header`, in any case. A row not `width` cells wide is a
    bad line."""
    def row(text: str) -> T:
        cells = [cell.strip() for cell in next(csv.reader([text]))]
        if len(cells) != width:
            raise ValueError(f"expected {width} fields, got {len(cells)}")
        return parse(cells)

    return read_lines(source, row, lambda text: next(
        csv.reader([text]))[0].strip().lower() in header, key)


def read_json(path: str | Path) -> Any:
    """The JSON document in a file; bad JSON raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def month_key(timestamp: int) -> str:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m")


def utc_date(timestamp: int) -> date:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date()


def iso_week_key(timestamp: int) -> str:
    year, week, _ = utc_date(timestamp).isocalendar()
    return f"{year}-W{week:02d}"


def tally_periods(items: Iterable[tuple[int | None, Hashable, int]],
                  key_of: Callable[[int], str]) -> list[tuple[str, Counter]]:
    """(period, amounts by label) for every period from the first to the last.

    Each (timestamp, label, amount) item adds `amount` to `label` in the
    period `key_of(timestamp)`, where `key_of` is `month_key` or
    `iso_week_key`; a label seen only with amount 0 is still a key. An
    item whose timestamp is None (a tx whose block is not stored) belongs
    to no period. A period without items gets an empty Counter, and no
    dated item at all gives [].
    """
    tallies: dict[str, Counter] = {}
    moments: dict[str, int] = {}  # one timestamp inside each period
    for timestamp, label, amount in items:
        if timestamp is None:
            continue
        key = key_of(timestamp)
        tally = tallies.get(key)
        if tally is None:
            tally = tallies[key] = Counter()
            moments[key] = timestamp
        tally[label] += amount
    if not tallies:
        return []
    first, last = min(moments, key=moments.get), max(moments, key=moments.get)
    moment = moments[first]
    rows = [(first, tallies[first])]
    while rows[-1][0] != last:
        # no month is shorter, so none is skipped; stopping at the last time
        # seen keeps a step out of the days of 9999-W52 in the year 10000
        moment = min(moment + 7 * 86_400, moments[last])
        key = key_of(moment)
        if key != rows[-1][0]:
            rows.append((key, tallies.get(key, Counter())))
    return rows


class Block(NamedTuple):
    """A `blocks` row, its fields the table's columns in order."""
    chain: str  # a ChainKind value
    height: int
    hash: str
    parent: str
    time: int
    auxpow: int | None  # 0 or 1 where a Namecoin block says
    proof: str | None  # "pow" or "pos" on a Peercoin block
    tx_hashes: str  # JSON list of the block's tx hashes


class Transaction(NamedTuple):
    """A `txs` row, its fields the table's columns in order. Amounts are
    decimal strings, as they may exceed 2**63. The four `op_` fields are
    a Namecoin name op, all None on a tx without one."""
    chain: str  # a ChainKind value
    hash: str  # 32 bytes of lowercase hex
    height: int  # the height of the tx's block
    idx: int  # position in the block
    sender: str  # the `from` address
    recipient: str | None  # the `to` address; None for a contract creation
    value: str  # the amount sent
    input: str  # call data as hex, "" when none
    fee: str | None  # the fee, where the record gives one
    gas: int | None  # the gas limit, where the record gives one
    op_kind: str | None  # one of NAME_OP_KINDS
    op_name: str | None  # the name; a "new" op may lack it
    op_name_hash: str | None  # the committed hash; required on a "new" op
    op_fee: str | None  # the fee the op paid, "0" where the record gives none


@dataclass
class ChainSummary:
    chain: ChainKind
    first_block_time: int
    cutoff_time: int
    cutoff_height: int
    tx_count: int
    tx_volume: int


@dataclass
class RejectedLine:
    line_no: int
    error: ChainLensError  # its message names the line


@dataclass
class IngestSummary:
    blocks_loaded: int = 0
    txs_loaded: int = 0
    rejected: list[RejectedLine] = field(default_factory=list)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)
