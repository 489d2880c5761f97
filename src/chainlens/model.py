"""Chain-agnostic ledger data model shared by every analysis module."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import Mapping, TypeVar

from .errors import ChainLensError

HEX_DIGITS = frozenset("0123456789abcdef")
T = TypeVar("T")


class ChainKind(str, enum.Enum):
    ETHEREUM = "eth"
    NAMECOIN = "nmc"
    PEERCOIN = "ppc"


class ProofKind(str, enum.Enum):
    POW = "pow"
    POS = "pos"


class NameOpKind(str, enum.Enum):
    NEW = "new"
    FIRST_UPDATE = "firstupdate"
    UPDATE = "update"


def strip_0x(text: str) -> str:
    return text[2:] if text[:2] in ("0x", "0X") else text


def normalize_hex(text: str, byte_len: int | None = None) -> str:
    """Lowercase hex without the 0x prefix; raises ValueError on bad digits."""
    digits = strip_0x(text).lower()
    if len(digits) % 2:
        raise ValueError(f"odd-length hex string: {text!r}")
    if not set(digits) <= HEX_DIGITS:
        raise ValueError(f"non-hex digits in {text!r}")
    if byte_len is not None and len(digits) != 2 * byte_len:
        raise ValueError(f"expected {byte_len} bytes of hex, got {len(digits) // 2}")
    return digits


def int_field(obj: Mapping[str, object], key: str,
              minimum: int | None = None) -> int:
    """obj[key] as an int; raises ValueError naming `key` unless it is
    present, a JSON integer (not a bool, fraction or string) and, when
    `minimum` is given, at least `minimum`."""
    if key not in obj:
        raise ValueError(f"{key!r} is missing")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def month_key(timestamp: int) -> str:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m")


def utc_date(timestamp: int) -> date:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date()


def iso_week_key(timestamp: int) -> str:
    year, week, _ = utc_date(timestamp).isocalendar()
    return f"{year}-W{week:02d}"


def fill_periods(values: Mapping[str, T], zero: T) -> list[tuple[str, T]]:
    """(period, value) rows for every period from the first key to the last.

    Keys are either all `month_key` months or all `iso_week_key` weeks;
    periods missing from `values` get `zero`. An empty mapping gives [].
    """
    if not values:
        return []
    first, last = min(values), max(values)
    if "-W" in first:
        key_of = iso_week_key
        year, week = map(int, first.split("-W"))
        start = datetime.fromisocalendar(year, week, 1)
    else:
        key_of = month_key
        start = datetime.strptime(first, "%Y-%m")
    moment = int(start.replace(tzinfo=timezone.utc).timestamp())
    rows = []
    key = first
    while key <= last:
        rows.append((key, values.get(key, zero)))
        while key_of(moment) == key:
            moment += 7 * 86_400  # no month is shorter, so none is skipped
        key = key_of(moment)
    return rows


@dataclass
class NameOpPayload:
    kind: NameOpKind
    paid_fee: int
    name: str | None = None
    name_hash: str | None = None


@dataclass
class Block:
    chain: ChainKind
    height: int
    hash: str
    parent_hash: str
    timestamp: int
    tx_hashes: list[str] = field(default_factory=list)
    is_auxpow: bool | None = None
    proof: ProofKind | None = None


@dataclass
class Transaction:
    chain: ChainKind
    hash: str
    block_height: int
    index_in_block: int
    sender: str
    recipient: str | None
    value: int
    input_data: str = ""
    fee: int | None = None
    gas_limit: int | None = None
    name_op: NameOpPayload | None = None


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
    error: ChainLensError

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.error}"


@dataclass
class IngestSummary:
    blocks_loaded: int = 0
    txs_loaded: int = 0
    rejected: list[RejectedLine] = field(default_factory=list)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)
