"""Detect file-format payloads embedded in transaction input data.

Matching is a cheap candidate filter: by default only the first two
payload bytes are compared against each signature (at its offset), which
is deliberately permissive and can fire on several formats at once; the
shipped table, for instance, cannot tell a gzip stream from a gzipped tar
and labels both "gzip". An optional second pass re-checks the entire magic
sequence for payloads the filter caught.
"""

from __future__ import annotations

import logging
from binascii import a2b_hex
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import InvalidHex
from .model import HEX_DIGITS, ChainKind, read_table, strip_0x
from .store import Store

log = logging.getLogger(__name__)

_SIGNATURE_FILE = "signatures.csv"
_MAX_MAGIC_BYTES = 16
MATCH_PREFIX_BYTES = 2  # leading magic bytes the candidate filter compares


def extract_payload(input_hex: str) -> bytes:
    """Decode raw payload bytes from a transaction input hex string."""
    digits = strip_0x(input_hex)
    try:  # an even run of hex digits and nothing else
        return a2b_hex(digits)
    except ValueError:
        pass
    for position, char in enumerate(digits):
        if char.lower() not in HEX_DIGITS:
            raise InvalidHex(position, f"character {char!r}")
    raise InvalidHex(len(digits), "odd number of hex digits")


@dataclass(frozen=True)
class SignatureEntry:
    format_name: str
    magic: bytes
    offset: int
    extension: str

    def __post_init__(self) -> None:
        if not 1 <= len(self.magic) <= _MAX_MAGIC_BYTES:
            raise ValueError(f"{self.format_name}: magic must be 1-16 bytes")
        if self.offset < 0:
            raise ValueError(f"{self.format_name}: negative offset")


@dataclass
class SignatureDb:
    entries: list[SignatureEntry]
    # (offset, compared length) -> {leading magic bytes: [(row, format)]},
    # the candidate filter's view of the table
    _prefix_index: dict[tuple[int, int], dict[bytes, list[tuple[int, str]]]] = \
        field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("signature table is empty")
        seen = set()
        self._prefix_index = {}
        for row, entry in enumerate(self.entries):
            key = (entry.format_name, entry.magic, entry.offset)
            if key in seen:
                raise ValueError(f"duplicate signature row {key}")
            seen.add(key)
            length = min(len(entry.magic), MATCH_PREFIX_BYTES)
            by_prefix = self._prefix_index.setdefault((entry.offset, length), {})
            by_prefix.setdefault(entry.magic[:length], []).append(
                (row, entry.format_name))

    def extension_for(self, format_name: str) -> str:
        for entry in self.entries:
            if entry.format_name == format_name:
                return entry.extension
        raise KeyError(format_name)


def _signature_row(cells: list[str]) -> SignatureEntry:
    name, magic_hex, offset, extension = cells
    return SignatureEntry(format_name=name, magic=bytes.fromhex(magic_hex),
                          offset=int(offset), extension=extension)


def load_signatures(path: str | Path | None = None) -> SignatureDb:
    """Load a `format,magic_hex,offset,extension` CSV; None loads the bundled table."""
    if path is None:
        path = resources.files("chainlens").joinpath(
            f"data/{_SIGNATURE_FILE}").read_text(encoding="utf-8").splitlines()
    return SignatureDb(entries=read_table(path, ("format",), 4, _signature_row))


def _entry_matches(payload: bytes, entry: SignatureEntry,
                   prefix_bytes: int | None) -> bool:
    length = len(entry.magic) if prefix_bytes is None \
        else min(len(entry.magic), prefix_bytes)
    segment = payload[entry.offset:entry.offset + length]
    return len(segment) == length and segment == entry.magic[:length]


def match_signatures(payload: bytes, db: SignatureDb,
                     full_magic: bool = False) -> list[str]:
    """Names of all candidate formats, in table order.

    The default mode compares only MATCH_PREFIX_BYTES leading magic
    bytes and is a high-recall, false-positive-prone filter; full_magic
    re-checks complete magic sequences instead.
    """
    if full_magic:
        return [entry.format_name for entry in db.entries
                if _entry_matches(payload, entry, None)]
    hits: list[tuple[int, str]] = []
    for (offset, length), by_prefix in db._prefix_index.items():
        hits += by_prefix.get(payload[offset:offset + length], ())
    hits.sort()
    return [name for _, name in hits]


@dataclass
class ScanRow:
    format_name: str
    tx_hash: str
    payload_size: int


@dataclass
class ScanReport:
    rows: list[ScanRow] = field(default_factory=list)
    write_errors: list[str] = field(default_factory=list)


def scan_corpus(store: Store, chain: ChainKind, db: SignatureDb,
                out_dir: str | Path | None = None,
                verify_full: bool = False) -> ScanReport:
    """Scan every stored transaction input against the signature table.

    Each (transaction, matched format) pair yields one report row; with
    `out_dir` set, candidate payloads are also written to disk as
    `<tx_hash>.<extension>`. Write failures are recorded per file, never
    fatal. `verify_full` drops candidates whose complete magic does not
    match.
    """
    report = ScanReport()
    directory = Path(out_dir) if out_dir is not None else None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    for tx_hash, input_hex in store.iter_tx_inputs(chain):
        payload = extract_payload(input_hex)
        names = match_signatures(payload, db)
        if verify_full and names:
            full = set(match_signatures(payload, db, full_magic=True))
            names = [n for n in names if n in full]
        for name in names:
            report.rows.append(ScanRow(format_name=name, tx_hash=tx_hash,
                                       payload_size=len(payload)))
            if directory is not None:
                target = directory / f"{tx_hash}.{db.extension_for(name)}"
                try:
                    target.write_bytes(payload)
                except OSError as exc:
                    log.warning("could not write %s: %s", target, exc)
                    report.write_errors.append(f"{target}: {exc}")
    return report
