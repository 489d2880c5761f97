"""Contract lifecycle registry, address derivation, lifetimes, pre-creation funding.

The base ledger only reveals top-level creations; creations performed by
other contracts and terminations require execution traces, so those arrive
as NDJSON side-files with the shapes:

    {"type":"internal_create","parent":"0x..","address":"0x..","height":N}
    {"type":"terminate","address":"0x..","height":N,"refund_to":"0x..|null"}
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Iterator

from .. import rlp
from ..errors import SchemaViolation
from ..keccak import keccak256, keccak256_batch
from ..model import Transaction, hex_field, int_field, normalize_hex
from ..store import RecordSource, Store, read_records

log = logging.getLogger(__name__)

NULL_ADDRESS = "0" * 40
DEFAULT_LIFETIME_EDGES = (100, 10_000)


class CreatorKind(enum.Enum):
    BY_TRANSACTION = "by_transaction"
    BY_CONTRACT = "by_contract"


@dataclass
class ContractRecord:
    address: str
    creation_height: int
    creator: str
    creator_kind: CreatorKind
    creation_index: int = -1  # index in block; -1 = before any tx (internal)
    termination_height: int | None = None


class ContractRegistry:
    def __init__(self) -> None:
        self._records: dict[str, ContractRecord] = {}

    def add(self, record: ContractRecord) -> None:
        """Register a creation; of two for one address, whatever their
        order, the earlier by (height, index) is kept."""
        existing = self._records.get(record.address)
        if existing is not None:
            kept = min(existing, record, key=lambda r: (r.creation_height,
                                                         r.creation_index))
            log.warning("contract %s created twice (heights %d, %d); keeping "
                        "the one at height %d", record.address,
                        existing.creation_height, record.creation_height,
                        kept.creation_height)
            record = kept
        self._records[record.address] = record

    def get(self, address: str) -> ContractRecord | None:
        return self._records.get(address)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ContractRecord]:
        return iter(self._records.values())

    def created_before(self, address: str, height: int, index: int) -> bool:
        """Was the address a contract (live or dead) before (height, index)?"""
        record = self._records.get(address)
        if record is None:
            return False
        return (record.creation_height, record.creation_index) < (height, index)


def _creation_rlp(sender: str, nonce: int) -> bytes:
    """RLP(sender, nonce), the preimage of a created contract's address."""
    sender_bytes = bytes.fromhex(normalize_hex(sender, byte_len=20))
    return rlp.encode([sender_bytes, rlp.encode_uint(nonce)])


def derive_contract_address(sender: str, nonce: int) -> str:
    """Address of the contract created by `sender` at account nonce `nonce`."""
    return keccak256(_creation_rlp(sender, nonce))[-20:].hex()


def iter_creations(store: Store) -> Iterator[tuple[Transaction, str]]:
    """Yield (creation_tx, derived_address) in ledger order.

    The account nonce of each creation is the number of its sender's
    earlier stored eth txs, counted by the store through its sender index;
    this assumes the ingested dump is complete for every creating sender
    from its first transaction onward. Only the creations are decoded, and
    every address is derived as `derive_contract_address` would, in one
    batch hash.
    """
    creations = list(store.iter_eth_creations())
    digests = keccak256_batch([_creation_rlp(tx.sender, nonce)
                               for tx, nonce in creations])
    for (tx, _), digest in zip(creations, digests):
        yield tx, digest[-20:].hex()


def _internal_create(obj: dict) -> ContractRecord:
    return ContractRecord(address=hex_field(obj, "address", 20),
                          creator=hex_field(obj, "parent", 20),
                          creation_height=int_field(obj, "height", minimum=0),
                          creator_kind=CreatorKind.BY_CONTRACT)


def _termination(obj: dict) -> tuple[str, int]:
    return hex_field(obj, "address", 20), int_field(obj, "height", minimum=0)


def build_contract_registry(store: Store,
                            internal_creations: RecordSource | None = None,
                            terminations: RecordSource | None = None
                            ) -> ContractRegistry:
    """Assemble the contract lifecycle registry from the ledger and side-files.

    A contract's termination repeated at the same height is a no-op; at
    another height it is a SchemaViolation on field "height".
    """
    registry = ContractRegistry()
    for tx, address in iter_creations(store):
        registry.add(ContractRecord(
            address=address,
            creation_height=tx.height,
            creator=tx.sender,
            creator_kind=CreatorKind.BY_TRANSACTION,
            creation_index=tx.idx))
    for _, record in read_records(internal_creations or (),
                                  ("internal_create",), _internal_create):
        registry.add(record)
    for line_no, (address, height) in read_records(
            terminations or (), ("terminate",), _termination):
        record = registry.get(address)
        if record is None:
            log.warning("termination for unknown contract %s ignored", address)
            continue
        if height < record.creation_height:
            raise SchemaViolation(line_no, "height",
                                  f"termination at {height} precedes creation "
                                  f"at {record.creation_height}")
        if record.termination_height not in (None, height):
            raise SchemaViolation(line_no, "height",
                                  f"{address} is already terminated at "
                                  f"{record.termination_height}")
        record.termination_height = height
    return registry


def find_precreation_funding(store: Store, registry: ContractRegistry
                             ) -> list[tuple[str, str, int]]:
    """Sends of a non-zero value to registry addresses that were not yet
    contracts, by `ContractRegistry.created_before`: a send earlier in its
    contract's creation block counts, and an internal creation (index -1)
    precedes every send in its block. An orphan send counts too, though
    `monthly_class_counts` puts it in no month.

    Returns (funding_tx_hash, contract_address, creation_height) tuples in
    ledger order of the funding transaction.
    """
    return [(tx_hash, recipient, registry.get(recipient).creation_height)
            for _, tx_hash, recipient, height, index, paid
            in store.iter_eth_sends_to(record.address for record in registry)
            if paid and not registry.created_before(recipient, height, index)]


def check_lifetime_edges(bucket_edges: tuple[int, ...]) -> None:
    """Raise ValueError unless the histogram bucket edges strictly increase."""
    if list(bucket_edges) != sorted(set(bucket_edges)):
        raise ValueError("bucket edges must be strictly increasing")


def lifetime_histogram(registry: ContractRegistry,
                       bucket_edges: tuple[int, ...] = DEFAULT_LIFETIME_EDGES
                       ) -> dict[str, int]:
    """Histogram of termination_height - creation_height for dead contracts.

    Buckets are closed above: an edge of 100 takes every lifetime <= 100.
    Returns an empty mapping when nothing has terminated.
    """
    check_lifetime_edges(bucket_edges)
    lifetimes = [record.termination_height - record.creation_height
                 for record in registry if record.termination_height is not None]
    if not lifetimes:
        return {}
    labels = [f"<={edge}" for edge in bucket_edges] + [f">{bucket_edges[-1]}"]
    histogram = {label: 0 for label in labels}
    for lifetime in lifetimes:
        for edge, label in zip(bucket_edges, labels):
            if lifetime <= edge:
                histogram[label] += 1
                break
        else:
            histogram[labels[-1]] += 1
    return histogram
