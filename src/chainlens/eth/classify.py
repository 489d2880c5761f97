"""Transaction-type classification and zombie-contract reporting.

A creation with an empty input deploys no code, so the resulting account
holds its endowment forever: a zombie. Classification of ordinary sends
depends on whether the recipient was a contract (live or dead) at the
moment the transaction executed.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from ..errors import EmptyChain
from ..model import ChainKind, Transaction, month_key, tally_periods
from ..store import Store
from .contracts import ContractRegistry, iter_creations


class TxClass(enum.Enum):
    TO_ACCOUNT = "to_account"
    TO_CONTRACT = "to_contract"
    CREATE_CONTRACT = "create_contract"
    ZOMBIE_CREATE = "zombie_create"


def classify_transaction(tx: Transaction, registry: ContractRegistry) -> TxClass:
    if tx.recipient is None:
        return TxClass.ZOMBIE_CREATE if tx.input == "" \
            else TxClass.CREATE_CONTRACT
    if registry.created_before(tx.recipient, tx.height, tx.idx):
        return TxClass.TO_CONTRACT
    return TxClass.TO_ACCOUNT


def monthly_class_counts(store: Store, registry: ContractRegistry
                         ) -> list[tuple[str, dict[TxClass, int]]]:
    """Per-UTC-month transaction counts split by class, zero-filled.

    The store counts each month's sends and creations. A dated send to a
    registry address after its creation is TO_CONTRACT, as
    `classify_transaction` decides, and any other send TO_ACCOUNT; the
    sends to registry addresses are the read `find_precreation_funding`
    makes too. Orphans count in no month.
    """
    if store.block_count(ChainKind.ETHEREUM) == 0:
        raise EmptyChain(ChainKind.ETHEREUM.value)
    calls = Counter(
        month for month, _, recipient, height, index, _
        in store.iter_eth_sends_to(record.address for record in registry)
        if month is not None
        and registry.created_before(recipient, height, index))
    items: list[tuple[int, TxClass, int]] = []
    for month, first_time, sends, creations, zombies in \
            store.iter_monthly_eth_classes():
        items += ((first_time, TxClass.TO_ACCOUNT, sends - calls[month]),
                  (first_time, TxClass.TO_CONTRACT, calls[month]),
                  (first_time, TxClass.CREATE_CONTRACT, creations),
                  (first_time, TxClass.ZOMBIE_CREATE, zombies))
    return [(month, {cls: counts[cls] for cls in TxClass})
            for month, counts in tally_periods(items, month_key)]


@dataclass
class ZombieReport:
    count: int = 0
    total_balance: int = 0
    cdf: list[tuple[int, int]] = field(default_factory=list)
    top_by_balance: list[tuple[str, int]] = field(default_factory=list)
    per_creator: list[tuple[str, int]] = field(default_factory=list)


def zombie_report(store: Store, top_k: int = 10) -> ZombieReport:
    """Count zombie creations, their stranded endowments, and who made them."""
    zombies = []
    for tx, address in iter_creations(store):
        if tx.input == "":
            zombies.append((tx.height, address, int(tx.value), tx.sender))
    report = ZombieReport(count=len(zombies),
                          total_balance=sum(z[2] for z in zombies))
    per_height = Counter(height for height, *_ in zombies)
    running = 0
    for height in sorted(per_height):
        running += per_height[height]
        report.cdf.append((height, running))
    report.top_by_balance = sorted(
        ((address, value) for _, address, value, _ in zombies),
        key=lambda kv: (-kv[1], kv[0]))[:top_k]
    creators = Counter(sender for *_, sender in zombies)
    report.per_creator = sorted(creators.items(), key=lambda kv: (-kv[1], kv[0]))
    return report
