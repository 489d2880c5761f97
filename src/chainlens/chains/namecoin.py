"""Namecoin name-operation analytics: fees, merge mining, re-registrations.

Amounts are integers in 10^-8 NMC units. Registration costs a 0.01 NMC
announcement (name_new) plus a 0.005 NMC reveal (name_firstupdate) that
also pays the time-decaying network fee; renewals (name_update) cost the
flat 0.005 NMC. A registration lapses when no renewal lands within the
expiry window, after which the name can be registered again from scratch.

The store reads each name op with its block time (None for an orphan,
whose block is not stored) and counts the merge-mining split itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

from ..errors import AuxPowBeforeActivation, EmptyChain
from ..model import (NAME_OP_KINDS, ChainKind, iso_week_key, tally_periods,
                     utc_date)
from ..store import Store

MERGE_MINING_START_HEIGHT = 19_200  # the first block that may carry auxpow


@dataclass
class FeeSchedule:
    expiry_window_blocks: int = 36_000


def weekly_fee_sums(store: Store) -> list[tuple[str, str, int]]:
    """(ISO week, op kind, sum of actually paid fees) rows, zero-filled.

    Only operation kinds that occur at all get rows; weeks inside the
    observed span with no operations of such a kind are emitted with 0.
    """
    rows = tally_periods(((block_time, kind, int(fee)) for _, block_time,
                          kind, _, fee in store.iter_name_ops()),
                         iso_week_key)
    kinds = [kind for kind in NAME_OP_KINDS
             if any(kind in by_kind for _, by_kind in rows)]
    return [(week, kind, by_kind[kind])
            for week, by_kind in rows for kind in kinds]


_SPLIT_METRICS = ("blocks", "txs", "name_new", "name_firstupdate", "name_update")


@dataclass
class MergeMineSplit:
    """Counts per metric as (normally_mined, merge_mined) pairs."""
    rows: dict[str, tuple[int, int]] = field(default_factory=dict)

    def merged_pct(self, metric: str) -> float:
        normal, merged = self.rows[metric]
        total = normal + merged
        return 100.0 * merged / total if total else 0.0


def merge_mine_split(store: Store) -> MergeMineSplit:
    """Split block/tx/name-op counts by whether the block was merge-mined.

    Blocks without an auxpow tag count as normally mined. An auxpow block
    below the activation height is corrupt input and fatal. An orphan tx,
    whose block is not stored, is mined in neither way and not counted.
    """
    blocks, txs = store.merge_mined_counts()
    if not blocks:
        raise EmptyChain(ChainKind.NAMECOIN.value)
    counts: dict[str, list[int]] = {m: [0, 0] for m in _SPLIT_METRICS}
    for merged, count, lowest in blocks:
        if merged and lowest < MERGE_MINING_START_HEIGHT:
            raise AuxPowBeforeActivation(lowest, MERGE_MINING_START_HEIGHT)
        counts["blocks"][merged] = count
    for merged, kind, count in txs:
        counts["txs"][merged] += count
        if kind is not None:
            counts[f"name_{kind}"][merged] = count
    return MergeMineSplit(rows={m: (c[0], c[1]) for m, c in counts.items()})


def build_name_histories(store: Store
                         ) -> dict[str, list[tuple[int, str, int | None]]]:
    """Each name's (height, kind, block time) events from its reveal and
    renewal operations, ledger-ordered; an orphan op has no time.

    name_new operations carry only a hash and cannot be linked to a name,
    so they do not participate.
    """
    histories: dict[str, list[tuple[int, str, int | None]]] = {}
    for height, block_time, kind, name, _ in store.iter_name_ops():
        if kind != "new":
            histories.setdefault(name, []).append((height, kind, block_time))
    return histories


@dataclass
class ReregReport:
    firstupdates_on_day: int = 0
    reregistrations: list[tuple[str, list[int]]] = field(default_factory=list)
    anomalies: list[tuple[str, list[int]]] = field(default_factory=list)


def detect_reregistrations(store: Store, schedule: FeeSchedule,
                           day: date) -> ReregReport:
    """Find names registered on `day` whose earlier registration expired.

    A prior registration is expired when its last event (reveal or any
    renewal) sits more than the expiry window below the new registration
    height. A re-registration of a name that was still active is reported
    as an anomaly rather than silently dropped.
    """
    histories = build_name_histories(store)
    report = ReregReport()
    for name, events in sorted(histories.items()):
        for position, (height, kind, block_time) in enumerate(events):
            if kind != "firstupdate":
                continue
            if block_time is None or utc_date(block_time) != day:
                continue
            report.firstupdates_on_day += 1
            prior = events[:position]
            prior_registrations = [h for h, k, _ in prior
                                   if k == "firstupdate"]
            if not prior_registrations:
                continue
            last_active_height = prior[-1][0]
            entry = (name, prior_registrations)
            if last_active_height + schedule.expiry_window_blocks < height:
                report.reregistrations.append(entry)
            else:
                report.anomalies.append(entry)
    return report
