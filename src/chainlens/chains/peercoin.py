"""Peercoin block classification: proof-of-stake vs proof-of-work over time.

Classification trusts the proof tag attached to each ingested block;
reconstructing coinstake structure would need UTXO context the store does
not keep. The store counts each month's blocks by proof.
"""

from __future__ import annotations

from ..errors import EmptyChain
from ..model import ChainKind, month_key, tally_periods
from ..store import Store


def pos_pow_counts(store: Store) -> list[tuple[str, int, int]]:
    """(month, pos_count, pow_count) per UTC calendar month, zero-filled."""
    rows = tally_periods(store.iter_monthly_proofs(), month_key)
    if not rows:
        raise EmptyChain(ChainKind.PEERCOIN.value)
    return [(month, counts["pos"], counts["pow"])
            for month, counts in rows]
