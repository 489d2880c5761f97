"""Peercoin block classification: proof-of-stake vs proof-of-work over time.

Classification trusts the proof tag attached to each ingested block;
reconstructing coinstake structure would need UTXO context the store does
not keep.
"""

from __future__ import annotations

from ..errors import EmptyChain, MissingProofTag
from ..model import ChainKind, ProofKind, fill_periods, month_key
from ..store import Store


def pos_pow_counts(store: Store) -> list[tuple[str, int, int]]:
    """(month, pos_count, pow_count) per UTC calendar month, zero-filled."""
    counts: dict[str, list[int]] = {}
    for block in store.iter_blocks(ChainKind.PEERCOIN):
        if block.proof is None:
            raise MissingProofTag(block.height)
        tally = counts.setdefault(month_key(block.timestamp), [0, 0])
        tally[block.proof is ProofKind.POW] += 1
    if not counts:
        raise EmptyChain(ChainKind.PEERCOIN.value)
    return [(month, pos, pow_)
            for month, (pos, pow_) in fill_periods(counts, (0, 0))]
