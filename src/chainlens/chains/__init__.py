"""Namecoin and Peercoin chain analytics."""

from .namecoin import (FeeSchedule, MergeMineSplit, NameHistory, ReregReport,
                       classify_name_op, detect_reregistrations,
                       merge_mine_split, weekly_fee_sums)
from .peercoin import pos_pow_counts

__all__ = [
    "FeeSchedule", "MergeMineSplit", "NameHistory", "ReregReport",
    "classify_name_op", "detect_reregistrations", "merge_mine_split",
    "weekly_fee_sums", "pos_pow_counts",
]
