"""Edit-distance similarity of contract bytecode against reference programs.

Distances are computed over the hex-character text of the bytecode (two
characters per byte), so a substitution budget of 1000 corresponds to 500
bytes of ASCII source. `levenshtein` is the bit-parallel edit distance of
Myers (J. ACM 46(3), 1999) and Hyyrö (2003). Its cutoff is inclusive: a
distance beyond it is reported as None, as soon as it is proven.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..model import strip_0x


def levenshtein(a: str, b: str, cutoff: int) -> int | None:
    """Unit-cost edit distance, or None when it exceeds `cutoff`."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if a == b:
        return 0
    len_a, len_b = len(a), len(b)
    if abs(len_a - len_b) > cutoff:
        return None
    if not b:
        return len_a
    # bit j stands for b[j], DP index j + 1; a char absent from b has mask 0
    match: dict[str, int] = {}
    for j, char in enumerate(b):
        match[char] = match.get(char, 0) | (1 << j)
    full, last = (1 << len_b) - 1, 1 << (len_b - 1)
    plus, minus = full, 0   # D[i][j+1] - D[i][j] is +1 / -1; all +1 at i = 0
    score = len_b
    for i, char in enumerate(a, start=1):
        eq = match.get(char, 0)
        x_v = eq | minus
        x_h = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | (full & ~(x_h | plus))
        h_minus = plus & x_h
        score += bool(h_plus & last) - bool(h_minus & last)
        if score - (len_a - i) > cutoff:
            return None
        # the carry in at j = 0 is +1, because D[i][0] = i
        h_plus = (h_plus << 1) | 1
        h_minus <<= 1
        plus = h_minus | (full & ~(x_v | h_plus))
        minus = h_plus & x_v
    return score if score <= cutoff else None


@dataclass
class SimilarityBuckets:
    """Exact is distance 0; minor is (0, minor_max]; heavy is (minor_max, heavy_max]."""
    minor_max: int = 100
    heavy_max: int = 1000

    def __post_init__(self) -> None:
        if not 0 < self.minor_max < self.heavy_max:
            raise ValueError("bucket bounds must satisfy "
                             "0 < minor_max < heavy_max")


@dataclass
class SimilarityRow:
    reference: str
    optimized: bool
    exact: int = 0
    minor: int = 0
    heavy: int = 0


def bucket_similarity(corpus: Sequence[str],
                      references: Sequence[tuple[str, str, bool]],
                      buckets: SimilarityBuckets | None = None
                      ) -> list[SimilarityRow]:
    """Count corpus contracts per distance bucket against each reference.

    `corpus` holds bytecode hex strings; `references` entries are
    (name, bytecode_hex, optimized). Distances beyond heavy_max are
    discarded entirely.
    """
    if buckets is None:
        buckets = SimilarityBuckets()
    codes = Counter(strip_0x(code).lower() for code in corpus)
    rows = []
    for name, bytecode, optimized in references:
        reference_code = strip_0x(bytecode).lower()
        row = SimilarityRow(reference=name, optimized=optimized)
        for code, copies in codes.items():
            distance = levenshtein(code, reference_code, buckets.heavy_max)
            if distance is None:
                continue
            if distance == 0:
                row.exact += copies
            elif distance <= buckets.minor_max:
                row.minor += copies
            else:
                row.heavy += copies
        rows.append(row)
    return rows
