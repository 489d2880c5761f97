"""Edit-distance similarity of contract bytecode against reference programs.

Distances are computed over the hex-character text of the bytecode (two
characters per byte), so a substitution budget of 1000 corresponds to 500
bytes of ASCII source. The banded computation gives up as soon as the
distance provably exceeds the cutoff and reports that as None.
"""

from __future__ import annotations

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
    big = cutoff + 1
    prev = [j if j <= cutoff else big for j in range(len_b + 1)]
    for i in range(1, len_a + 1):
        lo = max(1, i - cutoff)
        hi = min(len_b, i + cutoff)
        cur = [big] * (len_b + 1)
        if i <= cutoff:
            cur[0] = i
            row_min = i
        else:
            row_min = big
        char_a = a[i - 1]
        for j in range(lo, hi + 1):
            best = prev[j - 1] + (char_a != b[j - 1])
            up = prev[j] + 1
            if up < best:
                best = up
            left = cur[j - 1] + 1
            if left < best:
                best = left
            cur[j] = best
            if best < row_min:
                row_min = best
        if row_min > cutoff:
            return None
        prev = cur
    return prev[len_b] if prev[len_b] <= cutoff else None


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
    codes = [strip_0x(code).lower() for code in corpus]
    rows = []
    for name, bytecode, optimized in references:
        reference_code = strip_0x(bytecode).lower()
        row = SimilarityRow(reference=name, optimized=optimized)
        for code in codes:
            distance = levenshtein(code, reference_code, buckets.heavy_max)
            if distance is None:
                continue
            if distance == 0:
                row.exact += 1
            elif distance <= buckets.minor_max:
                row.minor += 1
            else:
                row.heavy += 1
        rows.append(row)
    return rows
