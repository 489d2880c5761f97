"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark runs this kernel before the first command of a pass and
after every command. A command's time divided by the mean of the two
kernel runs around it is the command's time in kernel units. The host's
slow spells (other tenants on a shared machine) stretch the command and
the kernel alike, so the quotient stays put while raw seconds swing.

The kernel uses no chainlens code, so a change to the program moves the
command's time and leaves the kernel's alone. Its mix follows the
program's: integer dynamic programming over lists (edit distance), bit
mixing on Python ints (Keccak), dict and str churn, JSON decoding
(ingest) and SQLite rows (the store).
"""

from __future__ import annotations

import json
import sqlite3
import time

_A = "".join("0123456789abcdef"[(i * 7 + i // 5) % 16] for i in range(180))
_B = "".join("0123456789abcdef"[(i * 11 + i // 3) % 16] for i in range(180))
_DOC = json.dumps([{"hash": f"0x{i:064x}", "height": i, "value": str(i * 977),
                    "txs": [f"0x{j:064x}" for j in range(i % 4)]}
                   for i in range(1500)])
_MASK = (1 << 64) - 1


def _edit_distance() -> int:
    prev = list(range(len(_B) + 1))
    for i, ca in enumerate(_A, 1):
        cur = [i]
        for j, cb in enumerate(_B, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _bit_mix() -> int:
    lanes = list(range(1, 26))
    for r in range(1000):
        for k in range(25):
            x = lanes[k] ^ lanes[(k + 5) % 25] ^ (r * 0x9E3779B97F4A7C15)
            lanes[k] = ((x << 13) | (x >> 51)) & _MASK
    return lanes[0]


def _dict_churn() -> int:
    table = {}
    for i in range(12000):
        table[f"0x{(i * 2654435761) & 0xFFFFFFFF:08x}"] = i
    return sum(1 for key in table if key.endswith("f"))


def _decode_and_store() -> int:
    rows = json.loads(_DOC)
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE b (hash TEXT PRIMARY KEY, height INT, "
                     "value TEXT, n INT)")
        conn.executemany("INSERT INTO b VALUES (?, ?, ?, ?)",
                         ((r["hash"], r["height"], r["value"], len(r["txs"]))
                          for r in rows))
        return sum(n for (n,) in conn.execute("SELECT n FROM b ORDER BY hash"))
    finally:
        conn.close()


def run_kernel() -> tuple:
    """(wall seconds, CPU seconds) of one run of the kernel."""
    start, cpu = time.perf_counter(), time.process_time()
    _edit_distance()
    _bit_mix()
    _dict_churn()
    _decode_and_store()
    return time.perf_counter() - start, time.process_time() - cpu
