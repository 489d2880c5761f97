"""Seeded inputs, CLI steps and planted truth for the benchmark workloads.

Each builder writes the files the CLI reads into a directory and returns
the command steps that run on them. Every step carries a check that
compares the report with what the generator planted, so a fast but wrong
program fails the benchmark. The program under test sees only the files.

Sizes are fixed per workload and the seed changes only the content, so
every seed asks for the same amount of work.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import random
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SIGNATURES_CSV = ROOT / "src" / "chainlens" / "data" / "signatures.csv"
ORACLES_PY = ROOT / "tests" / "oracles.py"

Check = Callable[[str, str], list]  # (report text, captured stderr) -> problems


@dataclass
class Step:
    """One CLI invocation: `name` keys its timing, `argv` follows --db/--out."""
    name: str
    argv: list
    check: Check
    lines: int = 0  # NDJSON lines read, for ingest steps


@dataclass
class Workload:
    name: str
    load: list      # steps run on a fresh store at the start of every pass
    analysis: list  # steps run after the load steps
    props: dict = field(default_factory=dict)  # input properties, recorded per run

    @property
    def steps(self) -> list:
        return self.load + self.analysis


def _load_oracles():
    """The repository's independent reference implementations, imported read-only."""
    spec = importlib.util.spec_from_file_location("chainlens_test_oracles",
                                                  ORACLES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- report checks -----------------------------------------------------------

def rows_check(header, rows) -> Check:
    """Report must be exactly this CSV table."""
    expected = [[str(v) for v in header]] + [[str(v) for v in row]
                                             for row in rows]

    def check(text: str, err: str) -> list:
        got = list(csv.reader(io.StringIO(text)))
        if got == expected:
            return []
        for i, (g, e) in enumerate(zip(got, expected)):
            if g != e:
                return [f"row {i}: got {g}, expected {e}"]
        return [f"{len(got)} rows, expected {len(expected)}"]
    return check


def with_stderr_line(check: Check, line: str) -> Check:
    """Also require one diagnostic line on stderr."""
    def both(text: str, err: str) -> list:
        problems = check(text, err)
        if line not in err.splitlines():
            problems.append(f"stderr lacks {line!r}")
        return problems
    return both


# -- shared helpers -------------------------------------------------------------

def _month(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m")


def _day(ts: int) -> date:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


def _months_between(first: str, last: str) -> list:
    y, m = map(int, first.split("-"))
    out = []
    while f"{y:04d}-{m:02d}" <= last:
        out.append(f"{y:04d}-{m:02d}")
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def _iso_week(ts: int) -> str:
    y, w, _ = _day(ts).isocalendar()
    return f"{y}-W{w:02d}"


def _weeks_between(first_ts: int, last_ts: int) -> list:
    monday = _day(first_ts) - timedelta(days=_day(first_ts).weekday())
    out = []
    while monday <= _day(last_ts):
        y, w, _ = monday.isocalendar()
        out.append(f"{y}-W{w:02d}")
        monday += timedelta(days=7)
    return out


def _hex(rng: random.Random, nbytes: int) -> str:
    return rng.randbytes(nbytes).hex()


def _malformed_line(rng: random.Random, chain: str) -> str:
    """A line ingest must reject: bad JSON, bad hex, bad type, chain or amount."""
    kind = rng.randrange(5)
    base = {"type": "tx", "chain": chain, "hash": "0x" + _hex(rng, 32),
            "height": 1, "index": 0, "from": "0x" + _hex(rng, 20),
            "to": None, "value": "1", "input": ""}
    if kind == 0:
        return json.dumps(base)[:40]
    if kind == 1:
        base["hash"] = "0x" + "zz" * 32
    elif kind == 2:
        base["type"] = "receipt"
    elif kind == 3:
        base["chain"] = "btc"
    else:
        base["value"] = "-5"
    return json.dumps(base)


def _write_ndjson(path: Path, lines: list, malformed: int, chain: str,
                  rng: random.Random) -> int:
    """Write `lines` with `malformed` bad lines mixed in; returns the line count."""
    lines = list(lines)
    for _ in range(malformed):
        lines.insert(rng.randrange(len(lines) + 1), _malformed_line(rng, chain))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def _block_line(chain: str, height: int, block_hash: str, parent: str,
                time_: int, tx_hashes: list, **extra) -> str:
    obj = {"type": "block", "chain": chain, "height": height,
           "hash": "0x" + block_hash, "parent": "0x" + parent, "time": time_,
           "txs": ["0x" + h for h in tx_hashes]}
    obj.update(extra)
    return json.dumps(obj, separators=(",", ":"))


def _ingest_steps(chain: str, first: Path, first_lines: int, first_truth,
                  again: Path, again_lines: int, again_truth) -> tuple:
    header = ("blocks", "txs", "rejected")
    return (Step("ingest", ["ingest", str(first), "--chain", chain],
                 rows_check(header, [first_truth]), first_lines),
            Step("ingest_redelivery", ["ingest", str(again), "--chain", chain],
                 rows_check(header, [again_truth]), again_lines))


def _split_blocks(n_blocks: int) -> tuple:
    """First load covers [0, 75%); re-delivery covers [60%, 100%)."""
    return int(n_blocks * 0.75), int(n_blocks * 0.60)


# -- eth-ledger -------------------------------------------------------------------

ETH_SIZES = {
    "full": dict(blocks=1200, txs_per_block=10, senders=600, creations=360,
                 zombies=90, prefund=40, terminations=80, magic=180,
                 malformed=(50, 10), edges="30,300"),
    "tiny": dict(blocks=40, txs_per_block=5, senders=20, creations=12,
                 zombies=4, prefund=3, terminations=4, magic=6,
                 malformed=(3, 2), edges="3,15"),
}


def _signature_table() -> list:
    """(format, magic, offset) rows of the bundled table, read directly."""
    with open(SIGNATURES_CSV, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [(name.strip(), bytes.fromhex(magic.strip()), int(offset))
            for name, magic, offset, _ext in rows[1:] if name]


def _expected_matches(payload: bytes, table: list) -> list:
    """Formats whose first two magic bytes sit at their offset in `payload`."""
    names = []
    for name, magic, offset in table:
        want = magic[:2]
        if payload[offset:offset + len(want)] == want:
            names.append(name)
    return names


def build_eth_ledger(directory: Path, seed: int, size: str = "full") -> Workload:
    p = ETH_SIZES[size]
    rng = random.Random(f"eth-ledger:{seed}")
    oracles = _load_oracles()
    table = _signature_table()
    plantable = [row for row in table if row[2] <= 64]
    n_blocks, per = p["blocks"], p["txs_per_block"]
    n = n_blocks * per
    step = 365 * 86400 // n_blocks
    t0 = 1451606400 + rng.randrange(28 * 86400)
    times = [t0 + h * step + rng.randrange(step // 2) for h in range(n_blocks)]

    senders = [_hex(rng, 20) for _ in range(p["senders"])]
    weights = [1.0 / (k + 1) for k in range(len(senders))]
    tx_sender = rng.choices(senders, weights, k=n)
    eoas = [_hex(rng, 20) for _ in range(2 * p["senders"])]
    creates = sorted(rng.sample(range(per, n), p["creations"]))
    create_set = set(creates)
    zombie_set = set(rng.sample(creates, p["zombies"]))

    nonces: dict = {}
    contract_at: dict = {}
    for pos in range(n):
        sender = tx_sender[pos]
        nonce = nonces.get(sender, 0)
        nonces[sender] = nonce + 1
        if pos in create_set:
            contract_at[pos] = oracles.contract_address_oracle(sender, nonce)

    # value sent to an address in a block before its contract is created
    prefund: dict = {}
    for c in rng.sample(creates, p["prefund"]):
        options = [q for q in range((c // per) * per)
                   if q not in create_set and q not in prefund]
        prefund[rng.choice(options)] = contract_at[c]
    free = [q for q in range(n) if q not in create_set and q not in prefund]
    magic_set = set(rng.sample(free, p["magic"]))

    txs = []  # (hash, height, index, sender, recipient, value, input_hex)
    created: list = []
    for pos in range(n):
        height, index = divmod(pos, per)
        sender = tx_sender[pos]
        if pos in create_set:
            recipient = None
            if pos in zombie_set:
                value, data = rng.randrange(10**15, 10**18), ""
            else:
                value = rng.choice((0, 0, rng.randrange(1, 10**18)))
                data = "6080604052" + _hex(rng, rng.randrange(60, 300))
        elif pos in prefund:
            recipient, value, data = prefund[pos], rng.randrange(1, 10**18), ""
        elif created and rng.random() < 0.15:
            recipient = rng.choice(created)
            value = rng.choice((0, rng.randrange(1, 10**17)))
            data = _hex(rng, 4 + 32 * rng.randrange(4))
        else:
            recipient = rng.choice(eoas)
            value = rng.randrange(1, 10**19)
            data = _hex(rng, rng.randrange(8, 120)) if rng.random() < 0.1 else ""
        if pos in magic_set:
            _name, magic, offset = rng.choice(plantable)
            data = (_hex(rng, offset) + magic.hex()
                    + _hex(rng, rng.randrange(16, 160)))
        txs.append((_hex(rng, 32), height, index, sender, recipient, value, data))
        if pos in create_set:
            created.append(contract_at[pos])

    block_hashes = [_hex(rng, 32) for _ in range(n_blocks + 1)]

    def block_lines(lo: int, hi: int) -> list:
        lines = []
        for h in range(lo, hi):
            block_txs = txs[h * per:(h + 1) * per]
            lines.append(_block_line("eth", h, block_hashes[h + 1],
                                     block_hashes[h], times[h],
                                     [t[0] for t in block_txs]))
            for tx_hash, height, index, sender, to, value, data in block_txs:
                lines.append(json.dumps(
                    {"type": "tx", "chain": "eth", "hash": "0x" + tx_hash,
                     "height": height, "index": index, "from": "0x" + sender,
                     "to": None if to is None else "0x" + to,
                     "value": str(value), "input": "0x" + data, "gas": 90000},
                    separators=(",", ":")))
        return lines

    directory.mkdir(parents=True, exist_ok=True)
    first_hi, again_lo = _split_blocks(n_blocks)
    bad_first, bad_again = p["malformed"]
    dump, redelivery = directory / "eth.ndjson", directory / "eth-again.ndjson"
    dump_lines = _write_ndjson(dump, block_lines(0, first_hi), bad_first,
                               "eth", rng)
    again_lines = _write_ndjson(redelivery, block_lines(again_lo, n_blocks),
                                bad_again, "eth", rng)

    # terminations of live (non-zombie) contracts
    killed = rng.sample(sorted(set(creates) - zombie_set), p["terminations"])
    lifetimes = []
    kill_lines = []
    for c in killed:
        born = c // per
        dies = born + rng.randrange(n_blocks - born)
        lifetimes.append(dies - born)
        kill_lines.append(json.dumps(
            {"type": "terminate", "address": "0x" + contract_at[c],
             "height": dies,
             "refund_to": rng.choice((None, "0x" + rng.choice(eoas)))}))
    kills = directory / "terminations.ndjson"
    kills.write_text("\n".join(kill_lines) + "\n", encoding="utf-8")

    # planted truth
    months: dict = {}
    classes: dict = {}
    order = ("to_account", "to_contract", "create_contract", "zombie_create")
    created_at = {contract_at[c]: divmod(c, per) for c in creates}
    zombies = [t for t in txs if t[4] is None and t[6] == ""]
    precreation = []
    poison = []
    for tx_hash, height, index, _sender, to, value, data in txs:
        month = _month(times[height])
        months[month] = months.get(month, 0) + 1
        if to is None:
            cls = "zombie_create" if data == "" else "create_contract"
        elif to in created_at and created_at[to] < (height, index):
            cls = "to_contract"
        else:
            cls = "to_account"
        classes.setdefault(month, dict.fromkeys(order, 0))[cls] += 1
        if to in created_at and value > 0 and created_at[to][0] > height:
            precreation.append((tx_hash, to, created_at[to][0]))
        if data:
            payload = bytes.fromhex(data)
            poison.extend((name, tx_hash, len(payload))
                          for name in _expected_matches(payload, table))
    span = _months_between(min(months), max(months))
    edges = [int(e) for e in p["edges"].split(",")]
    labels = [f"<={e}" for e in edges] + [f">{edges[-1]}"]
    histogram = dict.fromkeys(labels, 0)
    for life in lifetimes:
        histogram[next((f"<={e}" for e in edges if life <= e), labels[-1])] += 1

    load = list(_ingest_steps(
        "eth", dump, dump_lines, (first_hi, first_hi * per, bad_first),
        redelivery, again_lines, (n_blocks - first_hi,
                                  (n_blocks - first_hi) * per, bad_again)))
    analysis = [
        Step("report_tx-monthly", ["report", "tx-monthly", "--chain", "eth"],
             rows_check(("month", "txs"),
                        [(m, months.get(m, 0)) for m in span])),
        Step("eth_classify", ["eth", "classify"],
             rows_check(("month",) + order,
                        [(m,) + tuple(classes.get(m, dict.fromkeys(order, 0))[c]
                                      for c in order) for m in span])),
        Step("eth_zombies", ["eth", "zombies"],
             rows_check(("zombie_count", "total_balance"),
                        [(len(zombies), sum(t[5] for t in zombies))])),
        Step("eth_lifetimes", ["eth", "lifetimes", "--terminated", str(kills),
                               "--edges", p["edges"]],
             rows_check(("bucket", "contracts"), list(histogram.items()))),
        Step("eth_precreation", ["eth", "precreation"],
             rows_check(("funding_tx", "contract", "creation_height"),
                        precreation)),
        Step("poison_scan", ["poison", "scan"],
             rows_check(("format", "tx_hash", "payload_size"), poison)),
    ]
    props = {
        "lines": dump_lines + again_lines,
        "bytes": dump.stat().st_size + redelivery.stat().st_size,
        "creation_share": len(creates) / n,
        "zombie_share": len(zombie_set) / len(creates),
        "payload_share": sum(1 for t in txs if t[6]) / n,
        "planted_poison": len(magic_set),
    }
    return Workload("eth-ledger", load, analysis, props)


# -- altcoin-ledger ----------------------------------------------------------------

NMC_AUXPOW_START = 19_200  # chainlens FeeSchedule.merge_mining_start_height

ALT_SIZES = {
    "full": dict(nmc_blocks=2000, ppc_blocks=2000, names=200, rereg=8,
                 anomalies=5, plain=0.5, ppc_txs=0.1, window=500,
                 malformed=(12, 4)),
    "tiny": dict(nmc_blocks=160, ppc_blocks=60, names=8, rereg=2,
                 anomalies=2, plain=0.5, ppc_txs=0.2, window=20,
                 malformed=(2, 1)),
}


def build_altcoin_ledger(directory: Path, seed: int,
                         size: str = "full") -> Workload:
    p = ALT_SIZES[size]
    rng = random.Random(f"altcoin-ledger:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    window = p["window"]

    # Namecoin: 20-minute blocks straddling the merge-mining activation height
    n_nmc = p["nmc_blocks"]
    h0 = NMC_AUXPOW_START - n_nmc // 2
    t0 = 1305000000 + rng.randrange(86400)
    nmc_time = {h0 + k: t0 + 1200 * k + rng.randrange(600) for k in range(n_nmc)}
    heights = sorted(nmc_time)
    h_end = heights[-1]
    auxpow = {}
    for h in heights:
        if h >= NMC_AUXPOW_START:
            auxpow[h] = rng.random() < 0.8
        else:
            auxpow[h] = rng.choice((False, None))
    day = _day(nmc_time[heights[int(n_nmc * 0.85)]])
    day_heights = [h for h in heights if _day(nmc_time[h]) == day]
    first_day_height = day_heights[0]

    events = []  # (height, kind, name, fee)

    def register(name: str, height: int) -> None:
        events.append((height - 1, "new", name, 1_000_000))
        events.append((height, "firstupdate", name,
                       500_000 + rng.randrange(0, 5_000_000)))

    names = [f"d/{_hex(rng, 5)}" for _ in range(p["names"] + p["rereg"]
                                                  + p["anomalies"])]
    background = names[:p["names"]]
    rereg = names[p["names"]:p["names"] + p["rereg"]]
    anomalous = names[p["names"] + p["rereg"]:]
    for name in background:
        h = rng.randrange(h0 + 1, h_end - 2)
        register(name, h)
        for _ in range(rng.randrange(3)):
            h = rng.randrange(h + 1, h_end + 1) if h < h_end else h_end
            if h > events[-1][0]:
                events.append((h, "update", name, 500_000))
    early_hi = first_day_height - window - 2
    for name in rereg:  # lapsed long before the day: a re-registration
        register(name, rng.randrange(h0 + 1, early_hi))
        register(name, rng.choice(day_heights[1:]))
    for name in anomalous:  # renewed within the window: an early re-claim
        h1 = rng.randrange(h0 + 1, early_hi)
        register(name, h1)
        again = rng.choice(day_heights[1:])
        events.append((rng.randrange(again - window, again), "update", name,
                       500_000))
        register(name, again)

    by_height: dict = {}
    for event in events:
        by_height.setdefault(event[0], []).append(event)
    nmc_txs = []  # (hash, height, index, event or None)
    for h in heights:
        block_events = by_height.get(h, [])
        rng.shuffle(block_events)
        count = len(block_events) + (1 if rng.random() < p["plain"] else 0)
        items = block_events + [None] * (count - len(block_events))
        for index, event in enumerate(items):
            nmc_txs.append((_hex(rng, 32), h, index, event))

    def nmc_tx_line(tx) -> str:
        tx_hash, h, index, event = tx
        obj = {"type": "tx", "chain": "nmc", "hash": "0x" + tx_hash,
               "height": h, "index": index, "from": "N" + _hex(rng, 12),
               "to": "N" + _hex(rng, 12), "value": str(rng.randrange(10**9)),
               "fee": str(rng.randrange(10**6))}
        if event is not None:
            _h, kind, name, fee = event
            op = {"kind": kind, "paid_fee": str(fee)}
            if kind == "new":
                op["name_hash"] = _hex(rng, 20)
            else:
                op["name"] = name
            obj["name_op"] = op
        return json.dumps(obj, separators=(",", ":"))

    # Peercoin: two-hour blocks, proof of stake growing over time
    n_ppc = p["ppc_blocks"]
    p0 = 1345000000 + rng.randrange(86400)
    ppc = []  # (height, time, proof, tx hashes)
    for h in range(n_ppc):
        proof = "pos" if rng.random() < 0.3 + 0.6 * h / n_ppc else "pow"
        tx_hashes = [_hex(rng, 32)] if rng.random() < p["ppc_txs"] else []
        ppc.append((h, p0 + 7200 * h + rng.randrange(3600), proof, tx_hashes))

    # each record is rendered once, so a re-delivered line repeats it exactly
    nmc_text = {tx[0]: nmc_tx_line(tx) for tx in nmc_txs}
    txs_of: dict = {}
    for tx in nmc_txs:
        txs_of.setdefault(tx[1], []).append(tx)
    ppc_text = {
        tx_hash: json.dumps(
            {"type": "tx", "chain": "ppc", "hash": "0x" + tx_hash,
             "height": h, "index": index, "from": "P" + _hex(rng, 12),
             "to": "P" + _hex(rng, 12), "value": str(rng.randrange(10**9))},
            separators=(",", ":"))
        for h, _time, _proof, tx_hashes in ppc
        for index, tx_hash in enumerate(tx_hashes)}

    def nmc_lines(lo: int, hi: int) -> list:
        lines = []
        for h in heights[lo:hi]:
            extra = {} if auxpow[h] is None else {"auxpow": auxpow[h]}
            block_txs = txs_of.get(h, [])
            lines.append(_block_line("nmc", h, _block_hash("nmc", seed, h),
                                     _block_hash("nmc", seed, h - 1),
                                     nmc_time[h], [t[0] for t in block_txs],
                                     **extra))
            lines.extend(nmc_text[tx[0]] for tx in block_txs)
        return lines

    def ppc_lines(lo: int, hi: int) -> list:
        lines = []
        for h, time_, proof, tx_hashes in ppc[lo:hi]:
            lines.append(_block_line("ppc", h, _block_hash("ppc", seed, h),
                                     _block_hash("ppc", seed, h - 1), time_,
                                     tx_hashes, proof=proof))
            lines.extend(ppc_text[tx_hash] for tx_hash in tx_hashes)
        return lines

    bad_first, bad_again = p["malformed"]
    load_first, load_again = [], []
    for chain, n_blocks, make, tx_count in (
            ("nmc", n_nmc, nmc_lines,
             lambda lo, hi: sum(1 for t in nmc_txs
                                if heights[lo] <= t[1] < (heights[hi - 1] + 1))),
            ("ppc", n_ppc, ppc_lines,
             lambda lo, hi: sum(len(b[3]) for b in ppc[lo:hi]))):
        first_hi, again_lo = _split_blocks(n_blocks)
        first = directory / f"{chain}.ndjson"
        again = directory / f"{chain}-again.ndjson"
        first_lines = _write_ndjson(first, make(0, first_hi), bad_first,
                                    chain, rng)
        again_lines = _write_ndjson(again, make(again_lo, n_blocks), bad_again,
                                    chain, rng)
        step_first, step_again = _ingest_steps(
            chain, first, first_lines,
            (first_hi, tx_count(0, first_hi), bad_first),
            again, again_lines,
            (n_blocks - first_hi, tx_count(first_hi, n_blocks), bad_again))
        load_first.append(step_first)
        load_again.append(step_again)

    # planted truth: fees per ISO week and kind, merge-mine split, re-claims
    kinds = ("new", "firstupdate", "update")
    sums: dict = {}
    split = {m: [0, 0] for m in ("blocks", "txs", "name_new",
                                 "name_firstupdate", "name_update")}
    for h in heights:
        split["blocks"][bool(auxpow[h])] += 1
    op_times = []
    for _hash, h, _index, event in nmc_txs:
        merged = bool(auxpow[h])
        split["txs"][merged] += 1
        if event is None:
            continue
        kind, fee = event[1], event[3]
        split[f"name_{kind}"][merged] += 1
        key = (_iso_week(nmc_time[h]), kind)
        sums[key] = sums.get(key, 0) + fee
        op_times.append(nmc_time[h])
    seen = [k for k in kinds if any(key[1] == k for key in sums)]
    fee_rows = [(week, kind, sums.get((week, kind), 0))
                for week in _weeks_between(min(op_times), max(op_times))
                for kind in seen]
    split_rows = []
    for metric, (normal, merged) in split.items():
        total = normal + merged
        pct = 100.0 * merged / total if total else 0.0
        split_rows.append((metric, normal, merged, total, f"{pct:.1f}"))

    histories: dict = {}
    on_day = 0
    for _hash, h, _index, event in nmc_txs:
        if event is not None and event[1] != "new":
            histories.setdefault(event[2], []).append((h, event[1]))
    rereg_rows, anomaly_rows = [], []
    for name in sorted(histories):
        history = histories[name]
        for pos, (h, kind) in enumerate(history):
            if kind != "firstupdate" or _day(nmc_time[h]) != day:
                continue
            on_day += 1
            prior = [ph for ph, pk in history[:pos] if pk == "firstupdate"]
            if not prior:
                continue
            prior_text = ";".join(map(str, prior))
            if history[pos - 1][0] + window < h:
                rereg_rows.append((name, "reregistration", prior_text))
            else:
                anomaly_rows.append((name, "anomaly", prior_text))

    ppc_counts: dict = {}
    for _h, time_, proof, _txs in ppc:
        month = _month(time_)
        pos_pow = ppc_counts.setdefault(month, [0, 0])
        pos_pow[proof == "pow"] += 1
    ppc_months = _months_between(min(ppc_counts), max(ppc_counts))

    analysis = [
        Step("nmc_fees", ["nmc", "fees"],
             rows_check(("week", "kind", "fee_units"), fee_rows)),
        Step("nmc_mergemine", ["nmc", "mergemine"],
             rows_check(("metric", "normal", "merged", "total", "merged_pct"),
                        split_rows)),
        Step("nmc_rereg", ["nmc", "rereg", "--day", day.isoformat(),
                           "--window", str(window)],
             with_stderr_line(
                 rows_check(("name", "status", "prior_registration_heights"),
                            rereg_rows + anomaly_rows),
                 f"first-updates on {day.isoformat()}: {on_day}")),
        Step("ppc_pos-pow", ["ppc", "pos-pow"],
             rows_check(("month", "pos", "pow"),
                        [(m,) + tuple(ppc_counts.get(m, [0, 0]))
                         for m in ppc_months])),
    ]
    files = [Path(s.argv[1]) for s in load_first + load_again]
    props = {
        "lines": sum(s.lines for s in load_first + load_again),
        "bytes": sum(f.stat().st_size for f in files),
        "name_op_share": len(events) / len(nmc_txs),
        "reregistrations": len(rereg_rows),
        "anomalies": len(anomaly_rows),
    }
    return Workload("altcoin-ledger", load_first + load_again, analysis, props)


def _block_hash(chain: str, seed: int, height: int) -> str:
    return random.Random(f"{chain}-block:{seed}:{height}").randbytes(32).hex()


# -- bytecode-corpus ---------------------------------------------------------------

# References use disjoint halves of the hex alphabet and edits use letters
# outside it, so every distance is known exactly: a block of k foreign
# characters costs k, and a pair over disjoint alphabets costs the longer
# length. The long reference exceeds the 2*cutoff+1 band.
CORPUS_SIZES = {
    "full": dict(lengths=(2300, 1100), exact=(8, 4), minor=20, heavy=400,
                 beyond=1001, minor_max=100, heavy_max=1000),
    "tiny": dict(lengths=(40, 24), exact=(3, 2), minor=3, heavy=12,
                 beyond=1001, minor_max=5, heavy_max=30),
}
_ALPHABETS = ("01234567", "89abcdef")
_FOREIGN = "ghijklmnopqrstuvwxyz"


def build_bytecode_corpus(directory: Path, seed: int,
                          size: str = "full") -> Workload:
    p = CORPUS_SIZES[size]
    rng = random.Random(f"bytecode-corpus:{seed}")
    refs = []
    for k, (length, alphabet) in enumerate(zip(p["lengths"], _ALPHABETS)):
        refs.append((f"ref{k}", "".join(rng.choice(alphabet)
                                        for _ in range(length)), k == 1))

    def foreign(k: int) -> str:
        return "".join(rng.choice(_FOREIGN) for _ in range(k))

    def substitute(code: str, k: int) -> str:
        at = rng.randrange(len(code) - k + 1)
        return code[:at] + foreign(k) + code[at + k:]

    def insert(code: str, k: int) -> str:
        at = rng.randrange(len(code) + 1)
        return code[:at] + foreign(k) + code[at:]

    corpus = []  # (bytecode, family, distance to own reference)
    for k, (_name, code, _opt) in enumerate(refs):
        corpus += [(code, k, 0)] * p["exact"][k]
        edit, other = (substitute, insert) if k == 0 else (insert, substitute)
        corpus += [(edit(code, p["minor"]), k, p["minor"]),
                   (other(code, p["heavy"]), k, p["heavy"]),
                   (foreign(len(code)), k, len(code))]  # same length, unrelated
    corpus.append((insert(refs[0][1], p["beyond"]), 0, p["beyond"]))
    rng.shuffle(corpus)

    minor_max, heavy_max = p["minor_max"], p["heavy_max"]
    cutoff = max(heavy_max, 1000)  # the CLI's cutoff for these bounds
    rows = []
    for k, (name, code, optimized) in enumerate(refs):
        counts = [0, 0, 0]
        for entry, family, own in corpus:
            distance = own if family == k else max(len(entry), len(code))
            if distance > cutoff:
                continue
            if distance == 0:
                counts[0] += 1
            elif distance <= minor_max:
                counts[1] += 1
            elif distance <= heavy_max:
                counts[2] += 1
        rows.append((name, int(optimized), *counts))

    directory.mkdir(parents=True, exist_ok=True)
    references = directory / "references.json"
    references.write_text(json.dumps(
        [{"name": name, "bytecode": "0x" + code, "optimized": optimized}
         for name, code, optimized in refs]), encoding="utf-8")
    corpus_file = directory / "corpus.txt"
    corpus_file.write_text("".join(entry + "\n" for entry, _f, _d in corpus),
                           encoding="utf-8")
    argv = ["eth", "similarity", "--references", str(references),
            "--corpus", str(corpus_file), "--minor", str(minor_max),
            "--heavy", str(heavy_max)]
    step = Step("eth_similarity", argv,
                rows_check(("reference", "optimized", "exact", "minor",
                            "heavy"), rows))
    props = {
        "corpus_entries": len(corpus),
        "duplicate_share": sum(1 for _e, _f, d in corpus if d == 0)
        / len(corpus),
    }
    return Workload("bytecode-corpus", [], [step], props)


# -- sim-crawl ---------------------------------------------------------------------

CRAWL_SIZES = {
    "full": dict(n_peers=1000, degree=20, prefix_bits=7),
    "tiny": dict(n_peers=60, degree=8, prefix_bits=3),
}
_UNREACHABLE = 0.05
_CHURN = 0.002


def build_sim_crawl(directory: Path, seed: int, size: str = "full") -> Workload:
    from chainlens.discovery.simulator import build_sim_overlay

    p = CRAWL_SIZES[size]
    overlay_seed = random.Random(f"sim-crawl:{seed}").randrange(1 << 31)
    topology = {"n_peers": p["n_peers"], "degree": p["degree"],
                "unreachable_fraction": _UNREACHABLE, "churn": _CHURN,
                "seed": overlay_seed}
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "topology.json"
    path.write_text(json.dumps(topology), encoding="utf-8")
    # The overlay is the input: build it as the CLI will, to learn which
    # peers answer at all.
    _transport, truth = build_sim_overlay(
        p["n_peers"], p["degree"], unreachable_fraction=_UNREACHABLE,
        churn_failure_rate=_CHURN, rng_seed=overlay_seed)
    reachable = {peer.node_id.hex() for peer in truth.peers
                 if peer.node_id in truth.reachable_ids}

    def check(text: str, err: str) -> list:
        try:
            doc = json.loads(text)
            found = [peer["node_id"] for peer in doc["known_peers"]]
            unique = doc["unique_node_ids"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable crawl report: {exc}"]
        problems = []
        strays = set(found) - reachable
        if strays:
            problems.append(f"{len(strays)} peers outside the reachable set")
        if len(set(found) & reachable) < 0.99 * len(reachable):
            problems.append(f"found {len(found)} of {len(reachable)} "
                            "reachable peers")
        if unique != len(set(found)):
            problems.append(f"unique_node_ids {unique} != {len(set(found))}")
        return problems

    argv = ["crawl", "--sim", str(path), "--prefix-bits",
            str(p["prefix_bits"]), "--seed", str(overlay_seed)]
    props = {"reachable_share": len(reachable) / p["n_peers"]}
    return Workload("sim-crawl", [], [Step("crawl", argv, check)], props)


# Each workload runs a ledger pipeline and then one store-free command, so
# two workloads cover every layer and each run can be long: the host's
# slow spells last tens of seconds, and a longer run more often holds a
# quiet stretch for every command.
WORKLOADS = {
    "eth-ledger": (build_eth_ledger, build_bytecode_corpus),
    "altcoin-ledger": (build_altcoin_ledger, build_sim_crawl),
}


def build(name: str, directory: Path, seed: int, size: str = "full") -> Workload:
    """The named workload: its ledger part, then its store-free part."""
    parts = [builder(directory / builder.__name__, seed, size)
             for builder in WORKLOADS[name]]
    props: dict = {}
    for part in parts:
        props.update(part.props)
    return Workload(name, [s for part in parts for s in part.load],
                    [s for part in parts for s in part.analysis], props)
