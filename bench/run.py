"""Benchmark for the chainlens CLI: seeded workloads, checked reports, traced layers.

    python3 bench/run.py --workload eth-ledger --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --profile altcoin-ledger --seed 1

The workload's inputs are generated from the seed, then its CLI pipeline
runs in this process through `chainlens.cli.run_cli`, one command after
another (a closed loop with one client), until the time is up. Every
report is checked against the planted truth. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, or with --trace 1 the
per-layer metrics of one traced pass. A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibration import run_kernel
from spans import Tracer
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SPAWNS = 5  # at least
SPAWNS_PER_PASS = 2
MIN_PASSES = 2  # two passes at least, so report bytes are compared across passes

END_TO_END = (("setup_s", "s"), ("pass_cal", "cal"), ("cpu_cal", "cal"),
              ("peak_rss_mb", "MB"))
CLI_STEPS = ("ingest", "ingest_redelivery", "report_tx-monthly",
             "eth_classify", "eth_zombies", "eth_lifetimes",
             "eth_precreation", "poison_scan", "nmc_fees", "nmc_mergemine",
             "nmc_rereg", "ppc_pos-pow", "eth_similarity", "crawl")
PER_LAYER = (
    ("store.ingest_blocks.calls", "count"),
    ("store.ingest_blocks.self_s", "s"),
    ("store.put_block.calls", "count"),
    ("store.put_block.self_s", "s"),
    ("store.put_tx.calls", "count"),
    ("store.put_tx.self_s", "s"),
    ("store.commit.calls", "count"),
    ("store.commit.self_s", "s"),
    ("store.put.inserted_ratio", "ratio"),
    ("store.ingest.rejected", "count"),
    ("store.iter_txs.calls", "count"),
    ("store.iter_txs.rows", "count"),
    ("store.iter_txs.self_s", "s"),
    ("store.iter_blocks.calls", "count"),
    ("store.iter_blocks.rows", "count"),
    ("store.iter_blocks.self_s", "s"),
    ("store.block_times.calls", "count"),
    ("store.block_times.self_s", "s"),
    ("store.monthly_tx_counts.self_s", "s"),
    ("store.db_bytes_per_input_byte", "ratio"),
    ("keccak.keccak256.calls", "count"),
    ("keccak.keccak256.self_s", "s"),
    ("keccak.keccak256_batch64.calls", "count"),
    ("keccak.keccak256_batch64.rows", "count"),
    ("keccak.keccak256_batch64.self_s", "s"),
    ("rlp.encode.calls", "count"),
    ("rlp.encode.self_s", "s"),
    ("eth.contracts.derive_contract_address.calls", "count"),
    ("eth.contracts.derive_contract_address.self_s", "s"),
    ("eth.contracts.derive_unique_ratio", "ratio"),
    ("eth.contracts.build_contract_registry.calls", "count"),
    ("eth.contracts.build_contract_registry.self_s", "s"),
    ("eth.contracts.find_precreation_funding.self_s", "s"),
    ("eth.contracts.lifetime_histogram.self_s", "s"),
    ("eth.classify.monthly_class_counts.self_s", "s"),
    ("eth.classify.zombie_report.self_s", "s"),
    ("poison.extract_payload.calls", "count"),
    ("poison.extract_payload.self_s", "s"),
    ("poison.match_signatures.calls", "count"),
    ("poison.match_signatures.self_s", "s"),
    ("poison.scan_corpus.self_s", "s"),
    ("poison.candidate_ratio", "ratio"),
    ("chains.namecoin.weekly_fee_sums.self_s", "s"),
    ("chains.namecoin.merge_mine_split.self_s", "s"),
    ("chains.namecoin.detect_reregistrations.self_s", "s"),
    ("chains.peercoin.pos_pow_counts.self_s", "s"),
    ("eth.similarity.levenshtein.calls", "count"),
    ("eth.similarity.levenshtein.self_s", "s"),
    ("eth.similarity.levenshtein.over_cutoff_ratio", "ratio"),
    ("eth.similarity.bucket_similarity.self_s", "s"),
    ("eth.similarity.duplicate_share", "ratio"),
    ("discovery.identity.precompute_targets.self_s", "s"),
    ("discovery.identity.select_neighbors.calls", "count"),
    ("discovery.identity.select_neighbors.self_s", "s"),
    ("discovery.identity.node_hash.hit_ratio", "ratio"),
    ("discovery.simulator.find_node.calls", "count"),
    ("discovery.simulator.find_node.self_s", "s"),
    ("discovery.simulator.find_node.failed", "count"),
    ("discovery.simulator.ping_pong.calls", "count"),
    ("discovery.simulator.ping_pong.failed", "count"),
    ("discovery.crawler.crawl.wall_s", "s"),
    ("discovery.crawler.transport_busy_s", "s"),
    ("discovery.crawler.peak_in_flight", "count"),
    ("discovery.crawler.new_peer_ratio", "ratio"),
    ("discovery.crawler.endpoint_stats.calls", "count"),
    ("report.emit_rows.self_s", "s"),
    ("report.bytes_out", "B"),
    *((f"cli.{step}.wall_s", "s") for step in CLI_STEPS),
    ("cli.ingest.lines_per_s", "1/s"),
    ("cli.ingest_redelivery.lines_per_s", "1/s"),
    ("input.lines", "count"),
    ("input.bytes", "B"),
    ("input.creation_share", "ratio"),
    ("input.zombie_share", "ratio"),
    ("input.payload_share", "ratio"),
    ("input.store_to_page_cache", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _import_program() -> None:
    """Put this checkout's sources first on the path, or stop."""
    if not (SRC / "chainlens" / "cli.py").is_file():
        sys.exit(f"bench: chainlens sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainlens
    if Path(chainlens.__file__).resolve().parent != (SRC / "chainlens").resolve():
        sys.exit(f"bench: imported chainlens from {chainlens.__file__}, "
                 f"not from {SRC}")


def _pin_to_one_cpu() -> None:
    """Keep this process and its threads on one CPU. The crawl's 32 workers
    otherwise hand the interpreter lock back and forth between CPUs, and
    how often they do depends on the scheduler more than on the program."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- one pass ------------------------------------------------------------------

@dataclass
class StepRun:
    name: str
    wall: float
    cpu: float
    digest: str
    problems: list
    cal_wall: float = 0.0  # mean kernel time of the runs around the step
    cal_cpu: float = 0.0


@dataclass
class PassRun:
    steps: list
    store_bytes: int

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def cpu(self) -> float:
        return sum(s.cpu for s in self.steps)

    def wall_of(self, name: str) -> float:
        return sum(s.wall for s in self.steps if s.name == name)


def _clear_caches() -> None:
    """Empty chainlens's memo caches, as a fresh CLI process would have them."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("chainlens"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _run_step(step, store: Path, out: Path, tracer) -> StepRun:
    from chainlens.cli import run_cli

    argv = ["--db", str(store), "--out", str(out), *step.argv]
    err = io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            if tracer is None:
                code = run_cli(argv)
            else:
                code = tracer.call(f"cli.{step.name}", run_cli, argv)
    except Exception:  # noqa: BLE001 - a crashing command is a failed command
        code = f"raised {traceback.format_exc(limit=3)}"
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    out.unlink(missing_ok=True)
    if code == 0:
        problems = step.check(text, err.getvalue())
    else:
        problems = [f"exit {code}: {err.getvalue().strip()[-400:]}"]
    return StepRun(step.name, wall, cpu,
                   hashlib.sha256(text.encode("utf-8")).hexdigest(), problems)


def run_pass(workload, workdir: Path, index: int, tracer=None) -> PassRun:
    """Every step of the workload once, ledgers on a fresh store, with the
    calibration kernel run before the first step and after every step."""
    store = workdir / f"store-{index}"
    _clear_caches()
    before = run_kernel()
    steps = []
    for step in workload.steps:
        done = _run_step(step, store, workdir / "report.out", tracer)
        after = run_kernel()
        done.cal_wall = (before[0] + after[0]) / 2
        done.cal_cpu = (before[1] + after[1]) / 2
        steps.append(done)
        before = after
    db = store / "chainlens.sqlite"
    store_bytes = db.stat().st_size if db.exists() else 0
    shutil.rmtree(store, ignore_errors=True)
    return PassRun(steps, store_bytes)


# -- metrics -------------------------------------------------------------------

def spawn_cli() -> float:
    """Time from a fresh interpreter to a CLI that answers --version."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "chainlens.cli", "--version"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or "chainlens" not in proc.stdout:
        raise RuntimeError(f"chainlens --version failed: {proc.stderr}")
    return elapsed


def _page_cache_bytes() -> int:
    """SQLite's default page cache for a new connection (no pragma is set)."""
    conn = sqlite3.connect(":memory:")
    try:
        pages = conn.execute("PRAGMA cache_size").fetchone()[0]
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
    finally:
        conn.close()
    return -pages * 1024 if pages < 0 else pages * page_size


def _calibrated(passes: list, field: str) -> float:
    """One pass in kernel units: the sum over the steps of the median, across
    passes, of the step's time divided by the kernel time around it."""
    return sum(statistics.median(getattr(p.steps[i], field)
                                 / getattr(p.steps[i], f"cal_{field}")
                                 for p in passes)
               for i in range(len(passes[0].steps)))


def _best(passes: list, field: str) -> float:
    """The sum over the steps of each step's smallest time across passes."""
    return sum(min(getattr(p.steps[i], field) for p in passes)
               for i in range(len(passes[0].steps)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _lines_per_s(workload, passes: list, name: str) -> float:
    lines = sum(s.lines for s in workload.steps if s.name == name)
    return statistics.median(_ratio(lines, p.wall_of(name)) for p in passes)


def layer_metrics(workload, tracer, untraced: list, traced: PassRun) -> dict:
    from chainlens.discovery.identity import node_hash

    spans = tracer.summary()
    count = tracer.counters
    props = workload.props

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    values = {}
    for metric, _unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and layer in spans:
            values[metric] = spans[layer][field]
    for layer in ("store.iter_txs", "store.iter_blocks"):
        values[f"{layer}.calls"] = count[f"{layer}.calls"]
        values[f"{layer}.rows"] = count[f"{layer}.rows"]
    hashes = node_hash.cache_info()
    values.update({
        "store.put.inserted_ratio": _ratio(count["store.put.inserted"],
                                           count["store.put.attempts"]),
        "store.ingest.rejected": count["store.ingest.rejected"],
        "store.db_bytes_per_input_byte": _ratio(
            traced.store_bytes, props["bytes"] if workload.load else 0),
        "keccak.keccak256_batch64.rows": count["keccak.keccak256_batch64.rows"],
        "eth.contracts.derive_unique_ratio": _ratio(
            len(tracer.derived_pairs),
            calls("eth.contracts.derive_contract_address")),
        "poison.candidate_ratio": _ratio(count["poison.candidates"],
                                         calls("poison.match_signatures")),
        "eth.similarity.levenshtein.over_cutoff_ratio": _ratio(
            count["eth.similarity.levenshtein.over_cutoff"],
            calls("eth.similarity.levenshtein")),
        "eth.similarity.duplicate_share": props.get("duplicate_share", 0.0),
        "discovery.identity.node_hash.hit_ratio": _ratio(
            hashes.hits, hashes.hits + hashes.misses),
        "discovery.simulator.find_node.failed":
            count["discovery.simulator.find_node.failed"],
        "discovery.simulator.ping_pong.failed":
            count["discovery.simulator.ping_pong.failed"],
        "discovery.crawler.crawl.wall_s":
            spans.get("discovery.crawler.crawl", {}).get("wall_s", 0.0),
        "discovery.crawler.transport_busy_s": spans["transport"]["busy_s"],
        "discovery.crawler.peak_in_flight": spans["transport"]["peak"],
        "discovery.crawler.new_peer_ratio": _ratio(
            calls("discovery.simulator.ping_pong"),
            count["discovery.simulator.find_node.returned"]),
        "report.bytes_out": count["report.bytes_out"],
        "cli.ingest.lines_per_s": _lines_per_s(workload, untraced, "ingest"),
        "cli.ingest_redelivery.lines_per_s": _lines_per_s(
            workload, untraced, "ingest_redelivery"),
        "input.lines": props["lines"],
        "input.bytes": props["bytes"],
        "input.creation_share": props.get("creation_share", 0.0),
        "input.zombie_share": props.get("zombie_share", 0.0),
        "input.payload_share": props.get("payload_share", 0.0),
        "input.store_to_page_cache": _ratio(traced.store_bytes,
                                            _page_cache_bytes()),
        "trace.overhead_s": traced.wall - statistics.median(
            p.wall for p in untraced),
        "trace.spans": tracer.span_count(),
    })
    for step in CLI_STEPS:
        values[f"cli.{step}.wall_s"] = statistics.median(
            p.wall_of(step) for p in untraced)
    return {metric: {"value": values.get(metric, 0), "unit": unit}
            for metric, unit in PER_LAYER}


# -- a run ---------------------------------------------------------------------

def _digest_failures(passes: list) -> tuple:
    """(attempted, failed, problems): a step fails on a wrong report, or on
    report bytes that differ from the same step in the first pass."""
    attempted = failed = 0
    problems = []
    first = [s.digest for s in passes[0].steps]
    for k, pass_run in enumerate(passes):
        for i, step in enumerate(pass_run.steps):
            attempted += 1
            issues = list(step.problems)
            if step.digest != first[i]:
                issues.append("report differs from the first pass")
            if issues:
                failed += 1
                problems.append(f"pass {k} {step.name}: {'; '.join(issues)}")
    return attempted, failed, problems


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    old_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(workdir)  # SQLite's temporary files stay here too
    try:
        workload = build(name, workdir / "inputs", seed, size)
        passes, spawns = [], []
        deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
        last = 0.0  # a pass starts only if one as long as the last still fits
        while (len(passes) < MIN_PASSES
               or time.perf_counter() + last <= deadline):
            start = time.perf_counter()
            passes.append(run_pass(workload, workdir, len(passes)))
            if not trace:  # set-up samples spread over the run
                spawns.extend(spawn_cli() for _ in range(SPAWNS_PER_PASS))
            last = time.perf_counter() - start
        while not trace and len(spawns) < SETUP_SPAWNS:
            spawns.append(spawn_cli())
        setup = None if trace else statistics.median(spawns)
        traced = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(workload, workdir, len(passes), tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(workload, tracer, passes, traced)
            tracer.save(WORK / "spans" / f"{name}.npz")
        else:
            metrics = {
                "setup_s": setup,
                "pass_cal": _calibrated(passes, "wall"),
                "cpu_cal": _calibrated(passes, "cpu"),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {key: {"value": metrics[key], "unit": unit}
                       for key, unit in END_TO_END}
        every = passes + ([traced] if traced else [])
        attempted, failed, problems = _digest_failures(every)
        _write_digests(name, seed, passes[0])
        _print_summary(workload, seed, passes, setup, attempted, failed,
                       problems)
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        if old_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = old_tmpdir
        shutil.rmtree(workdir, ignore_errors=True)


def _write_digests(name: str, seed: int, first: PassRun) -> None:
    """sha256 of every report, so two versions can be compared byte for byte."""
    path = WORK / "digests" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {f"{i}:{s.name}": s.digest for i, s in enumerate(first.steps)}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _print_summary(workload, seed: int, passes: list, setup, attempted: int,
                   failed: int, problems: list) -> None:
    def say(text: str) -> None:
        print(text, file=sys.stderr)

    walls = sorted(p.wall for p in passes)
    say(f"{workload.name} seed={seed}: {len(passes)} passes, "
        f"{attempted} commands, {failed} failed, "
        f"error_rate {_ratio(failed, attempted):.4f}")
    if setup is not None:
        say(f"  setup_s {setup:.4f} s")
    kernel = sorted(s.cal_wall for p in passes for s in p.steps)
    say(f"  pass_cal {_calibrated(passes, 'wall'):.4f} cal, "
        f"cpu_cal {_calibrated(passes, 'cpu'):.4f} cal; kernel median "
        f"{statistics.median(kernel):.4f} s, range {kernel[0]:.4f}-"
        f"{kernel[-1]:.4f} s")
    say(f"  pass_s (raw) each command at its best {_best(passes, 'wall'):.4f} s;"
        f" whole passes: best {walls[0]:.4f} s, median "
        f"{statistics.median(walls):.4f} s, max {walls[-1]:.4f} s "
        f"(n={len(walls)})")
    say(f"  cpu_s (raw) each command at its best {_best(passes, 'cpu'):.4f} s")
    say(f"  peak_rss_mb "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    if workload.load:
        for name, label in (("ingest", "ingest_lines_per_s"),
                            ("ingest_redelivery", "redelivery_lines_per_s")):
            say(f"  {label} {_lines_per_s(workload, passes, name):.0f} 1/s")
        say(f"  store {passes[0].store_bytes} B, "
            f"{passes[0].store_bytes / _page_cache_bytes():.2f} x SQLite's "
            "default page cache")
        ledger = [s.name for s in workload.analysis
                  if s.name not in ("eth_similarity", "crawl")]
        analysis = sorted(sum(p.wall_of(name) for name in ledger)
                          for p in passes)
        say(f"  analysis_s median {statistics.median(analysis):.4f} s, "
            f"max {analysis[-1]:.4f} s (n={len(analysis)})")
    for step in dict.fromkeys(s.name for s in workload.steps):
        say(f"    {step}: median "
            f"{statistics.median(p.wall_of(step) for p in passes):.4f} s")
    say("  input " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float)
                               else f"{k}={v}"
                               for k, v in workload.props.items()))
    for line in problems[:20]:
        say(f"  FAIL {line}")


def profile(name: str, seed: int, size: str = "full") -> Path:
    """Dump cProfile stats of one pass. Crawl worker threads are not profiled."""
    import cProfile
    import pstats

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = build(name, workdir / "inputs", seed, size)
        profiler = cProfile.Profile()
        profiler.runcall(run_pass, workload, workdir, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = WORK / "profiles" / f"{name}-seed{seed}.pstats"
    path.parent.mkdir(parents=True, exist_ok=True)
    profiler.dump_stats(path)
    pstats.Stats(profiler, stream=sys.stderr).sort_stats(
        "cumulative").print_stats(30)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = tuple(WORKLOADS)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=names, metavar="WORKLOAD",
                        help="dump cProfile stats for one pass of WORKLOAD")
    args = parser.parse_args(argv)
    if args.workload is None and args.profile is None:
        parser.error("--workload or --profile is required")
    _import_program()
    _pin_to_one_cpu()
    if args.profile:
        print(profile(args.profile, args.seed))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
