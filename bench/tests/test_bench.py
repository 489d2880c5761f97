"""Tests of the benchmark itself: generators, report checks, tracer, a tiny run."""

from __future__ import annotations

import csv
import io
import json
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

run._import_program()

from chainlens.cli import run_cli  # noqa: E402

NAMES = sorted(WORKLOADS)


def _input_files(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic(tmp_path, name):
    first = build(name, tmp_path / "a", 7, "tiny")
    again = build(name, tmp_path / "b", 7, "tiny")
    other = build(name, tmp_path / "c", 8, "tiny")
    assert _input_files(tmp_path / "a") == _input_files(tmp_path / "b")
    assert _input_files(tmp_path / "a") != _input_files(tmp_path / "c")
    assert first.props == again.props
    assert [s.name for s in first.steps] == [s.name for s in other.steps]


def _corrupt(text: str) -> str:
    """Change one value of a report: the last cell, or one crawled peer."""
    if text.startswith("{"):
        doc = json.loads(text)
        doc["known_peers"].append({"node_id": "ab" * 64, "ip": "192.0.2.1",
                                   "port": 1})
        doc["unique_node_ids"] += 1
        return json.dumps(doc)
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) == 1:
        rows.append(["x"] * len(rows[0]))
    else:
        cell = rows[-1][-1]
        rows[-1][-1] = str(int(cell) + 1) if cell.isdigit() else cell + "x"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("name", NAMES)
def test_each_check_fails_on_a_corrupted_report(tmp_path, capsys, name):
    workload = build(name, tmp_path / "inputs", 5, "tiny")
    out = tmp_path / "report.out"
    for step in workload.steps:
        assert run_cli(["--db", str(tmp_path / "store"), "--out", str(out),
                        *step.argv]) == 0, step.name
        text, err = out.read_text(encoding="utf-8"), capsys.readouterr().err
        assert step.check(text, err) == [], step.name
        assert step.check(_corrupt(text), err) != [], step.name


def test_rereg_check_reads_the_day_count(tmp_path, capsys):
    workload = build("altcoin-ledger", tmp_path / "inputs", 5, "tiny")
    out = tmp_path / "report.out"
    for step in workload.steps:
        run_cli(["--db", str(tmp_path / "store"), "--out", str(out),
                 *step.argv])
        err = capsys.readouterr().err
        if step.name == "nmc_rereg":
            break
    text = out.read_text(encoding="utf-8")
    assert step.check(text, err) == []
    assert step.check(text, err.replace("first-updates", "updates")) != []


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes(tmp_path, monkeypatch, name):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    plain = run.run(name, 3, 0.0, trace=False, size="tiny")
    assert (plain["correct"], plain["failed"]) == (True, 0)
    assert list(plain["metrics"]) == [m for m, _ in run.END_TO_END]
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    traced = run.run(name, 3, 0.0, trace=True, size="tiny")
    again = run.run(name, 3, 0.0, trace=True, size="tiny")
    assert (traced["correct"], traced["failed"]) == (True, 0)
    assert list(traced["metrics"]) == [m for m, _ in run.PER_LAYER]
    counts = {k: v["value"] for k, v in traced["metrics"].items()
              if k.endswith((".calls", ".rows"))}
    if name == "altcoin-ledger":
        # crawl workers race to fill node_hash's cache and may hash one id twice
        del counts["keccak.keccak256.calls"]
    assert counts == {k: again["metrics"][k]["value"] for k in counts}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


def test_self_time_excludes_children_and_unions_thread_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def parent():
        traced_leaf()
        workers = [threading.Thread(target=traced_leaf) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)

    tracer.wrap(parent, "discovery.crawler.crawl")()
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 4
    crawl = summary["discovery.crawler.crawl"]
    # overlapping thread children count once: their sum would exceed the span
    assert 0 <= crawl["self_s"] <= crawl["wall_s"] - 0.039


def test_calibrated_time_is_the_sum_of_per_step_median_quotients():
    def step(wall, cal):
        return run.StepRun("s", wall, wall / 2, "", [], cal, cal / 2)

    passes = [run.PassRun([step(1.0, 0.1), step(3.0, 0.1)], 0),
              run.PassRun([step(2.0, 0.2), step(9.0, 0.1)], 0),
              run.PassRun([step(1.5, 0.1), step(6.0, 0.2)], 0)]
    # step 1: quotients 10, 10, 15; step 2: 30, 90, 30
    assert run._calibrated(passes, "wall") == pytest.approx(10 + 30)
    assert run._calibrated(passes, "cpu") == pytest.approx(10 + 30)
    assert run._best(passes, "wall") == pytest.approx(1.0 + 3.0)
