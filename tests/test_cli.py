"""End-to-end command-line flows and the exit-code contract."""

import csv
import io
import json
import logging
import random
import socket
import sqlite3
import sys
from contextlib import closing

import click
import pytest

from chainlens import cli as cli_module
from chainlens.cli import run_cli
from chainlens.model import ChainKind
from chainlens.store import Store

from conftest import (CONTRACT_C1, CONTRACT_C2, addr, block_line,
                      eth_labeled_fixture, eth_termination_sidefile, h32,
                      tx_line)


@pytest.fixture
def eth_db(tmp_path):
    source = tmp_path / "eth.ndjson"
    lines, _ = eth_labeled_fixture()
    source.write_text("\n".join(lines) + "\n")
    db = str(tmp_path / "db")
    assert run_cli(["--db", db, "ingest", str(source), "--chain", "eth"]) == 0
    return db


def run_ok(capsys, argv):
    assert run_cli(argv) == 0
    return capsys.readouterr()


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_help_and_version(capsys):
    assert run_cli(["--help"]) == 0
    assert "ingest" in capsys.readouterr().out
    assert run_cli(["--version"]) == 0
    assert "chainlens" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def _refused(chain):
    return 2, "", f"error: no qualifying blocks for chain '{chain}'\n"


# on a store without a block, five ledger commands refuse the empty chain
# and six print a report with no row of data, as README says
_EMPTY_CHAIN = {
    "summarize": (["summarize", "--chain", "eth"], *_refused("eth")),
    "report tx-monthly": (["report", "tx-monthly", "--chain", "eth"],
                          *_refused("eth")),
    "eth classify": (["eth", "classify"], *_refused("eth")),
    "nmc mergemine": (["nmc", "mergemine"], *_refused("nmc")),
    "ppc pos-pow": (["ppc", "pos-pow"], *_refused("ppc")),
    "eth zombies": (["eth", "zombies"], 0,
                    "zombie_count,total_balance\n0,0\n", ""),
    "eth lifetimes": (["eth", "lifetimes"], 0, "bucket,contracts\n", ""),
    "eth precreation": (["eth", "precreation"], 0,
                        "funding_tx,contract,creation_height\n", ""),
    "poison scan": (["poison", "scan"], 0,
                    "format,tx_hash,payload_size\n", ""),
    "nmc fees": (["nmc", "fees"], 0, "week,kind,fee_units\n", ""),
    "nmc rereg": (["nmc", "rereg", "--day", "2011-05-17"], 0,
                  "name,status,prior_registration_heights\n",
                  "first-updates on 2011-05-17: 0\n"),
}


@pytest.mark.parametrize("argv, code, out, err", _EMPTY_CHAIN.values(),
                         ids=_EMPTY_CHAIN)
def test_an_empty_chain_is_refused_or_reported_without_rows(
        tmp_path, capsys, argv, code, out, err):
    assert run_cli(["--db", str(tmp_path / "db"), *argv]) == code
    assert tuple(capsys.readouterr()) == (out, err)


def test_ingest_reports_counts(eth_db, capsys):
    out = run_ok(capsys, ["--db", eth_db, "summarize", "--chain", "eth"])
    rows = parse_csv(out.out)
    assert rows[0] == ["chain", "first_block_time", "cutoff_time",
                       "cutoff_height", "tx_count", "tx_volume"]
    assert rows[1][0] == "eth"
    assert rows[1][3] == "5" and rows[1][4] == "20"


def test_ingest_echoes_rejects_to_stderr(tmp_path, capsys, monkeypatch):
    source = tmp_path / "bad.ndjson"
    source.write_text(block_line("eth", 0, 100, []) + "\n" + "not json\n"
                      + "[1]\n")
    db = str(tmp_path / "db")
    # stderr as a user of main() sees it; its logging set-up applies only
    # while the root logger has no handler
    monkeypatch.delenv("CHAINLENS_LOG", raising=False)
    monkeypatch.setattr(sys, "argv", ["chainlens", "--db", db, "ingest",
                                      str(source), "--chain", "eth"])
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        with pytest.raises(SystemExit) as exited:
            cli_module.main()
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert parse_csv(captured.out)[1] == ["1", "0", "2"]
    # each rejected line is reported once
    assert [line.split(":")[0] for line in captured.err.splitlines()] == [
        "rejected line 2", "rejected line 3"]
    # the same file under --strict is fatal
    db2 = str(tmp_path / "db2")
    assert run_cli(["--db", db2, "ingest", str(source), "--chain", "eth",
                    "--strict"]) == 2


def test_an_ingest_error_names_its_line_once(tmp_path, capsys):
    db = str(tmp_path / "db")
    first = tmp_path / "first.ndjson"
    first.write_text(block_line("eth", 0, 100, [h32(1)]) + "\n"
                     + tx_line("eth", h32(1), 0, 0, "aa" * 20, None) + "\n")
    run_ok(capsys, ["--db", db, "ingest", str(first), "--chain", "eth"])
    again = tmp_path / "again.ndjson"
    again.write_text("\n" + block_line("eth", 0, 101, [h32(1)]) + "\n{\n"
                     + tx_line("eth", h32(1), 0, 0, "bb" * 20, None) + "\n")
    block = ("conflicting block at height 0: different contents already "
             "stored")
    out = run_ok(capsys, ["--db", db, "ingest", str(again), "--chain", "eth"])
    assert out.err.splitlines() == [
        f"rejected line 2: {block}",
        "rejected line 3: malformed JSON: Expecting property name enclosed "
        "in double quotes",
        f"rejected line 4: conflicting tx {h32(1)}: different contents "
        "already stored"]
    assert run_cli(["--db", db, "ingest", str(again), "--chain", "eth",
                    "--strict"]) == 2
    assert capsys.readouterr().err == f"error: line 2: {block}\n"


def test_lone_surrogate_address_is_a_rejected_line(tmp_path, capsys):
    # SQLite cannot store a string holding a JSON "\ud800" escape
    source = tmp_path / "nmc.ndjson"
    source.write_text(block_line("nmc", 0, 100, [h32(1)]) + "\n"
                      + tx_line("nmc", h32(1), 0, 0, "N\ud800x", "Nabc") + "\n")
    out = run_ok(capsys, ["--db", str(tmp_path / "db"), "ingest", str(source),
                          "--chain", "nmc"])
    assert parse_csv(out.out)[1] == ["1", "0", "1"]
    assert out.err.startswith("rejected line 2: ")
    assert "'from'" in out.err
    assert run_cli(["--db", str(tmp_path / "db2"), "ingest", str(source),
                    "--chain", "nmc", "--strict"]) == 2


def test_undecodable_byte_is_a_rejected_line(tmp_path, capsys):
    source = tmp_path / "nmc.ndjson"
    source.write_bytes(block_line("nmc", 0, 100, []).encode() + b"\nabc\xff\n"
                       + block_line("nmc", 1, 200, []).encode() + b"\n")
    out = run_ok(capsys, ["--db", str(tmp_path / "db"), "ingest", str(source),
                          "--chain", "nmc"])
    assert parse_csv(out.out)[1] == ["2", "0", "1"]
    assert out.err == ("rejected line 2: malformed JSON: not UTF-8: "
                       "undecodable byte 0xff\n")
    assert run_cli(["--db", str(tmp_path / "db2"), "ingest", str(source),
                    "--chain", "nmc", "--strict"]) == 2
    err = capsys.readouterr().err
    assert "line 2: malformed JSON: not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eth", "classify", "--internal"], ["eth", "classify", "--terminated"],
    ["eth", "probe", "--gas-fixture"]], ids=["internal", "terminated", "gas"])
def test_side_file_byte_not_utf8_is_a_data_error(eth_db, tmp_path, capsys,
                                                 argv):
    side = tmp_path / "side.ndjson"
    side.write_bytes(b"\n{\"type\": \"\xc3\"}\n")
    assert run_cli(["--db", eth_db, *argv, str(side)]) == 2
    err = capsys.readouterr().err
    assert "line 2: malformed JSON: not UTF-8: undecodable byte 0xc3" in err
    assert "Traceback" not in err


def test_ingest_rejects_integers_past_sqlite_range(tmp_path, capsys):
    source = tmp_path / "big.ndjson"
    big = json.loads(block_line("eth", 1, 100, []))
    big["height"] = 1 << 63
    source.write_text(block_line("eth", 0, 100, []) + "\n"
                      + json.dumps(big) + "\n")
    db = str(tmp_path / "db")
    assert run_cli(["--db", db, "ingest", str(source), "--chain", "eth"]) == 0
    captured = capsys.readouterr()
    assert parse_csv(captured.out)[1] == ["1", "0", "1"]
    assert "line 2: invalid field 'height'" in captured.err
    assert run_cli(["--db", str(tmp_path / "db2"), "ingest", str(source),
                    "--chain", "eth", "--strict"]) == 2
    err = capsys.readouterr().err
    assert "line 2: invalid field 'height'" in err and "Traceback" not in err


@pytest.mark.parametrize("chain, record, field", [
    ("nmc", {"name_op": {"kind": "new", "paid_fee": "1"}},
     "name_op.name_hash"),
    ("nmc", {"name_op": {"kind": "firstupdate", "name_hash": "ab"}},
     "name_op.name"),
    ("nmc", {"name_op": {"kind": "firstupdate", "name": ""}}, "name_op.name"),
    ("nmc", {"name_op": {"kind": "update"}}, "name_op.name"),
    ("nmc", {"name_op": {"kind": "update", "name": ""}}, "name_op.name"),
    ("ppc", None, "proof"),
], ids=["new without name_hash", "firstupdate without name",
        "firstupdate with empty name", "update without name",
        "update with empty name", "ppc block without proof"])
def test_ingest_refuses_a_record_its_analysis_cannot_read(
        tmp_path, capsys, chain, record, field):
    line = (block_line(chain, 1, 200, []) if record is None else
            tx_line(chain, h32(1), 0, 0, "Nabc", None, **record))
    source = tmp_path / "in.ndjson"
    source.write_text(block_line(chain, 0, 100, [], proof="pow"
                                 if chain == "ppc" else None) + "\n"
                      + line + "\n")
    out = run_ok(capsys, ["--db", str(tmp_path / "db"), "ingest", str(source),
                          "--chain", chain])
    assert parse_csv(out.out)[1] == ["1", "0", "1"]
    assert out.err.startswith(f"rejected line 2: invalid field '{field}'")
    assert run_cli(["--db", str(tmp_path / "db2"), "ingest", str(source),
                    "--chain", chain, "--strict"]) == 2
    err = capsys.readouterr().err
    assert f"line 2: invalid field '{field}'" in err and "Traceback" not in err


_NAME_OP = {"kind": "new", "name_hash": "ab", "paid_fee": "1"}


@pytest.mark.parametrize("chain, line, field", [
    ("eth", block_line("eth", 1, 200, [], auxpow=False), "auxpow"),
    ("ppc", block_line("ppc", 1, 200, [], auxpow=True, proof="pos"),
     "auxpow"),
    ("eth", block_line("eth", 1, 200, [], proof="pow"), "proof"),
    ("nmc", block_line("nmc", 1, 200, [], proof="pos"), "proof"),
    ("eth", tx_line("eth", h32(1), 0, 0, "aa" * 20, None, name_op=_NAME_OP),
     "name_op"),
    ("ppc", tx_line("ppc", h32(1), 0, 0, "Pabc", None, name_op=_NAME_OP),
     "name_op"),
], ids=["eth block auxpow", "ppc block auxpow", "eth block proof",
        "nmc block proof", "eth tx name_op", "ppc tx name_op"])
def test_ingest_refuses_a_field_another_chain_owns(tmp_path, capsys, chain,
                                                   line, field):
    source = tmp_path / "in.ndjson"
    source.write_text(block_line(chain, 0, 100, [], proof="pow"
                                 if chain == "ppc" else None) + "\n"
                      + line + "\n")
    out = run_ok(capsys, ["--db", str(tmp_path / "db"), "ingest", str(source),
                          "--chain", chain])
    assert parse_csv(out.out)[1] == ["1", "0", "1"]
    assert out.err.startswith(f"rejected line 2: invalid field '{field}'")
    assert run_cli(["--db", str(tmp_path / "db2"), "ingest", str(source),
                    "--chain", chain, "--strict"]) == 2
    err = capsys.readouterr().err
    assert f"line 2: invalid field '{field}'" in err and "Traceback" not in err


def test_tx_monthly_csv_and_json(eth_db, capsys):
    out = run_ok(capsys, ["--db", eth_db, "report", "tx-monthly",
                          "--chain", "eth"])
    assert parse_csv(out.out) == [["month", "txs"], ["2015-08", "8"],
                                  ["2015-09", "8"], ["2015-10", "4"]]
    out = run_ok(capsys, ["--db", eth_db, "--format", "json", "report",
                          "tx-monthly", "--chain", "eth"])
    assert json.loads(out.out) == [
        {"month": "2015-08", "txs": 8},
        {"month": "2015-09", "txs": 8},
        {"month": "2015-10", "txs": 4}]


def test_cutoff_flag(eth_db, capsys):
    # cutoff before the 2015-10 blocks: only heights 0..3 remain
    out = run_ok(capsys, ["--db", eth_db, "--cutoff", "2015-10-01T00:00:00Z",
                          "summarize", "--chain", "eth"])
    assert parse_csv(out.out)[1][3] == "3"
    # an unparseable time, or one past SQLite's INTEGER range, is a
    # usage error, not a traceback
    for cutoff in ("whenever", "9223372036854775808"):
        assert run_cli(["--db", eth_db, "--cutoff", cutoff, "summarize",
                        "--chain", "eth"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "--cutoff" in err and "Traceback" not in err


def test_cutoff_keeps_lower_blocks_with_later_times(tmp_path, capsys):
    # block 1 is timed after the cutoff but lies below block 2, before it
    lines = []
    for height, time in enumerate((100, 400, 300)):
        lines += [block_line("eth", height, time, [h32(height + 1)]),
                  tx_line("eth", h32(height + 1), height, 0, addr(1), addr(2),
                          "1")]
    source = tmp_path / "eth.ndjson"
    source.write_text("\n".join(lines) + "\n")
    db = str(tmp_path / "db")
    run_ok(capsys, ["--db", db, "ingest", str(source), "--chain", "eth"])
    out = run_ok(capsys, ["--db", db, "--cutoff", "350", "summarize",
                          "--chain", "eth"])
    assert parse_csv(out.out)[1] == ["eth", "100", "400", "2", "3", "3"]
    out = run_ok(capsys, ["--db", db, "--cutoff", "350", "report",
                          "tx-monthly", "--chain", "eth"])
    assert parse_csv(out.out) == [["month", "txs"], ["1970-01", "3"]]


def test_block_times_end_with_year_9999(tmp_path, capsys):
    last = 253402300799  # 9999-12-31T23:59:59Z
    eth = tmp_path / "eth.ndjson"
    eth.write_text("\n".join([
        block_line("eth", 0, last, [h32(1)]),
        tx_line("eth", h32(1), 0, 0, addr(1), addr(2)),
        block_line("eth", 1, last + 1)]) + "\n")
    ppc = tmp_path / "ppc.ndjson"
    ppc.write_text(block_line("ppc", 0, last, [], proof="pos") + "\n")
    db = str(tmp_path / "db")
    out = run_ok(capsys, ["--db", db, "ingest", str(eth), "--chain", "eth"])
    assert parse_csv(out.out)[1] == ["1", "1", "1"]
    assert "line 3: invalid field 'time'" in out.err
    run_ok(capsys, ["--db", db, "ingest", str(ppc), "--chain", "ppc"])
    out = run_ok(capsys, ["--db", db, "report", "tx-monthly", "--chain", "eth"])
    assert parse_csv(out.out) == [["month", "txs"], ["9999-12", "1"]]
    out = run_ok(capsys, ["--db", db, "ppc", "pos-pow"])
    assert parse_csv(out.out) == [["month", "pos", "pow"], ["9999-12", "1", "0"]]


def test_fee_weeks_end_in_the_week_that_runs_into_year_10000(tmp_path, capsys):
    # 9999-W52 ends on 10000-01-02: a week's step from the Saturday before
    # it, as from any Saturday noon since 2011-05-07, would land in 10000
    last = 253402300799  # 9999-12-31T23:59:59Z, a Friday
    source = tmp_path / "nmc.ndjson"
    source.write_text("\n".join([
        block_line("nmc", 0, 253401739200, [h32(1)]),  # 9999-12-25T12:00Z
        tx_line("nmc", h32(1), 0, 0, "n1", None, name_op={
            "kind": "firstupdate", "name": "d/a", "paid_fee": "5"}),
        block_line("nmc", 1, last, [h32(2)]),
        tx_line("nmc", h32(2), 1, 0, "n1", None, name_op={
            "kind": "update", "name": "d/a", "paid_fee": "7"})]) + "\n")
    db = str(tmp_path / "db")
    run_ok(capsys, ["--db", db, "ingest", str(source), "--chain", "nmc"])
    out = run_ok(capsys, ["--db", db, "nmc", "fees"])
    assert parse_csv(out.out) == [
        ["week", "kind", "fee_units"], ["9999-W51", "firstupdate", "5"],
        ["9999-W51", "update", "0"], ["9999-W52", "firstupdate", "0"],
        ["9999-W52", "update", "7"]]


@pytest.mark.parametrize("argv", [
    ["ingest", "dump.ndjson", "--chain", "eth"],
    ["eth", "classify"],
    ["eth", "zombies"],
    ["eth", "lifetimes"],
    ["eth", "precreation"],
    ["eth", "probe", "--gas-fixture", "gas.ndjson"],
    ["eth", "similarity", "--references", "refs.json", "--corpus", "c.txt"],
    ["nmc", "fees"],
    ["nmc", "mergemine"],
    ["nmc", "rereg", "--day", "2011-05-17"],
    ["ppc", "pos-pow"],
    ["poison", "scan"],
    ["crawl", "--sim", "topo.json"],
    ["bootstrap", "harvest", "--seeds", "seeds.json"],
    ["bootstrap", "probe", "--seeds", "seeds.json"],
], ids=lambda argv: " ".join(argv[:2]))
def test_cutoff_refused_where_not_honoured(tmp_path, capsys, argv):
    db = str(tmp_path / "db")
    assert run_cli(["--db", db, "--cutoff", "2015-10-01T00:00:00Z",
                    *argv]) == 1
    assert "--cutoff is honoured only by" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["eth", "similarity", "--references", "refs.json", "--corpus", "c.txt",
      "--minor", "5", "--heavy", "3"], "--minor/--heavy"),
    (["crawl", "--sim", "topo.json", "--prefix-bits", "40"], "--prefix-bits"),
    (["crawl", "--sim", "topo.json", "--max-inflight", "0"], "--max-inflight"),
    (["crawl", "--sim", "topo.json", "--k", "0"], "--k"),
    (["eth", "lifetimes", "--edges", "10,5"], "--edges"),
    (["bootstrap", "harvest", "--seeds", "seeds.json", "--rounds", "0"],
     "--rounds"),
    (["bootstrap", "probe", "--seeds", "seeds.json", "--script", "probes.json",
      "--port", "0"], "--port"),
    (["bootstrap", "probe", "--seeds", "seeds.json", "--script", "probes.json",
      "--workers", "0"], "--workers"),
    (["eth", "zombies", "--top", "-1"], "--top"),
    (["nmc", "rereg", "--day", "2011-05-17", "--window", "-5"], "--window"),
    (["eth", "probe", "--gas-fixture", "gas.ndjson", "--caller", "zz"],
     "--caller"),
    (["eth", "probe", "--gas-fixture", "gas.ndjson", "--contracts",
      "contracts.txt"], "'--contracts': line 2"),
], ids=["similarity minor>heavy", "crawl prefix-bits", "crawl max-inflight",
        "crawl k", "lifetimes edges", "harvest rounds", "probe port",
        "probe workers", "zombies top", "rereg window", "probe caller",
        "probe contracts"])
def test_bad_option_value_is_usage_error(eth_db, tmp_path, monkeypatch,
                                         capsys, argv, option):
    # every file the commands read exists, so only the value is at fault
    monkeypatch.chdir(tmp_path)
    (tmp_path / "refs.json").write_text(json.dumps(
        [{"name": "token", "bytecode": "6001", "optimized": False}]))
    (tmp_path / "c.txt").write_text("6001\n")
    (tmp_path / "topo.json").write_text(json.dumps(
        {"n_peers": 10, "degree": 4, "seed": 1}))
    (tmp_path / "seeds.json").write_text(json.dumps(
        {"port": 8333, "hardcoded": ["5.5.5.5"], "dns": []}))
    (tmp_path / "probes.json").write_text(json.dumps({"5.5.5.5": "accepted"}))
    (tmp_path / "gas.ndjson").write_text(json.dumps(
        {"type": "gas_fixture", "address": addr(1), "selector": "41c0e1b5",
         "estimate": 300}) + "\n")
    (tmp_path / "contracts.txt").write_text(f"{addr(1)}\nnot-an-address\n")
    assert run_cli(["--db", eth_db, *argv]) == 1
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err


HARVEST = ["bootstrap", "harvest", "--seeds", "seeds.json", "--script",
           "resolver.json"]
PROBE = ["bootstrap", "probe", "--seeds", "seeds.json", "--script",
         "probes.json"]


@pytest.mark.parametrize("name, content, argv, expected", [
    ("refs.json", [{"bytecode": "6001"}],
     ["eth", "similarity", "--references", "refs.json", "--corpus", "c.txt"],
     ("--references", "entry 0")),
    ("refs.json", [{"name": "token", "bytecode": "6001"}, {"name": "x"}],
     ["eth", "similarity", "--references", "refs.json", "--corpus", "c.txt"],
     ("--references", "entry 1")),
    ("refs.json", [{"name": "token", "bytecode": "6001"}, "6002"],
     ["eth", "similarity", "--references", "refs.json", "--corpus", "c.txt"],
     ("--references", "entry 1")),
    ("refs.json", {"name": "token", "bytecode": "6001"},
     ["eth", "similarity", "--references", "refs.json", "--corpus", "c.txt"],
     ("--references", "list")),
    ("topo.json", {"degree": 4},
     ["crawl", "--sim", "topo.json"], ("--sim", "n_peers")),
    ("topo.json", {"n_peers": 10},
     ["crawl", "--sim", "topo.json"], ("--sim", "degree")),
    ("topo.json", [10, 4], ["crawl", "--sim", "topo.json"], ("--sim",)),
    ("topo.json", {"n_peers": None, "degree": 4},
     ["crawl", "--sim", "topo.json"], ("--sim",)),
    ("topo.json", {"n_peers": 4, "degree": 4},
     ["crawl", "--sim", "topo.json"], ("--sim", "degree")),
    ("topo.json", {"n_peers": 10, "degree": 4, "unreachable_fraction": 2.0},
     ["crawl", "--sim", "topo.json"], ("--sim", "unreachable_fraction")),
    ("seeds.json", '{"port": 8333, "hardcoded": ', HARVEST, ("--seeds",)),
    ("seeds.json", {"hardcoded": ["5.5.5.5"], "dns": ["seed.a"]}, HARVEST,
     ("--seeds", "port")),
    ("seeds.json", {"port": 0, "hardcoded": ["5.5.5.5"]}, PROBE,
     ("--seeds", "port")),
    ("resolver.json", "seed.a: 1.1.1.1\n", HARVEST, ("--script",)),
    ("resolver.json", [["1.1.1.1"]], HARVEST, ("--script", "names")),
    ("resolver.json", {"seed.a": "BOGUS"}, HARVEST, ("--script", "seed.a")),
    ("probes.json", "5.5.5.5 accepted\n", PROBE, ("--script",)),
    ("probes.json", ["5.5.5.5"], PROBE, ("--script", "addresses")),
    ("probes.json", {"5.5.5.5": "maybe"}, PROBE, ("--script", "maybe")),
    ("selectors.txt", "kill()\n0x1234\n",
     ["eth", "probe", "--gas-fixture", "gas.ndjson", "--selectors",
      "selectors.txt"], ("--selectors", "line 2:", "0x1234")),
    ("sigs.csv", "format,magic_hex,offset,extension\npng,4D5Z,0,png\n",
     ["poison", "scan", "--signatures", "sigs.csv"], ("--signatures",)),
    ("sigs.csv", "format,magic_hex,offset,extension\ngif,zz,0,gif\n",
     ["poison", "scan", "--signatures", "sigs.csv"],
     ("--signatures", "line 2:")),
    ("ips.txt", b"5.5.5.5\n6.6.\xff.6\n",
     ["bootstrap", "probe", "--ips", "ips.txt", "--port", "8333", "--script",
      "probes.json"], ("--ips", "utf-8")),
    ("rates.csv", "week,usd\n2011-W18,abc\n", ["nmc", "fees", "--rates",
                                                "rates.csv"],
     ("--rates", "line 2:", "bad rate")),
    ("geo.csv", "cidr,country\n10.0.0.0/8,\n", ["crawl", "--geo", "geo.csv"],
     ("--geo", "line 2:", "empty country code")),
    ("contracts.txt", f"{addr(1)}\n\n0x{addr(1).upper()}\n",
     ["eth", "probe", "--gas-fixture", "gas.ndjson", "--contracts",
      "contracts.txt"], ("--contracts", "line 3:", f"duplicate address {addr(1)}")),
    ("rates.csv", "week,usd\n2011-W18,1\n2011-W18,2\n",
     ["nmc", "fees", "--rates", "rates.csv"],
     ("--rates", "line 3:", "duplicate week 2011-W18")),
    ("geo.csv", "10.0.0.0/8,AA\n10.1.2.3/8,BB\n", ["crawl", "--geo", "geo.csv"],
     ("--geo", "line 2:", "duplicate network 10.0.0.0/8")),
], ids=["reference without name", "reference without bytecode",
        "reference not an object", "references not a list",
        "topology without n_peers", "topology without degree",
        "topology not an object", "topology with null n_peers",
        "topology degree too high", "topology unreachable above 1",
        "seeds not json", "seeds without port", "seeds port 0",
        "resolver script not json", "resolver script a list",
        "resolver rounds a string", "prober script not json",
        "prober script a list", "prober outcome unknown",
        "selector not 4 bytes", "signature magic not hex",
        "signature row named by line", "ips line not UTF-8",
        "rate row named by line", "geo row named by line",
        "contract address repeated", "rate week repeated",
        "geo network repeated"])
def test_malformed_input_file_is_usage_error(tmp_path, monkeypatch, capsys,
                                             name, content, argv, expected):
    # the other files are well formed, so only `name` is at fault; every
    # bootstrap case is scripted, so no case reaches the network
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("6001\n")
    (tmp_path / "seeds.json").write_text(json.dumps(
        {"port": 8333, "hardcoded": ["5.5.5.5"], "dns": ["seed.a"]}))
    (tmp_path / "resolver.json").write_text(json.dumps(
        {"seed.a": [["1.1.1.1"]]}))
    (tmp_path / "probes.json").write_text(json.dumps({"5.5.5.5": "accepted"}))
    (tmp_path / "gas.ndjson").write_text(json.dumps(
        {"type": "gas_fixture", "address": addr(1), "selector": "41c0e1b5",
         "estimate": 300}) + "\n")
    if isinstance(content, bytes):
        (tmp_path / name).write_bytes(content)
    else:
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for part in expected:
        assert part in err


@pytest.mark.parametrize("value", [True, 1.5, "1", -1],
                         ids=["bool", "fraction", "string", "negative"])
@pytest.mark.parametrize("name, base, key, argv, option", [
    ("seeds.json", {"hardcoded": ["5.5.5.5"]}, "port", PROBE, "--seeds"),
    ("topo.json", {"degree": 4}, "n_peers", ["crawl", "--sim", "topo.json"],
     "--sim"),
    ("topo.json", {"n_peers": 10}, "degree", ["crawl", "--sim", "topo.json"],
     "--sim"),
], ids=["seeds port", "sim n_peers", "sim degree"])
def test_option_file_integer_fields_are_strict(tmp_path, monkeypatch, capsys,
                                               name, base, key, argv, option,
                                               value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probes.json").write_text(json.dumps({"5.5.5.5": "accepted"}))
    (tmp_path / name).write_text(json.dumps({**base, key: value}))
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert option in err and key in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("unreachable_fraction", "0.5"), ("unreachable_fraction", True),
    ("churn", "0.5"), ("churn", True),
    ("seed", "abc"), ("seed", 1.5), ("seed", True),
])
def test_sim_topology_numbers_are_strict(tmp_path, capsys, key, value):
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps({"n_peers": 10, "degree": 4, key: value}))
    assert run_cli(["crawl", "--sim", str(topology)]) == 1
    err = capsys.readouterr().err
    assert "--sim" in err and key in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [{}, {"seed": None}, {"churn": 0}],
                         ids=["seed absent", "seed null", "integer churn"])
def test_sim_topology_optional_fields(tmp_path, capsys, extra):
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps({"n_peers": 10, "degree": 4, **extra}))
    out = run_ok(capsys, ["crawl", "--sim", str(topology), "--prefix-bits",
                          "2"])
    assert json.loads(out.out)["unique_node_ids"] >= 1


@pytest.mark.parametrize("value", ["false", "no", 0, None])
def test_reference_optimized_is_strict(tmp_path, capsys, value):
    references = tmp_path / "refs.json"
    references.write_text(json.dumps(
        [{"name": "token", "bytecode": "6001", "optimized": value}]))
    corpus = tmp_path / "c.txt"
    corpus.write_text("6001\n")
    assert run_cli(["eth", "similarity", "--references", str(references),
                    "--corpus", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert "--references" in err and "entry 0" in err and "optimized" in err


@pytest.mark.parametrize("value", ["no", "true", 1, None])
def test_gas_fixture_terminates_is_strict(tmp_path, capsys, value):
    fixture = tmp_path / "gas.ndjson"
    fixture.write_text(json.dumps(
        {"type": "gas_fixture", "address": addr(1), "selector": "41c0e1b5",
         "estimate": 300, "terminates": value}) + "\n")
    assert run_cli(["eth", "probe", "--gas-fixture", str(fixture)]) == 2
    err = capsys.readouterr().err
    assert "line 1: invalid field 'terminates'" in err


@pytest.mark.parametrize("value", [True, 1.5, "1", -1],
                         ids=["bool", "fraction", "string", "negative"])
@pytest.mark.parametrize("option, record", [
    ("--internal", {"type": "internal_create", "address": addr(0xC1DE),
                    "parent": CONTRACT_C2}),
    ("--terminated", {"type": "terminate", "address": CONTRACT_C2}),
], ids=["internal", "terminated"])
def test_side_file_height_is_strict(eth_db, tmp_path, capsys, option, record,
                                    value):
    side = tmp_path / "side.ndjson"
    side.write_text(json.dumps({**record, "height": value}) + "\n")
    assert run_cli(["--db", eth_db, "eth", "classify", option,
                    str(side)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "height" in err and "Traceback" not in err


def test_out_file_and_stamp(eth_db, tmp_path, capsys):
    out_path = tmp_path / "monthly.csv"
    run_ok(capsys, ["--db", eth_db, "--out", str(out_path), "--stamp",
                    "report", "tx-monthly", "--chain", "eth"])
    assert out_path.read_text().startswith("month,txs\n")
    stamp = json.loads((tmp_path / "monthly.csv.stamp.json").read_text())
    assert stamp["tool"] == "chainlens"
    # stamping without a file target is a usage error
    assert run_cli(["--db", eth_db, "--stamp", "report", "tx-monthly",
                    "--chain", "eth"]) == 1


def test_stamp_without_out_is_refused_before_the_command_runs(tmp_path,
                                                             capsys):
    source = tmp_path / "in.ndjson"
    source.write_text(block_line("eth", 0, 100, []) + "\n")
    db = tmp_path / "db"
    assert run_cli(["--db", str(db), "--stamp", "ingest", str(source),
                    "--chain", "eth"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--stamp requires --out" in captured.err
    with Store(str(db)) as store:
        assert store.block_count(ChainKind.ETHEREUM) == 0


def test_out_to_missing_directory_is_data_error(eth_db, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli(["--db", eth_db, "--out", str(missing), "report",
                    "tx-monthly", "--chain", "eth"]) == 2


def test_eth_classify(eth_db, capsys):
    out = run_ok(capsys, ["--db", eth_db, "eth", "classify"])
    rows = parse_csv(out.out)
    assert rows[0] == ["month", "to_account", "to_contract",
                       "create_contract", "zombie_create"]
    assert rows[1:] == [["2015-08", "3", "2", "2", "1"],
                        ["2015-09", "3", "3", "1", "1"],
                        ["2015-10", "1", "2", "0", "1"]]


def test_eth_zombie_views(eth_db, capsys):
    out = run_ok(capsys, ["--db", eth_db, "eth", "zombies"])
    assert parse_csv(out.out)[1] == ["3", "34"]
    out = run_ok(capsys, ["--db", eth_db, "eth", "zombies", "--view", "top",
                          "--top", "2"])
    rows = parse_csv(out.out)
    assert len(rows) == 3 and rows[1][1] == "21"
    out = run_ok(capsys, ["--db", eth_db, "eth", "zombies", "--view", "cdf"])
    assert parse_csv(out.out)[1:] == [["1", "1"], ["2", "2"], ["4", "3"]]
    out = run_ok(capsys, ["--db", eth_db, "eth", "zombies", "--view",
                          "creators"])
    assert parse_csv(out.out)[1] == ["aa" * 20, "2"]


def test_eth_lifetimes(eth_db, tmp_path, capsys):
    side = tmp_path / "terminated.ndjson"
    side.write_text("\n".join(eth_termination_sidefile()) + "\n")
    out = run_ok(capsys, ["--db", eth_db, "eth", "lifetimes",
                          "--terminated", str(side)])
    assert parse_csv(out.out)[1:] == [["<=100", "2"], ["<=10000", "0"],
                                      [">10000", "0"]]
    assert run_cli(["--db", eth_db, "eth", "lifetimes", "--terminated",
                    str(side), "--edges", "ten,20"]) == 1


@pytest.mark.parametrize("command", ["lifetimes", "classify", "precreation"])
def test_second_termination_height_is_a_data_error(eth_db, tmp_path, capsys,
                                                   command):
    side = tmp_path / "terminated.ndjson"
    later = json.dumps({"type": "terminate", "address": CONTRACT_C1,
                        "height": 500})
    side.write_text("\n".join(eth_termination_sidefile() + [later]) + "\n")
    assert run_cli(["--db", eth_db, "eth", command, "--terminated",
                    str(side)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "height" in err and "Traceback" not in err



def test_lifetimes_edges_checked_before_registry(eth_db, tmp_path,
                                                 monkeypatch, capsys):
    side = tmp_path / "terminated.ndjson"
    side.write_text("\n".join(eth_termination_sidefile()) + "\n")
    built = []

    def spy(*args):
        registry = real_build(*args)
        built.append(len(registry))
        return registry

    real_build = cli_module.build_contract_registry
    monkeypatch.setattr(cli_module, "build_contract_registry", spy)
    argv = ["--db", eth_db, "eth", "lifetimes", "--terminated", str(side)]
    assert run_cli(argv + ["--edges", "10,20"]) == 0
    assert len(built) == 1 and built[0] > 0
    capsys.readouterr()
    assert run_cli(argv + ["--edges", "10,5"]) == 1
    err = capsys.readouterr().err
    assert "--edges" in err and "strictly increasing" in err
    # the bad edges were refused before any registry pass
    assert len(built) == 1

def test_eth_precreation(eth_db, capsys):
    out = run_ok(capsys, ["--db", eth_db, "eth", "precreation"])
    rows = parse_csv(out.out)
    assert rows[0] == ["funding_tx", "contract", "creation_height"]
    assert rows[1] == [h32(0xE000 + 4), CONTRACT_C2, "1"]


def test_eth_probe_fixture_flow(tmp_path, capsys):
    fixture = tmp_path / "gas.ndjson"
    rows = [{"type": "gas_fixture", "address": addr(1),
             "selector": "41c0e1b5", "estimate": 300, "terminates": True,
             "refund_to": "caller"},
            {"type": "gas_fixture", "address": addr(2),
             "selector": "41c0e1b5", "estimate": 60_000}]
    fixture.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = run_ok(capsys, ["eth", "probe", "--gas-fixture", str(fixture)])
    table = parse_csv(out.out)
    assert table[0][:5] == ["contract", "selector", "gas_estimate",
                            "confirmed", "refund"]
    assert table[1:] == [[addr(1), "41c0e1b5", "300", "1", "caller", "", "0",
                          ""]]
    # the mode flags are mutually exclusive and one is required
    assert run_cli(["eth", "probe"]) == 1
    assert run_cli(["eth", "probe", "--gas-fixture", str(fixture),
                    "--rpc", "http://localhost:1"]) == 1


def test_eth_probe_refund_to_null_address(tmp_path, capsys):
    fixture = tmp_path / "gas.ndjson"
    fixture.write_text(json.dumps(
        {"type": "gas_fixture", "address": addr(1), "selector": "41c0e1b5",
         "estimate": 300, "terminates": True,
         "refund_to": "0x" + "00" * 20}) + "\n")
    out = run_ok(capsys, ["eth", "probe", "--gas-fixture", str(fixture)])
    assert parse_csv(out.out)[1:] == [[addr(1), "41c0e1b5", "300", "1",
                                       "null_address", "", "0", ""]]


def test_eth_probe_bad_fixture_is_data_error(tmp_path, capsys):
    good = {"type": "gas_fixture", "address": addr(1),
            "selector": "41c0e1b5", "estimate": 300}
    no_address = {key: value for key, value in good.items()
                  if key != "address"}
    fixture = tmp_path / "gas.ndjson"
    for record in ([1, 2], no_address, dict(good, selector="41c0"),
                   dict(good, estimate="cheap"), dict(good, refund_to="me")):
        fixture.write_text(json.dumps(record) + "\n")
        assert run_cli(["eth", "probe", "--gas-fixture", str(fixture)]) == 2
        assert "line 1" in capsys.readouterr().err


def test_eth_probe_repeated_fixture_pair(tmp_path, capsys):
    first = {"type": "gas_fixture", "address": addr(1),
             "selector": "41c0e1b5", "estimate": 300, "terminates": True}
    fixture = tmp_path / "gas.ndjson"
    fixture.write_text(json.dumps(first) + "\n")
    once = run_ok(capsys, ["eth", "probe", "--gas-fixture", str(fixture)]).out
    # an identical repeat, spelled differently, is a no-op
    again = dict(first, address="0x" + addr(1).upper(), selector="0x41c0e1b5")
    fixture.write_text(json.dumps(first) + "\n" + json.dumps(again) + "\n")
    assert run_ok(capsys, ["eth", "probe", "--gas-fixture",
                           str(fixture)]).out == once
    # a repeat with other contents is refused at the later line
    fixture.write_text(json.dumps(first) + "\n"
                       + json.dumps(dict(first, estimate=60_000)) + "\n")
    assert run_cli(["eth", "probe", "--gas-fixture", str(fixture)]) == 2
    assert "line 2: invalid field 'selector'" in capsys.readouterr().err


def test_eth_probe_contract_list_override(tmp_path, capsys):
    fixture = tmp_path / "gas.ndjson"
    fixture.write_text(json.dumps(
        {"type": "gas_fixture", "address": addr(1), "selector": "41c0e1b5",
         "estimate": 300, "terminates": True, "refund_to": "caller"}) + "\n")
    contracts = tmp_path / "contracts.txt"
    contracts.write_text(f"# targets\n{addr(2)}\n")
    out = run_ok(capsys, ["eth", "probe", "--gas-fixture", str(fixture),
                          "--contracts", str(contracts)])
    # addr(2) estimates at the fixture default, so nothing is flagged
    assert parse_csv(out.out)[1:] == []


def test_eth_similarity(tmp_path, capsys):
    references = tmp_path / "refs.json"
    references.write_text(json.dumps(
        [{"name": "token", "bytecode": "60016002", "optimized": True}]))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("60016002\n60016003\nffffffffffffffff\n")
    out = run_ok(capsys, ["eth", "similarity", "--references",
                          str(references), "--corpus", str(corpus),
                          "--minor", "2", "--heavy", "4"])
    assert parse_csv(out.out)[1] == ["token", "1", "1", "1", "0"]


@pytest.fixture
def nmc_db(tmp_path):
    from test_namecoin import nmc_fixture
    source = tmp_path / "nmc.ndjson"
    source.write_text("\n".join(nmc_fixture()) + "\n")
    db = str(tmp_path / "db")
    assert run_cli(["--db", db, "ingest", str(source), "--chain", "nmc"]) == 0
    return db


def test_nmc_fees_with_rates(nmc_db, tmp_path, capsys):
    out = run_ok(capsys, ["--db", nmc_db, "nmc", "fees"])
    rows = parse_csv(out.out)
    assert rows[0] == ["week", "kind", "fee_units"]
    assert rows[1] == ["2011-W18", "new", "1000000"]
    rates = tmp_path / "rates.csv"
    rates.write_text("week,usd\n2011-W18,2\n")
    out = run_ok(capsys, ["--db", nmc_db, "nmc", "fees", "--rates",
                          str(rates)])
    rows = parse_csv(out.out)
    assert rows[1] == ["2011-W18", "new", "1000000", "0.02"]
    assert rows[4][3] == ""  # no rate for 2011-W19


def test_nmc_mergemine(nmc_db, capsys):
    out = run_ok(capsys, ["--db", nmc_db, "nmc", "mergemine"])
    rows = {row[0]: row[1:] for row in parse_csv(out.out)[1:]}
    assert rows["blocks"] == ["3", "2", "5", "40.0"]
    assert rows["name_firstupdate"] == ["3", "2", "5", "40.0"]


def test_nmc_rereg(nmc_db, capsys):
    out = run_ok(capsys, ["--db", nmc_db, "nmc", "rereg", "--day",
                          "2011-05-17", "--window", "1"])
    assert "first-updates on 2011-05-17: 3" in out.err
    assert parse_csv(out.out)[1:] == [
        ["d/alpha", "reregistration", "19201"],
        ["d/beta", "anomaly", "19203"]]
    assert run_cli(["--db", nmc_db, "nmc", "rereg", "--day", "someday"]) == 1


def test_nmc_fees_sum_fees_past_2_63_exactly(tmp_path, capsys):
    # two ops of 2**64 units in 2011-W18, one fee a JSON integer and one
    # a decimal string
    t = [h32(0xD000 + i) for i in range(2)]
    source = tmp_path / "nmc.ndjson"
    source.write_text("\n".join([
        block_line("nmc", 19200, 1304294400, t),
        tx_line("nmc", t[0], 19200, 0, "n1", None, name_op={
            "kind": "firstupdate", "name": "d/a", "paid_fee": 2**64}),
        tx_line("nmc", t[1], 19200, 1, "n1", None, name_op={
            "kind": "firstupdate", "name": "d/b", "paid_fee": str(2**64)}),
    ]) + "\n")
    db = tmp_path / "db"
    run_ok(capsys, ["--db", str(db), "ingest", str(source), "--chain", "nmc"])
    out = run_ok(capsys, ["--db", str(db), "nmc", "fees"])
    assert parse_csv(out.out)[1:] == [["2011-W18", "firstupdate", str(2**65)]]
    # an INTEGER column would overflow or round a fee this large
    with closing(sqlite3.connect(db / "chainlens.sqlite")) as conn:
        stored = conn.execute("SELECT typeof(op_fee), op_fee FROM txs")
        assert stored.fetchall() == [("text", str(2**64))] * 2


# the tables as an earlier chainlens wrote them, a name op as JSON text
_OLD_SCHEMA = """
CREATE TABLE blocks (chain TEXT NOT NULL, height INTEGER NOT NULL,
    hash TEXT NOT NULL, parent TEXT NOT NULL, time INTEGER NOT NULL,
    auxpow INTEGER, proof TEXT, tx_hashes TEXT NOT NULL,
    PRIMARY KEY (chain, height));
CREATE TABLE txs (chain TEXT NOT NULL, hash TEXT NOT NULL,
    height INTEGER NOT NULL, idx INTEGER NOT NULL, sender TEXT NOT NULL,
    recipient TEXT, value TEXT NOT NULL, input TEXT NOT NULL, fee TEXT,
    gas INTEGER, name_op TEXT, PRIMARY KEY (chain, hash),
    UNIQUE (chain, height, idx));
INSERT INTO blocks VALUES ('nmc', 19200, 'b0', 'b1', 1304294400, NULL, NULL,
    '["t0"]');
INSERT INTO txs VALUES ('nmc', 't0', 19200, 0, 'n1', NULL, '0', '', NULL,
    NULL, '{"kind": "update", "name": "d/a", "name_hash": null,
            "paid_fee": "1"}');
"""


def test_store_of_another_schema_is_refused(tmp_path, capsys):
    db = tmp_path / "db"
    db.mkdir()
    path = db / "chainlens.sqlite"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(_OLD_SCHEMA)
    before = path.read_bytes()
    source = tmp_path / "nmc.ndjson"
    source.write_text(block_line("nmc", 19201, 1304294400) + "\n")
    for argv in (["ingest", str(source), "--chain", "nmc"], ["nmc", "fees"]):
        assert run_cli(["--db", str(db), *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: store {path} was written with another schema"
                       " (table 'txs'): re-ingest its dumps into a new store\n")
    assert path.read_bytes() == before
    assert sorted(p.name for p in db.iterdir()) == ["chainlens.sqlite"]


def test_store_that_is_not_sqlite_is_refused(tmp_path, capsys):
    db = tmp_path / "db"
    db.mkdir()
    path = db / "chainlens.sqlite"
    before = random.Random(7).randbytes(2000)
    path.write_bytes(before)
    source = tmp_path / "nmc.ndjson"
    source.write_text(block_line("nmc", 19201, 1304294400) + "\n")
    for argv in (["ingest", str(source), "--chain", "nmc"], ["nmc", "fees"]):
        assert run_cli(["--db", str(db), *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: cannot read store {path}: "
                       "file is not a database\n")
    assert path.read_bytes() == before
    assert sorted(p.name for p in db.iterdir()) == ["chainlens.sqlite"]


def test_store_that_is_a_directory_is_refused(tmp_path, capsys):
    db = tmp_path / "db"
    path = db / "chainlens.sqlite"
    (path / "inside").mkdir(parents=True)
    source = tmp_path / "nmc.ndjson"
    source.write_text(block_line("nmc", 19201, 1304294400) + "\n")
    for argv in (["ingest", str(source), "--chain", "nmc"], ["nmc", "fees"]):
        assert run_cli(["--db", str(db), *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: cannot read store {path}: "
                       "unable to open database file\n")
    assert [p.name for p in db.iterdir()] == ["chainlens.sqlite"]
    assert [p.name for p in path.iterdir()] == ["inside"]


def test_live_crawl_closes_its_socket(tmp_path, monkeypatch, capsys):
    from chainlens.discovery import live
    made = []

    class Loopback(live.UdpV4Transport):
        def __init__(self, private_key, neighbor_k):
            super().__init__(private_key, bind=("127.0.0.1", 0),
                             ping_timeout=0.05, neighbor_k=neighbor_k)
            made.append(self)

    monkeypatch.setattr(live, "UdpV4Transport", Loopback)
    with closing(socket.socket(socket.AF_INET, socket.SOCK_DGRAM)) as sock:
        sock.bind(("127.0.0.1", 0))
        silent = sock.getsockname()[1]
    bootnodes = tmp_path / "boot.txt"
    bootnodes.write_text(f"{'ab' * 64}@127.0.0.1:{silent}\n")
    # no bootnode answers, so crawl raises
    assert run_cli(["crawl", "--live", str(bootnodes),
                    "--prefix-bits", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: no seed peer answered the ping-pong exchange\n")
    [transport] = made
    assert transport._sock.fileno() == -1


def test_ppc_pos_pow(tmp_path, capsys):
    source = tmp_path / "ppc.ndjson"
    source.write_text("\n".join([
        block_line("ppc", 0, 1346500000, [], proof="pow"),
        block_line("ppc", 1, 1346600000, [], proof="pos")]) + "\n")
    db = str(tmp_path / "db")
    assert run_cli(["--db", db, "ingest", str(source), "--chain", "ppc"]) == 0
    capsys.readouterr()
    out = run_ok(capsys, ["--db", db, "ppc", "pos-pow"])
    assert parse_csv(out.out) == [["month", "pos", "pow"],
                                  ["2012-09", "1", "1"]]


def test_poison_scan(tmp_path, capsys):
    payload = "89504e470d0a1a0a" + "00" * 4
    source = tmp_path / "eth.ndjson"
    source.write_text("\n".join([
        block_line("eth", 0, 1438387200, [h32(1)]),
        tx_line("eth", h32(1), 0, 0, addr(1), addr(2), "0", payload)]) + "\n")
    db = str(tmp_path / "db")
    assert run_cli(["--db", db, "ingest", str(source), "--chain", "eth"]) == 0
    capsys.readouterr()
    save = tmp_path / "carved"
    out = run_ok(capsys, ["--db", db, "poison", "scan", "--save", str(save),
                          "--verify-full"])
    assert parse_csv(out.out)[1] == ["png", h32(1), "12"]
    target = save / f"{h32(1)}.png"
    assert target.read_bytes() == bytes.fromhex(payload)
    # a payload that cannot be written is reported; the rows stay the same
    target.unlink()
    target.mkdir()
    failed = run_ok(capsys, ["--db", db, "poison", "scan", "--save",
                             str(save), "--verify-full"])
    assert failed.out == out.out
    assert failed.err.startswith(f"write failed: {target}: ")
    assert "Traceback" not in failed.err


def test_crawl_sim(tmp_path, capsys):
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps({"n_peers": 30, "degree": 8, "seed": 5}))
    geo = tmp_path / "geo.csv"
    geo.write_text("cidr,country\n0.0.0.0/0,ZZ\n")
    out = run_ok(capsys, ["crawl", "--sim", str(topology), "--geo", str(geo),
                          "--seed", "5"])
    doc = json.loads(out.out)
    assert doc["unique_node_ids"] == 30
    assert doc["countries"] == [["ZZ", 30]]
    assert run_cli(["crawl"]) == 1


def test_seeded_topology_gives_a_deterministic_crawl(tmp_path, capsys):
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps({"n_peers": 200, "degree": 10,
                                    "unreachable_fraction": 0.05,
                                    "churn": 0.05, "seed": 7}))
    argv = ["crawl", "--sim", str(topology), "--prefix-bits", "5"]
    first = run_ok(capsys, argv).out
    assert run_ok(capsys, argv).out == first
    # the topology's seed stands for an absent --seed
    assert run_ok(capsys, [*argv, "--seed", "7"]).out == first


def test_crawl_refuses_csv_format(tmp_path, capsys):
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps({"n_peers": 10, "degree": 4, "seed": 1}))
    argv = ["crawl", "--sim", str(topology), "--prefix-bits", "4"]
    assert run_cli(["--format", "csv", *argv]) == 1
    assert "--format csv" in capsys.readouterr().err
    out = run_ok(capsys, ["--format", "json", *argv])
    assert json.loads(out.out)["unique_node_ids"] == 10


def test_bootstrap_harvest_and_probe(tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"port": 8333,
                                 "hardcoded": ["5.5.5.5", "6.6.6.6"],
                                 "dns": ["seed.a"]}))
    script = tmp_path / "resolver.json"
    script.write_text(json.dumps({"seed.a": [["1.1.1.1"],
                                             ["1.1.1.1", "2.2.2.2"]]}))
    out = run_ok(capsys, ["bootstrap", "harvest", "--seeds", str(seeds),
                          "--rounds", "2", "--script", str(script)])
    assert parse_csv(out.out)[1:] == [["0", "1", "1"], ["1", "1", "2"]]
    out = run_ok(capsys, ["--format", "json", "bootstrap", "harvest",
                          "--seeds", str(seeds), "--rounds", "1",
                          "--script", str(script)])
    doc = json.loads(out.out)
    assert doc["hardcoded_ips"] == ["5.5.5.5", "6.6.6.6"]

    probes = tmp_path / "prober.json"
    probes.write_text(json.dumps({"5.5.5.5": "accepted",
                                  "6.6.6.6": "refused"}))
    out = run_ok(capsys, ["bootstrap", "probe", "--seeds", str(seeds),
                          "--script", str(probes)])
    assert parse_csv(out.out)[1:] == [["5.5.5.5", "open"],
                                      ["6.6.6.6", "closed"]]
    out = run_ok(capsys, ["--format", "json", "bootstrap", "probe",
                          "--seeds", str(seeds), "--script", str(probes)])
    doc = json.loads(out.out)
    assert doc["summary"]["pct_open"] == 50.0
    # no address source at all
    assert run_cli(["bootstrap", "probe", "--port", "1"]) == 1


def test_bootstrap_probe_ip_list_skips_comments(tmp_path, capsys):
    ips = tmp_path / "ips.txt"
    ips.write_text("5.5.5.5\n  # note\n\n\t6.6.6.6\n")
    probes = tmp_path / "prober.json"
    probes.write_text(json.dumps({"5.5.5.5": "accepted",
                                  "6.6.6.6": "refused"}))
    out = run_ok(capsys, ["bootstrap", "probe", "--ips", str(ips),
                          "--port", "8333", "--script", str(probes)])
    assert parse_csv(out.out)[1:] == [["5.5.5.5", "open"],
                                      ["6.6.6.6", "closed"]]


# Path inputs that their consumer streams line by line instead of loading
# whole, so they are exempt from LoadedFile; each with its reason.
_STREAMED_INPUTS = {("ingest", "source"):
                    "NDJSON dump, ingested line by line into the store"}
_STREAMED_INPUTS.update({
    (f"eth {command}", name): "NDJSON side-file, read line by line by "
                              "build_contract_registry"
    for command in ("classify", "lifetimes", "precreation")
    for name in ("internal_path", "terminated_path")})


def _walk(command, path=()):
    yield " ".join(path), command
    for name, sub in getattr(command, "commands", {}).items():
        yield from _walk(sub, path + (name,))


def test_every_input_file_is_read_by_its_option_type():
    streamed = set()
    for path, command in _walk(cli_module.cli):
        for param in command.params:
            if not (isinstance(param.type, click.Path) and param.type.exists):
                continue
            if (path, param.name) in _STREAMED_INPUTS:
                streamed.add((path, param.name))
            else:
                assert isinstance(param.type, cli_module.LoadedFile), \
                    f"{path} {param.name} is an unloaded input file"
    assert streamed == set(_STREAMED_INPUTS)
