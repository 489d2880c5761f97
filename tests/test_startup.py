"""A command imports only what it runs: numpy loads only for the commands
that hash (the contract-registry commands, `eth probe` and `crawl`), and
the store, report and analysis modules only for the commands that use
them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import chainlens
from chainlens.cli import run_cli

from conftest import eth_labeled_fixture

# Runs each argv as `python -m chainlens.cli ARGV` would, through runpy in
# one interpreter, and prints [argv, exit code, numpy loaded] for each as
# the last line. `import chainlens.cli` is the first step.
_CHILD = """
import json, runpy, sys, warnings

steps = []
import chainlens.cli
steps.append(["import chainlens.cli", 0, "numpy" in sys.modules])
# the module runs again as __main__, as it does under -m
warnings.filterwarnings("ignore", "'chainlens.cli' found in sys.modules",
                        RuntimeWarning)
for argv in json.loads(sys.argv[1]):
    sys.argv = ["chainlens", *argv]
    try:
        runpy.run_module("chainlens.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        steps.append([" ".join(argv), exc.code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


# Runs one argv as `python -m chainlens.cli ARGV` would, through runpy as
# in _CHILD, in a fresh interpreter, and prints [exit code, chainlens
# modules loaded, sqlite3 loaded] as the last line.
_ONE_COMMAND = """
import json, runpy, sys

sys.argv = ["chainlens", *json.loads(sys.argv[1])]
try:
    runpy.run_module("chainlens.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, sorted(
        name for name in sys.modules if name.split(".")[0] == "chainlens"),
        "sqlite3" in sys.modules]))
"""


def _child(cwd: Path, script: str, argument) -> list:
    src = str(Path(chainlens.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argument)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _numpy_after(cwd: Path, commands: list[list[str]]) -> list[list]:
    return _child(cwd, _CHILD, commands)


def test_only_the_hashing_commands_load_numpy(tmp_path):
    lines, _ = eth_labeled_fixture()
    (tmp_path / "eth.ndjson").write_text("\n".join(lines) + "\n")
    (tmp_path / "refs.json").write_text(json.dumps(
        [{"name": "token", "bytecode": "6001", "optimized": False}]))
    (tmp_path / "corpus.txt").write_text("6001\n6002\n")
    (tmp_path / "topo.json").write_text(json.dumps(
        {"n_peers": 10, "degree": 4, "seed": 1}))
    no_hash = [["--version"], ["--help"],
               ["ingest", "eth.ndjson", "--chain", "eth"],
               ["summarize", "--chain", "eth"], ["nmc", "fees"],
               ["poison", "scan"],
               ["eth", "similarity", "--references", "refs.json",
                "--corpus", "corpus.txt"]]
    steps = _numpy_after(tmp_path, no_hash + [["eth", "classify"]])
    assert steps == ([["import chainlens.cli", 0, False]]
                     + [[" ".join(argv), 0, False] for argv in no_hash]
                     + [["eth classify", 0, True]])
    assert _numpy_after(tmp_path, [["crawl", "--sim", "topo.json"]]) == [
        ["import chainlens.cli", 0, False], ["crawl --sim topo.json", 0, True]]


_START = ["chainlens", "chainlens.errors", "chainlens.eth", "chainlens.model"]
_STORE = ["chainlens.report", "chainlens.store"]


def test_each_command_loads_only_the_chainlens_modules_it_runs(tmp_path):
    lines, _ = eth_labeled_fixture()
    (tmp_path / "eth.ndjson").write_text("\n".join(lines) + "\n")
    (tmp_path / "refs.json").write_text(json.dumps(
        [{"name": "token", "bytecode": "6001"}]))
    (tmp_path / "corpus.txt").write_text("6001\n6002\n")
    (tmp_path / "seeds.json").write_text(json.dumps(
        {"port": 8333, "hardcoded": [], "dns": ["seed.a"]}))
    (tmp_path / "resolver.json").write_text(json.dumps(
        {"seed.a": [["1.1.1.1"]]}))
    # argv, in the order run (a store command reads what ingest wrote),
    # and the chainlens modules and sqlite3 each loads
    expected = [
        (["--version"], _START, False),
        (["--help"], _START, False),
        (["ingest", "eth.ndjson", "--chain", "eth"], _START + _STORE, True),
        (["summarize", "--chain", "eth"], _START + _STORE, True),
        (["nmc", "fees"], _START + _STORE + ["chainlens.chains",
                                               "chainlens.chains.namecoin"],
         True),
        (["eth", "similarity", "--references", "refs.json",
          "--corpus", "corpus.txt"],
         _START + ["chainlens.eth.similarity", "chainlens.report"], False),
        (["bootstrap", "harvest", "--seeds", "seeds.json",
          "--script", "resolver.json"],
         _START + ["chainlens.bootstrap", "chainlens.report"], False),
    ]
    loaded = {" ".join(argv): _child(tmp_path, _ONE_COMMAND, argv)
              for argv, _, _ in expected}
    assert loaded == {" ".join(argv): [0, sorted(modules), sqlite3]
                      for argv, modules, sqlite3 in expected}


def test_probe_help_shows_the_default_caller(capsys):
    assert run_cli(["eth", "probe", "--help"]) == 0
    assert f"[default: {'0' * 38}aa]" in capsys.readouterr().out
