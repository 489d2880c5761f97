"""Mutants of `src/` that the tests must kill, and a runner for them.

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID [ID …]  # the named mutants

Each mutant is one exact edit of one file under `src/`: an old snippet
that must occur there exactly once, and its replacement. For each mutant
the runner copies `src/`, `tests/` and `pyproject.toml` into a temporary
directory, applies the edit to the copy (the checkout is never edited)
and runs `python -m pytest -x -q` on the mutant's test ids with a
timeout. The copy is needed because `pyproject.toml` puts `src` ahead of
`PYTHONPATH`.

A mutant is killed when one of its tests fails, survived when they all
pass, timed out when they overrun, and stale when its snippet no longer
occurs exactly once: rewrite a stale entry for the new code or remove it.
The listed tests first run once on an unmutated copy, since a kill means
nothing if they fail there. The exit status is 1 if a mutant survived or
is stale, 2 if the unmutated tests fail or an id is unknown, else 0.

The runner needs only the standard library and the installed pytest, and
pytest does not collect this file. A change that adds a fast path or a
test adds the mutants its tests kill here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0


@dataclass(frozen=True)
class Mutant:
    id: str
    breaks: str  # what the edit breaks, in one line
    path: str  # the edited file, relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = [
    Mutant("poison-full-magic-ignored",
           "--verify-full keeps every prefix candidate",
           "src/chainlens/poison.py",
           "            if not full_magic or payload.startswith(",
           "            if True or payload.startswith(",
           ("tests/test_poison.py::test_prefix_match_is_permissive",)),
    Mutant("poison-full-magic-at-offset-0",
           "--verify-full looks for each magic at offset 0, not at its row's",
           "src/chainlens/poison.py",
           "payload.startswith(entry.magic, entry.offset)",
           "payload.startswith(entry.magic)",
           ("tests/test_poison.py::"
            "test_scan_corpus_verify_full_drops_prefix_only_hits",)),
    Mutant("poison-verify-by-format-name",
           "--verify-full keeps a candidate row when any row of its format "
           "matches in full",
           "src/chainlens/poison.py",
           "        for name in match_signatures(payload, db,"
           " full_magic=verify_full):\n",
           "        names = match_signatures(payload, db)\n"
           "        if verify_full:\n"
           "            full = set(match_signatures(payload, db,"
           " full_magic=True))\n"
           "            names = [n for n in names if n in full]\n"
           "        for name in names:\n",
           ("tests/test_poison.py::"
            "test_scan_corpus_verify_full_drops_prefix_only_hits",)),
    Mutant("cli-cutoff-after-store-opens",
           "an unreadable --cutoff is refused only after the store is opened,"
           " so a new --db is created",
           "src/chainlens/cli.py",
           "        from .store import parse_rfc3339\n",
           "        from .store import Store, parse_rfc3339\n"
           "        Store(db_path).close()\n",
           ("tests/test_cli.py::test_cutoff_flag",)),
    Mutant("store-sends-inner-join",
           "iter_eth_sends_to drops orphan sends",
           "src/chainlens/store.py",
           " FROM txs LEFT JOIN blocks\"",
           " FROM txs JOIN blocks\"",
           ("tests/test_contracts.py::"
            "test_precreation_orders_sends_in_the_creation_block_by_index",
            "tests/test_contracts.py::"
            "test_precreation_funding_matches_the_decoded_ledger")),
    Mutant("precreation-without-paid",
           "eth precreation lists a zero-value send",
           "src/chainlens/eth/contracts.py",
           "            if paid and not registry.created_before(",
           "            if not registry.created_before(",
           ("tests/test_contracts.py::"
            "test_precreation_orders_sends_in_the_creation_block_by_index",)),
]


def _copy(root: Path, into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    shutil.copytree(root / "src", into / "src", ignore=skip)
    shutil.copytree(root / "tests", into / "tests", ignore=skip)
    shutil.copy2(root / "pyproject.toml", into / "pyproject.toml")


def _pytest(tree: Path, tests, timeout: float) -> int | None:
    """pytest's exit code on `tests` in `tree`, or None on a timeout."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=tree,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def unmutated_exit_code(mutants, root: Path = ROOT,
                        timeout: float = TIMEOUT_S) -> int | None:
    """pytest's exit code on every test the mutants name, with no edit."""
    tests = sorted({test for mutant in mutants for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="chainlens-mutant-") as tmp:
        _copy(root, Path(tmp))
        return _pytest(Path(tmp), tests, timeout)


def check(mutant: Mutant, root: Path = ROOT,
          timeout: float = TIMEOUT_S) -> str:
    """'killed', 'survived', 'timed out' or 'stale'."""
    source = (root / mutant.path).read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="chainlens-mutant-") as tmp:
        tree = Path(tmp)
        _copy(root, tree)
        (tree / mutant.path).write_text(
            source.replace(mutant.old, mutant.new), encoding="utf-8")
        code = _pytest(tree, mutant.tests, timeout)
    return {None: "timed out", 0: "survived"}.get(code, "killed")


def main(argv: list[str]) -> int:
    unknown = set(argv) - {mutant.id for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {', '.join(sorted(unknown))}")
        return 2
    chosen = [mutant for mutant in MUTANTS if not argv or mutant.id in argv]
    start = time.monotonic()
    code = unmutated_exit_code(chosen)
    if code != 0:
        print(f"the listed tests do not pass unmutated (pytest exit {code})")
        return 2
    statuses = []
    for mutant in chosen:
        statuses.append(check(mutant))
        print(f"{statuses[-1]:<9}  {mutant.id}: {mutant.breaks}", flush=True)
    print(f"{len(chosen)} mutants in {time.monotonic() - start:.0f} s")
    return 1 if {"survived", "stale"} & set(statuses) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
