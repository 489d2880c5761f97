"""Three-chain ledgers drawn for the ledger model, and the check that
runs the ledger commands on one through the CLI: each prints the exit
code, stdout bytes and stderr lines that `oracles.LedgerModel` predicts."""

import contextlib
import csv
import io
import json
import tempfile
import time
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from hypothesis import strategies as st

from chainlens.cli import run_cli

import oracles
from conftest import SENDER_A, SENDER_B, addr, block_line, h32, tx_line

SIGNATURES = oracles.signature_rows(resources.files("chainlens").joinpath(
    "data/signatures.csv").read_text(encoding="utf-8"))
CHAINS = ("eth", "nmc", "ppc")
# few recipients, so drawn sends often reach a contract: the first three
# contracts each sender creates, an --internal contract and an account;
# nmc and ppc txs send to the same strings
_CONTRACTS = [oracles.contract_address_oracle(sender, nonce)
              for sender in (SENDER_A, SENDER_B) for nonce in range(3)]
_INTERNAL = addr(0xC1DE)
_ADDRESSES = _CONTRACTS + [_INTERNAL, "cc" * 20]
_LAST = 253_402_300_799  # 9999-12-31T23:59:59Z, the last block time


def _at(text: str) -> int:
    return int(datetime.fromisoformat(text).replace(
        tzinfo=timezone.utc).timestamp())


def _utc_text(moment: int, pattern: str) -> str:
    return time.strftime(pattern, time.gmtime(moment))


# the moments near which one drawn ledger's blocks fall: a span of weeks.
# ISO week 2015-W53, holding a month and a year edge, and the Monday after
# it; a Sunday month edge and the Monday and Saturday after it, in 2011;
# December 9999 up to the last block time, from its last Monday; the first
# block time and the first Monday after it
_ERAS = [
    [_at("2015-12-28T00:00:00"), _at("2016-01-01T00:00:00"),
     _at("2016-01-04T00:00:00")],
    [_at("2011-05-01T00:00:00"), _at("2011-05-02T00:00:00"),
     _at("2011-05-07T12:00:00")],
    [_at("9999-11-30T23:59:59"), _at("9999-12-27T00:00:00"), _LAST],
    [1, _at("1970-01-05T00:00:00")],
]
# an input: none, a byte of code, or a table magic, whole or cut, at its
# offset
_INPUTS = st.sampled_from(["", "", "60"]) | st.tuples(
    st.sampled_from([row for row in SIGNATURES if row[2] <= 8]),
    st.integers(1, 16), st.binary(max_size=4)).map(
    lambda drawn: (bytes(drawn[0][2]) + drawn[0][1][:drawn[1]]
                   + drawn[2]).hex())


def _name_op(kind: str, name: str, fee, named_new: bool) -> dict:
    """A name op; a `new` one commits to a hash, and may name its name."""
    op = {"kind": kind}
    if kind != "new" or named_new:
        op["name"] = name
    if kind == "new":
        op["name_hash"] = "ab" * 16
    if fee is not None:
        op["paid_fee"] = str(fee)
    return op


_NAME_OPS = st.none() | st.builds(
    _name_op, st.sampled_from(("new", "firstupdate", "update")),
    st.sampled_from(("d/a", "d/b")),
    st.sampled_from((None, 0, 1, 500_000, 2**64)), st.booleans())


def _lines(chain: str, base: int, heights: list) -> list:
    """The lines of consecutive heights from `base`, each given as its
    block's (time, other fields), or None where the block is missing, and
    its txs as (sender, to, value, input[, name op])."""
    lines = []
    for height, (block, txs) in enumerate(heights, start=base):
        hashes = [h32(0xF000 + 4 * height + index)
                  for index in range(len(txs))]
        if block is not None:
            lines.append(block_line(chain, height, block[0], hashes,
                                    **block[1]))
        for index, (tx_hash, (sender, to, value, input_hex, *op)) in \
                enumerate(zip(hashes, txs)):
            lines.append(tx_line(chain, tx_hash, height, index, sender, to,
                                 value, input_hex,
                                 **({"name_op": op[0]} if op else {})))
    return lines


def _redelivered(line: str, how: str) -> str:
    """A line delivered again: the same stored row spelled otherwise, the
    same block or tx changed, or a new tx at the same position."""
    record = json.loads(line)
    if how == "respelled":
        record["hash"] = "0X" + record["hash"].upper()
        if record["type"] == "tx":
            record["value"] = int(record["value"])
    elif record["type"] == "block":
        record["time"] = max(record["time"] - 1, 1)
    elif how == "changed":
        record["value"] = str(int(record["value"]) + 1)
    else:
        record["hash"] = "e" + record["hash"][1:]
    return json.dumps(record)


def _block_fields(chain: str, height: int):
    if chain == "nmc":  # auxpow is rarely true below 19,200
        return st.sampled_from((None, False, True) if height >= 19_200
                               else (None, False) * 4 + (True,)).map(
            lambda auxpow: {} if auxpow is None else {"auxpow": auxpow})
    if chain == "ppc":
        return st.sampled_from(("pos", "pow")).map(
            lambda proof: {"proof": proof})
    return st.just({})


@st.composite
def _chain_lines(draw, chain: str, moment) -> list:
    """A chain's blocks and txs, some of them orphans, and a few
    re-deliveries, in a drawn order. nmc heights start at 0 or just below
    the merge-mining height."""
    base = draw(st.sampled_from([0, 19_195])) if chain == "nmc" else 0
    tx = st.tuples(st.sampled_from((SENDER_A, SENDER_B)),
                   st.none() | st.sampled_from(_ADDRESSES),
                   st.sampled_from(("0", "1", str(2**64))), _INPUTS,
                   *([_NAME_OPS] if chain == "nmc" else []))
    heights = []
    for height in range(base, base + draw(st.integers(0, 6))):
        stored = draw(st.integers(0, 3))  # else the height's txs are orphans
        heights.append((draw(st.tuples(moment, _block_fields(chain, height)))
                        if stored else None, draw(st.lists(tx, max_size=3))))
    lines = _lines(chain, base, heights)
    if lines:
        lines += [_redelivered(draw(st.sampled_from(lines)), how)
                  for how in draw(st.lists(st.sampled_from(
                      ("same", "respelled", "changed", "moved")),
                      max_size=3))]
    return draw(st.permutations(lines))


def _side_line(kind: str, address: str, height: int) -> str:
    record = {"type": kind, "address": address, "height": height}
    if kind == "internal_create":
        record["parent"] = SENDER_B
    return json.dumps(record)


@st.composite
def three_chain_ledgers(draw):
    """Each chain's lines split over two ingested files; the --internal
    and --terminated lines; and the options the commands take."""
    moment = st.tuples(st.sampled_from(draw(st.sampled_from(_ERAS))),
                       st.sampled_from([-1, 0, 1])
                       | st.integers(-9 * 86_400, 9 * 86_400)).map(
        lambda pair: min(max(sum(pair), 1), _LAST))
    files = []
    days = {"2011-05-07"}
    for chain in CHAINS:
        lines = draw(_chain_lines(chain, moment))
        cut = draw(st.integers(0, len(lines)))
        files += [(chain, lines[:cut]), (chain, lines[cut:])]
        if chain == "nmc":
            days |= {_utc_text(json.loads(line)["time"], "%Y-%m-%d")
                     for line in lines if '"type": "block"' in line}
    contract = st.sampled_from(_CONTRACTS + [_INTERNAL])
    internal = [_side_line("internal_create", address, height)
                for address, height in draw(st.lists(st.tuples(
                    contract, st.integers(0, 6)), max_size=2))]
    # a termination is mostly late enough to follow its contract's creation
    terminated = [_side_line("terminate", address, height)
                  for address, height in draw(st.lists(st.tuples(
                      contract, st.integers(4, 7) | st.integers(0, 7)),
                      max_size=3))]
    options = {"cutoff": draw(st.none() | moment.map(
                   lambda cut: _utc_text(cut, "%Y-%m-%dT%H:%M:%SZ"))),
               "day": draw(st.sampled_from(sorted(days))),
               "window": draw(st.integers(0, 8)),
               "top": draw(st.integers(0, 3)),
               "edges": draw(st.sampled_from(["1,4", "0,2,5", "100,10000"]))}
    return files, internal, terminated, options


_A, _B, _C = SENDER_A, SENDER_B, _CONTRACTS[0]  # A creates C at nonce 0
# eth: sends of 1 and 0 to C before its creation block, and sends at
# (1, 1) and (1, 3) around its creation at (1, 2); a send to an --internal
# contract in its creation block; an orphan height; C created again by
# --internal, and terminated at its lifetime's bucket edge; an --internal
# contract created twice and terminated at its creation height
_ETH = _lines("eth", 0, [
    ((_at("2015-08-31T23:59:59"), {}),
     [(_B, _C, "1", ""), (_B, _C, "0", "")]),
    ((_at("2015-09-01T00:00:00"), {}),
     [(_B, _INTERNAL, "1", ""), (_B, _C, "1", "aa"), (_A, None, "0", "60"),
      (_B, _C, "1", "")]),
    (None, [(_B, _C, "1", ""), (_A, None, "0", "")]),
    ((_at("2015-09-30T23:59:59"), {}), [(_A, None, "7", ""),
                                        (_B, _C, "1", "")])])


def _op(kind: str, name: str, fee) -> tuple:
    return _A, None, "0", "", _name_op(kind, name, fee, kind == "new")


# d/a registered by an orphan at 19,195, lapsed at 19,199 with a one-block
# window (a name_new naming it at 19,198 is no renewal), then registered
# again inside the window at 19,200; d/b renewed with no registration
# before it, then registered at 19,200; no auxpow, false and true on both
# sides of 19,200; fees in the ISO weeks around 2015-W53, which holds the
# year's end; a send to the address of an eth contract created later.
# ppc: month and year edges
_NMC = _lines("nmc", 19_195, [
    (None, [_op("firstupdate", "d/a", 7)]),
    ((_at("2015-12-27T12:00:00"), {}), [_op("update", "d/b", 3)]),
    ((_at("2015-12-28T00:00:00"), {"auxpow": False}),
     [_op("new", "d/b", 2**64)]),
    (None, [_op("new", "d/a", 4)]),
    ((_at("2016-01-01T12:00:00"), {}), [_op("firstupdate", "d/a", 5)]),
    ((_at("2016-01-01T13:00:00"), {"auxpow": True}),
     [_op("firstupdate", "d/a", 1), _op("firstupdate", "d/b", None)]),
    ((_at("2016-01-10T00:00:00"), {}),
     [_op("update", "d/b", 0), (_B, _CONTRACTS[3], "1", "", None)])])
# the second eth file delivers again a block with another time, a tx as it
# was and one respelled, and a new tx at a taken position
EXAMPLE = (
    [("eth", _ETH[:8]),
     ("eth", _ETH[8:] + [_redelivered(_ETH[10], "changed"), _ETH[1],
                         _redelivered(_ETH[12], "moved"),
                         _redelivered(_ETH[4], "respelled")]),
     ("nmc", _NMC),
     ("ppc", _lines("ppc", 0, [
         ((_at("2015-11-30T23:59:59"), {"proof": "pow"}), []),
         ((_at("2015-12-31T23:59:59"), {"proof": "pow"}), []),
         ((_at("2016-01-01T00:00:00"), {"proof": "pos"}), [])]))],
    [_side_line("internal_create", _C, 3),
     _side_line("internal_create", _INTERNAL, 1),
     _side_line("internal_create", _INTERNAL, 0),
     _side_line("internal_create", _CONTRACTS[3], 30_000)],
    [_side_line("terminate", _C, 5), _side_line("terminate", _INTERNAL, 0)],
    {"cutoff": "2015-09-30T23:59:59Z", "day": "2016-01-01", "window": 1,
     "top": 2, "edges": "1,4"})


def _commands(root: Path, options: dict) -> list:
    """Every ledger command, with the drawn options."""
    cutoff = [] if options["cutoff"] is None \
        else ["--cutoff", options["cutoff"]]
    side = ["--internal", str(root / "internal.ndjson"),
            "--terminated", str(root / "terminated.ndjson")]
    commands = []
    for chain in CHAINS:
        commands += [[*cutoff, "summarize", "--chain", chain],
                     [*cutoff, "report", "tx-monthly", "--chain", chain],
                     ["poison", "scan", "--chain", chain],
                     ["poison", "scan", "--chain", chain, "--verify-full"]]
    commands += [["eth", "zombies", "--view", view, "--top",
                  str(options["top"])]
                 for view in ("summary", "cdf", "top", "creators")]
    return commands + [
        ["eth", "classify", *side],
        ["eth", "lifetimes", *side, "--edges", options["edges"]],
        ["eth", "precreation", *side],
        ["nmc", "fees"], ["nmc", "mergemine"],
        ["nmc", "rereg", "--day", options["day"], "--window",
         str(options["window"])],
        ["ppc", "pos-pow"]]


def _run(db: str, argv: list) -> tuple:
    """(exit code, stdout, stderr lines) of one CLI run on the store."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["--db", db, *argv])
    return code, out.getvalue(), err.getvalue().splitlines()


def _write(path: Path, lines: list) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _label(argv: list) -> str:
    """A command's words without its --cutoff and side-file options."""
    words, args = [], iter(argv)
    for arg in args:
        if arg in ("--cutoff", "--internal", "--terminated"):
            next(args)
        else:
            words.append(arg)
    return " ".join(words)


def csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def check_reports(ledger, *wanted: str) -> tuple:
    """Ingest a drawn ledger through the CLI into a file store, and assert
    that each ingest, and each command whose label starts with one of
    `wanted` (every command if none is given), prints what the model
    predicts. Returns the model and each command's (exit code, stdout,
    stderr lines) by its label, as `summarize --chain eth`."""
    files, internal, terminated, options = ledger
    model = oracles.LedgerModel(internal, terminated, SIGNATURES)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        db = str(root / "db")
        _write(root / "internal.ndjson", internal)
        _write(root / "terminated.ndjson", terminated)
        for number, (chain, lines) in enumerate(files):
            path = _write(root / f"{number}.ndjson", lines)
            assert _run(db, ["ingest", path, "--chain", chain]) \
                == model.ingest(chain, lines)
        for argv in _commands(root, options):
            label = _label(argv)
            if not wanted or label.startswith(wanted):
                outputs[label] = _run(db, argv)
                assert outputs[label] == model.run(argv), argv
    return model, outputs
