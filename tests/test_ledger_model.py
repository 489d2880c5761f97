"""Every ledger report through the CLI, byte for byte against one model:
each command prints the exit code, stdout bytes and stderr lines that
`oracles.LedgerModel` predicts for a drawn three-chain ledger."""

import ast
from pathlib import Path

from hypothesis import example, given, settings

import ledgers
import oracles
from conftest import SENDER_A, h32


@given(ledgers.three_chain_ledgers())
@example(ledgers.EXAMPLE)
@settings(max_examples=100)
def test_every_ledger_report_matches_the_model(ledger):
    ledgers.check_reports(ledger)


def test_the_model_reads_the_example_as_worked_out_by_hand():
    # the example's reports through the CLI equal the model's, so these
    # pin both
    files, internal, terminated, _ = ledgers.EXAMPLE
    model = oracles.LedgerModel(internal, terminated, ledgers.SIGNATURES)
    assert [model.ingest(chain, lines) for chain, lines in files[:2]] == [
        (0, "blocks,txs,rejected\n2,6,0\n", []),
        (0, "blocks,txs,rejected\n1,4,2\n", [
            "rejected line 6: conflicting block at height 3: different "
            "contents already stored",
            "rejected line 8: invalid field 'index': position (3, 1) already "
            f"held by tx {h32(0xF00D)}"])]
    assert model.run(["eth", "classify"]) == (
        0, "month,to_account,to_contract,create_contract,zombie_create\n"
           "2015-08,2,0,0,0\n2015-09,1,3,1,1\n", ["orphans: 2"])
    c = oracles.contract_address_oracle(SENDER_A, 0)
    assert model.run(["eth", "precreation"])[1] == (
        f"funding_tx,contract,creation_height\n{h32(0xF000)},{c},1\n"
        f"{h32(0xF005)},{c},1\n")
    model.ingest(*files[2])
    assert model.run(["nmc", "rereg", "--day", "2016-01-01", "--window",
                      "1"]) == (
        0, "name,status,prior_registration_heights\n"
           "d/a,reregistration,19195\nd/a,anomaly,19195;19199\n",
        ["first-updates on 2016-01-01: 3"])


def test_the_ledger_model_imports_no_chainlens_code():
    # neither what importing oracles.py runs nor any definition the model
    # names, however indirectly, imports from chainlens
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = [node for node in tree.body if node not in defined.values()]
    todo += [defined["LedgerModel"], defined["signature_rows"]]
    reached = []
    while todo:
        node = todo.pop()
        if node not in reached:
            reached.append(node)
            todo += [defined[name.id] for name in ast.walk(node)
                     if isinstance(name, ast.Name) and name.id in defined]
    assert defined["contract_address_oracle"] in reached
    imported = [getattr(node, "module", None) or alias.name
                for top in reached for node in ast.walk(top)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert "json" in imported
    assert [name for name in imported if name.split(".")[0] == "chainlens"] \
        == []
