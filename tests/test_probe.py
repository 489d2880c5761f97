"""Gas-estimate probing for externally terminable contracts."""

import csv
import http.server
import io
import json
import threading

import pytest

from chainlens.cli import run_cli
from chainlens.errors import ExecutorFailure, SchemaViolation
from chainlens.eth.contracts import NULL_ADDRESS, ContractRecord, CreatorKind
from chainlens.eth.probe import (DEFAULT_PROBE_CALLER, FixtureExecutor,
                                 GasPolicy, RefundDestination,
                                 SelectorDictionary, function_selector,
                                 probe_suicidal)

from conftest import addr
import oracles

KILL_SELECTOR = bytes.fromhex("41c0e1b5")
CREATOR = addr(0xC0)
POLICY = GasPolicy()


def record(address: str) -> ContractRecord:
    return ContractRecord(address=address, creation_height=0, creator=CREATOR,
                          creator_kind=CreatorKind.BY_TRANSACTION)


def fixture_row(address: str, selector: str, estimate: int,
                terminates: bool = False, refund_to=None) -> dict:
    return {"type": "gas_fixture", "address": address, "selector": selector,
            "estimate": estimate, "terminates": terminates,
            "refund_to": refund_to}


def test_function_selector_known_vector():
    assert function_selector("kill()") == KILL_SELECTOR
    assert oracles.keccak256_oracle(b"kill()")[:4] == KILL_SELECTOR


def test_default_dictionary():
    dictionary = SelectorDictionary.default()
    assert len(dictionary) == 14
    entries = list(dictionary)
    assert entries[0].selector == KILL_SELECTOR
    assert entries[0].label() == "kill()"
    raw = [entry for entry in entries if entry.name is None]
    assert len(raw) == 5
    assert raw[0].label() == "0x60d586f8"


def test_dictionary_from_lines():
    dictionary = SelectorDictionary.from_lines(
        ["# comment", "", "kill()  # trailing note", "0xdeadbeef"])
    assert [entry.label() for entry in dictionary] == ["kill()", "0xdeadbeef"]
    assert list(dictionary)[0].selector == KILL_SELECTOR


def test_dictionary_rejects_bad_raw_selector():
    with pytest.raises(ValueError):
        SelectorDictionary.from_lines(["0xdeadbe"])


def test_dictionary_rejects_duplicates():
    with pytest.raises(ValueError):
        SelectorDictionary.from_lines(["kill()", "0x41c0e1b5"])


@pytest.mark.parametrize("lines, message", [
    (["kill()", "0x1234"], "line 2: selector '0x1234' is not 4 bytes"),
    (["kill()", "0xzzzzzzzz"], "line 2: "),
    (["# header", "kill()", "", "0x41c0e1b5"], "line 4: duplicate selector"),
    (["0X41C0E1B5", "kill()"], "line 2: duplicate selector 0x41c0e1b5"),
])
def test_dictionary_error_names_its_line(lines, message):
    with pytest.raises(ValueError) as caught:
        SelectorDictionary.from_lines(lines)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("text", [
    "kill()", "transfer(address,uint256)", "f(uint256[],bytes32[2][])",
    "$x_1(bool)", "_(string)", "f((uint256,bool))", "f((uint256,bool)[])",
    "g((address,uint256)[2],bytes)", "h(((uint8,bool)[],string),address)"])
def test_plain_entry_is_a_canonical_signature(text):
    assert SelectorDictionary.from_lines([text]).entries[0].name == text


@pytest.mark.parametrize("text", [
    "nope(", "nope", "kill", "(uint256)", "1f()", "f(a,,b)", "f(a,)",
    "f(,a)", "f(a[]b)", "f(a, b)", "f (a)", "f(Uint)", "f((uint, bool))",
    "f(a)x", "f(a)()", "f(a[)", "kïll()", "f((a)(b))", "f((a)b)", "f(a(b))",
    "f((a,))", "f((,a))", "f((a)", "f(a))", "f((a)[)", "f(a)(b)", "f(@)"])
def test_plain_entry_that_is_no_signature_names_its_line(text):
    with pytest.raises(ValueError) as caught:
        SelectorDictionary.from_lines(["kill()", text])
    assert str(caught.value).startswith(f"line 2: {text!r} is neither")


def test_gas_policy_guard():
    with pytest.raises(ValueError):
        GasPolicy(vulnerability_threshold=25_000)


def test_fixture_executor_basics(tmp_path):
    path = tmp_path / "gas.ndjson"
    rows = [fixture_row(addr(1), "41c0e1b5", 300, terminates=True,
                        refund_to="caller"),
            fixture_row(addr(2), "41c0e1b5", 50_000)]
    path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    executor = FixtureExecutor.from_file(path)
    assert executor.addresses() == sorted([addr(1), addr(2)])
    assert executor.estimate_gas(addr(1), KILL_SELECTOR) == 300
    assert executor.estimate_gas(addr(9), KILL_SELECTOR) == 100_000


def test_fixture_executor_rejects_wrong_type(tmp_path):
    path = tmp_path / "gas.ndjson"
    path.write_text(json.dumps({"type": "terminate", "address": addr(1),
                                "height": 3}) + "\n")
    with pytest.raises(SchemaViolation):
        FixtureExecutor.from_file(path)


class RecordingExecutor:
    def __init__(self, inner):
        self.inner = inner
        self.invocations = []

    def estimate_gas(self, contract, selector):
        return self.inner.estimate_gas(contract, selector)

    def invoke(self, contract, selector, caller):
        self.invocations.append((contract, selector.hex(), caller))
        return self.inner.invoke(contract, selector, caller)


class FailingExecutor:
    def __init__(self, inner, fail_on):
        self.inner = inner
        self.fail_on = fail_on

    def estimate_gas(self, contract, selector):
        if (contract, selector.hex()) in self.fail_on:
            raise ExecutorFailure("rpc", "connection reset")
        return self.inner.estimate_gas(contract, selector)

    def invoke(self, contract, selector, caller):
        return self.inner.invoke(contract, selector, caller)


def _scenario_executor():
    dictionary = SelectorDictionary.default()
    rows = [
        # flagged and confirmed, refund back to whoever calls
        fixture_row(addr(1), "41c0e1b5", 300, terminates=True,
                    refund_to="caller"),
        # flagged via a raw selector, refund hard-wired to the creator
        fixture_row(addr(2), "60d586f8", 500, terminates=True,
                    refund_to=CREATOR),
        # refund burned at the null address
        fixture_row(addr(3), "41c0e1b5", 700, terminates=True,
                    refund_to=NULL_ADDRESS),
        # refund to an unrelated third party
        fixture_row(addr(4), "41c0e1b5", 900, terminates=True,
                    refund_to=addr(0xEE)),
        # terminates but the refund destination is unobserved
        fixture_row(addr(5), "41c0e1b5", 1_100, terminates=True),
        # below base cost but above nothing: every selector cheap, none kills
        *[fixture_row(addr(6), entry.selector.hex(), 100)
          for entry in dictionary],
        # cheap-ish but at/above the threshold: must not be flagged
        fixture_row(addr(7), "41c0e1b5", 21_000),
        fixture_row(addr(8), "41c0e1b5", 50_000),
    ]
    return FixtureExecutor(rows), dictionary


def test_probe_flags_exactly_the_candidates():
    executor, dictionary = _scenario_executor()
    contracts = [record(addr(i)) for i in range(1, 10)]
    results = probe_suicidal(contracts, executor, dictionary, POLICY)
    assert [result.contract for result in results] == [addr(i)
                                                       for i in range(1, 7)]


def test_probe_refund_destinations():
    executor, dictionary = _scenario_executor()
    contracts = [record(addr(i)) for i in range(1, 7)]
    results = {result.contract: result
               for result in probe_suicidal(contracts, executor, dictionary,
                                            POLICY)}
    assert results[addr(1)].refund_destination is RefundDestination.CALLER
    assert results[addr(2)].refund_destination is RefundDestination.CREATOR
    assert results[addr(3)].refund_destination is RefundDestination.NULL_ADDRESS
    other = results[addr(4)]
    assert other.refund_destination is RefundDestination.OTHER
    assert other.refund_address == addr(0xEE)
    assert results[addr(5)].refund_destination is RefundDestination.NONE
    for i in range(1, 6):
        assert results[addr(i)].confirmed_terminated
    assert results[addr(1)].triggering_selector == KILL_SELECTOR
    assert results[addr(1)].gas_estimate == 300
    assert results[addr(2)].triggering_selector == bytes.fromhex("60d586f8")


def test_probe_suspicious_default_function():
    executor, dictionary = _scenario_executor()
    results = probe_suicidal([record(addr(6))], executor, dictionary, POLICY)
    (result,) = results
    assert result.suspicious_default_function
    assert not result.confirmed_terminated
    assert result.triggering_selector is None
    assert result.gas_estimate == 100
    assert result.refund_destination is RefundDestination.NONE


def test_probe_invokes_in_dictionary_order():
    # two cheap selectors; the dictionary-first one wins even though the
    # later one is cheaper
    rows = [fixture_row(addr(1), "41c0e1b5", 900, terminates=True,
                        refund_to="caller"),
            fixture_row(addr(1), "83197ef0", 200, terminates=True)]  # destroy()
    assert function_selector("destroy()") == bytes.fromhex("83197ef0")
    recorder = RecordingExecutor(FixtureExecutor(rows))
    results = probe_suicidal([record(addr(1))], recorder,
                             SelectorDictionary.default(), POLICY)
    assert results[0].triggering_selector == KILL_SELECTOR
    assert results[0].gas_estimate == 900
    assert recorder.invocations == [(addr(1), "41c0e1b5",
                                     DEFAULT_PROBE_CALLER)]


def test_probe_moves_past_non_terminating_candidate():
    rows = [fixture_row(addr(1), "41c0e1b5", 900),  # cheap but inert
            fixture_row(addr(1), "83197ef0", 200, terminates=True,
                        refund_to="caller")]
    recorder = RecordingExecutor(FixtureExecutor(rows))
    results = probe_suicidal([record(addr(1))], recorder,
                             SelectorDictionary.default(), POLICY)
    assert results[0].triggering_selector == bytes.fromhex("83197ef0")
    assert [selector for _, selector, _ in recorder.invocations] == \
        ["41c0e1b5", "83197ef0"]


def test_probe_records_executor_failure():
    dictionary = SelectorDictionary.default()
    inner = FixtureExecutor([])
    fail_on = {(addr(1), entry.selector.hex()) for entry in dictionary}
    executor = FailingExecutor(inner, fail_on)
    results = probe_suicidal([record(addr(1)), record(addr(2))], executor,
                             dictionary, POLICY)
    (result,) = results
    assert result.contract == addr(1)
    assert result.executor_error is not None
    assert result.gas_estimate is None
    assert not result.confirmed_terminated


def test_probe_partial_failure_still_confirms():
    dictionary = SelectorDictionary.default()
    inner = FixtureExecutor([fixture_row(addr(1), "83197ef0", 400,
                                         terminates=True,
                                         refund_to="caller")])
    executor = FailingExecutor(inner, {(addr(1), "41c0e1b5")})
    (result,) = probe_suicidal([record(addr(1))], executor, dictionary,
                               POLICY)
    assert result.confirmed_terminated
    assert result.executor_error is not None


def test_custom_caller_is_passed_through():
    rows = [fixture_row(addr(1), "41c0e1b5", 300, terminates=True,
                        refund_to="caller")]
    recorder = RecordingExecutor(FixtureExecutor(rows))
    caller = addr(0x5E)
    (result,) = probe_suicidal([record(addr(1))], recorder,
                               SelectorDictionary.default(), POLICY,
                               caller=caller)
    assert recorder.invocations[0][2] == caller
    assert result.refund_destination is RefundDestination.CALLER


class _ScriptedRpc(http.server.BaseHTTPRequestHandler):
    """Answers each JSON-RPC POST with the class's `replies` body for its
    method."""

    replies: dict = {}

    def do_POST(self):
        request = json.loads(self.rfile.read(
            int(self.headers["Content-Length"])))
        reply = self.replies[request["method"]]
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


def _probe_over_rpc(tmp_path, capsys, monkeypatch, replies) -> dict:
    """The one CSV row `eth probe --rpc` writes for one contract and
    `kill()`, against a loopback server scripted with `replies`."""
    # loopback only: no proxy may stand between the client and the server
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    handler = type("Handler", (_ScriptedRpc,), {"replies": replies})
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    contracts = tmp_path / "contracts.txt"
    contracts.write_text(addr(0xC1) + "\n")
    selectors = tmp_path / "selectors.txt"
    selectors.write_text("kill()\n")
    try:
        code = run_cli(["--db", str(tmp_path / "db"), "eth", "probe", "--rpc",
                        f"http://127.0.0.1:{server.server_port}",
                        "--contracts", str(contracts),
                        "--selectors", str(selectors)])
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    [row] = csv.DictReader(io.StringIO(captured.out))
    assert row["contract"] == addr(0xC1)
    return row


def _result(value: str) -> bytes:
    return b'{"jsonrpc": "2.0", "id": 1, "result": ' + value.encode() + b"}"


@pytest.mark.parametrize("reply, error", [
    (b"<html>busy</html>", "malformed reply"),
    (b"[1]", "malformed reply: not an object"),
    (_result("null"), "not a hex quantity: None"),
    (b'{"jsonrpc": "2.0", "id": 1, "error": {"code": -32000, '
     b'"message": "execution reverted"}}', "execution reverted"),
], ids=["not json", "not an object", "null result", "error"])
def test_rpc_reply_faults_fill_the_error_column(tmp_path, capsys,
                                                monkeypatch, reply, error):
    row = _probe_over_rpc(tmp_path, capsys, monkeypatch,
                          {"eth_estimateGas": reply})
    assert row["gas_estimate"] == ""
    assert row["error"].startswith("executor failed for contract rpc: ")
    assert error in row["error"]


@pytest.mark.parametrize("code, confirmed, error", [
    ("null", "0", "eth_getCode result is not hex data: None"),
    ('""', "0", "eth_getCode result is not hex data: ''"),
    ('"0x600"', "0", "eth_getCode result is not hex data: '0x600'"),
    ('"0x"', "1", ""),
    ('"0x6001"', "0", ""),
], ids=["null", "empty", "odd digits", "gone", "live"])
def test_rpc_get_code_confirms_only_code_gone(tmp_path, capsys, monkeypatch,
                                              code, confirmed, error):
    # only "0x" is code gone; a reply that is not hex data confirms nothing
    row = _probe_over_rpc(tmp_path, capsys, monkeypatch, {
        "eth_estimateGas": _result('"0x1000"'),
        "eth_sendTransaction": _result('"0x' + "ab" * 32 + '"'),
        "eth_getCode": _result(code)})
    assert row["gas_estimate"] == "4096"
    assert row["confirmed"] == confirmed
    assert row["selector"] == ("41c0e1b5" if confirmed == "1" else "")
    if error:
        assert row["error"] == f"executor failed for contract rpc: {error}"
    else:
        assert row["error"] == ""
