"""Dictionary-driven probe for externally terminable ("suicidal") contracts.

The probe asks an executor for a gas estimate of calling each dictionary
selector on each contract. A genuine termination path short-circuits
execution and lands below the base cost of a plain call thanks to the
self-destruct refund, so any estimate under the threshold marks a
candidate, which is then actually invoked to confirm. Execution itself is
behind the ContractExecutor interface: tests script it with fixtures, and
a JSON-RPC adapter exists for live nodes.
"""

from __future__ import annotations

import enum
import json
import logging
import re
import urllib.request
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Protocol, Sequence

from ..errors import ExecutorFailure, SchemaViolation
from ..keccak import keccak256
from ..model import (LineSource, bool_field, hex_field, int_field,
                     read_lines, strip_0x)
from ..store import RecordSource, read_records
from . import DEFAULT_PROBE_CALLER
from .contracts import NULL_ADDRESS, ContractRecord

log = logging.getLogger(__name__)

_SELECTOR_FILE = "termination_selectors.txt"
BASE_CALL_GAS = 21_000  # intrinsic gas of a plain call
_HEX_DATA = re.compile(r"0x(?:[0-9a-fA-F]{2})*")  # a JSON-RPC DATA string
_UNSCRIPTED = (100_000, False, None)  # FixtureExecutor, unscripted pairs
# name(type,...) with no spaces; a type is a name like uint256, or a
# parenthesised type list (a tuple), with any array suffixes
_SIGNATURE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*(\([a-z0-9\[\](),]*\))")
_TYPE = r"(?:[a-z][a-z0-9]*|@)(?:\[[0-9]*\])*"  # @ is a reduced tuple
_TYPE_LIST = re.compile(rf"\((?:{_TYPE}(?:,{_TYPE})*)?\)")


def function_selector(signature_text: str) -> bytes:
    """First 4 bytes of the Keccak-256 hash of a canonical signature."""
    return keccak256(signature_text.encode("ascii"))[:4]


@dataclass(frozen=True)
class SelectorEntry:
    selector: bytes
    name: str | None = None

    def label(self) -> str:
        return self.name if self.name else "0x" + self.selector.hex()


def _selector_entry(text: str) -> SelectorEntry:
    digits = strip_0x(text)
    if digits != text:
        selector = bytes.fromhex(digits)
        if len(selector) != 4:
            raise ValueError(f"selector {text!r} is not 4 bytes")
        return SelectorEntry(selector=selector)
    if not _is_signature(text):
        raise ValueError(f"{text!r} is neither a 0x selector nor a "
                         f"canonical function signature")
    return SelectorEntry(selector=function_selector(text), name=text)


def _is_signature(text: str) -> bool:
    """Whether `text` is a canonical signature: a name and a type list.

    Innermost type lists are reduced to one `@` type at a time, so the
    text is well formed when its whole argument list reduces to `@`.
    """
    match = _SIGNATURE.fullmatch(text)
    if not match:
        return False
    types = match[1]
    while True:
        reduced = _TYPE_LIST.sub("@", types)
        if reduced == types:
            return reduced == "@"
        types = reduced


class SelectorDictionary:
    """Ordered, duplicate-free collection of candidate termination selectors."""

    def __init__(self, entries: Sequence[SelectorEntry]):
        self.entries = list(entries)

    def __iter__(self) -> Iterator[SelectorEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_lines(cls, source: LineSource) -> "SelectorDictionary":
        """Parse one entry per line of a file path or list of lines: either
        a canonical signature such as `kill()` or `f(address,uint256)`, or a
        raw `0x`-hex selector.

        A bad or duplicate entry raises ValueError naming its line.
        """
        return cls(read_lines(source, _selector_entry, key=lambda entry:
                              f"selector 0x{entry.selector.hex()}"))

    @classmethod
    def default(cls) -> "SelectorDictionary":
        text = resources.files("chainlens").joinpath(
            f"data/{_SELECTOR_FILE}").read_text(encoding="utf-8")
        return cls.from_lines(text.splitlines())


@dataclass
class GasPolicy:
    vulnerability_threshold: int = BASE_CALL_GAS

    def __post_init__(self) -> None:
        if self.vulnerability_threshold > BASE_CALL_GAS:
            raise ValueError("threshold above base call gas would flag "
                             "ordinary calls")


class RefundDestination(enum.Enum):
    CALLER = "caller"
    CREATOR = "creator"
    NULL_ADDRESS = "null_address"
    OTHER = "other"
    NONE = "none"


@dataclass
class InvokeOutcome:
    terminated: bool
    refund_to: str | None


@dataclass
class ProbeResult:
    contract: str
    triggering_selector: bytes | None
    gas_estimate: int | None
    confirmed_terminated: bool
    refund_destination: RefundDestination
    refund_address: str | None = None
    suspicious_default_function: bool = False
    executor_error: str | None = None


class ContractExecutor(Protocol):
    def estimate_gas(self, contract: str, selector: bytes) -> int: ...

    def invoke(self, contract: str, selector: bytes,
               caller: str) -> InvokeOutcome: ...


def _fixture_entry(obj: dict) -> tuple:
    """((address, selector), (estimate, terminates, refund_to))."""
    key = (hex_field(obj, "address", 20),
           bytes.fromhex(hex_field(obj, "selector", 4)))
    estimate = int_field(obj, "estimate", minimum=0)
    refund_to = obj.get("refund_to")
    if refund_to != "caller":
        refund_to = hex_field(obj, "refund_to", 20, default=None)
    return key, (estimate, bool_field(obj, "terminates", default=False),
                 refund_to)


class FixtureExecutor:
    """Executor scripted by gas_fixture NDJSON records.

    Record shape: {"type":"gas_fixture","address":"0x..","selector":"0x..",
    "estimate":N,"terminates":bool,"refund_to":"0x..|null|caller"}.
    Unknown (address, selector) pairs estimate at 100,000 gas, above any
    threshold GasPolicy accepts. Records passed as dicts are read as the
    lines of a file, so one that does not fit the shape raises
    SchemaViolation naming its 1-based position and its field. A repeated
    (address, selector) pair is a no-op if identical and a SchemaViolation
    on field "selector" otherwise.
    """

    def __init__(self, records: Iterable[dict]):
        self._load(map(json.dumps, records))

    @classmethod
    def from_file(cls, source: RecordSource) -> "FixtureExecutor":
        executor = cls([])
        executor._load(source)
        return executor

    def _load(self, source: RecordSource) -> None:
        self._scripted: dict[tuple[str, bytes], tuple] = {}
        for line_no, (key, entry) in read_records(source, ("gas_fixture",),
                                                  _fixture_entry):
            if self._scripted.setdefault(key, entry) != entry:
                raise SchemaViolation(
                    line_no, "selector",
                    f"0x{key[1].hex()} on {key[0]} is already scripted "
                    "with different contents")
        self._terminated: set[str] = set()

    def addresses(self) -> list[str]:
        """Distinct contract addresses the fixture scripts, sorted."""
        return sorted({address for address, _ in self._scripted})

    def estimate_gas(self, contract: str, selector: bytes) -> int:
        return self._scripted.get((contract, selector), _UNSCRIPTED)[0]

    def invoke(self, contract: str, selector: bytes, caller: str) -> InvokeOutcome:
        _, terminates, refund_spec = self._scripted.get((contract, selector),
                                                        _UNSCRIPTED)
        terminates = terminates and contract not in self._terminated
        refund_to = None
        if terminates:
            self._terminated.add(contract)
            refund_to = caller if refund_spec == "caller" else refund_spec
        return InvokeOutcome(terminated=terminates, refund_to=refund_to)


class RpcExecutor:
    """Minimal JSON-RPC executor for a live (typically private) node.

    Termination is confirmed by the contract's code disappearing after the
    call: eth_getCode answers "0x". Refund destinations are not observable
    without tracing, so they come back as None. A reply that is not a
    JSON-RPC result, or a result not of its type, is an ExecutorFailure.
    """

    def __init__(self, url: str, timeout: float = 10.0):
        self.url = url
        self.timeout = timeout
        self._next_id = 0

    def _call(self, method: str, params: list):
        self._next_id += 1
        body = json.dumps({"jsonrpc": "2.0", "id": self._next_id,
                           "method": method, "params": params}).encode()
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                reply = json.load(resp)
        except OSError as exc:
            raise ExecutorFailure("rpc", str(exc))
        except ValueError as exc:  # a body that is not JSON
            raise ExecutorFailure("rpc", f"malformed reply: {exc}")
        if not isinstance(reply, dict):
            raise ExecutorFailure("rpc", "malformed reply: not an object")
        if "error" in reply:
            raise ExecutorFailure("rpc", str(reply["error"]))
        return reply.get("result")

    def estimate_gas(self, contract: str, selector: bytes) -> int:
        result = self._call("eth_estimateGas",
                            [{"to": "0x" + contract,
                              "data": "0x" + selector.hex()}])
        try:
            return int(result, 16)
        except (TypeError, ValueError):
            raise ExecutorFailure("rpc", "eth_estimateGas result is not a "
                                         f"hex quantity: {result!r}")

    def invoke(self, contract: str, selector: bytes, caller: str) -> InvokeOutcome:
        self._call("eth_sendTransaction",
                   [{"from": "0x" + caller, "to": "0x" + contract,
                     "data": "0x" + selector.hex(),
                     "gas": hex(100_000)}])
        code = self._call("eth_getCode", ["0x" + contract, "latest"])
        if not (isinstance(code, str) and _HEX_DATA.fullmatch(code)):
            raise ExecutorFailure("rpc", "eth_getCode result is not hex "
                                         f"data: {code!r}")
        return InvokeOutcome(terminated=code == "0x", refund_to=None)


def classify_refund(refund_to: str | None, caller: str,
                    creator: str) -> tuple[RefundDestination, str | None]:
    if refund_to is None:
        return RefundDestination.NONE, None
    if refund_to == caller:
        return RefundDestination.CALLER, None
    # before the creator test: an unknown creator is given as NULL_ADDRESS
    if refund_to == NULL_ADDRESS:
        return RefundDestination.NULL_ADDRESS, None
    if refund_to == creator:
        return RefundDestination.CREATOR, None
    return RefundDestination.OTHER, refund_to


def probe_suicidal(contracts: Sequence[ContractRecord],
                   executor: ContractExecutor,
                   dictionary: SelectorDictionary,
                   policy: GasPolicy,
                   caller: str = DEFAULT_PROBE_CALLER) -> list[ProbeResult]:
    """Probe each contract; emit a result for every termination candidate.

    A contract appears in the output iff some dictionary selector estimates
    below the vulnerability threshold, or the executor failed on it (the
    failure is recorded in the result rather than aborting the batch, with
    gas_estimate left as None when no estimate was obtained).
    """
    results = []
    for record in contracts:
        result = _probe_one(record, executor, dictionary, policy, caller)
        if result is not None:
            results.append(result)
    return results


def _probe_one(record: ContractRecord, executor: ContractExecutor,
               dictionary: SelectorDictionary, policy: GasPolicy,
               caller: str) -> ProbeResult | None:
    estimates: dict[bytes, int] = {}
    error: str | None = None
    for entry in dictionary:
        try:
            estimates[entry.selector] = executor.estimate_gas(record.address,
                                                              entry.selector)
        except ExecutorFailure as exc:
            error = str(exc)
            log.warning("estimate failed for %s / %s: %s", record.address,
                        entry.label(), exc)
    below = [entry for entry in dictionary
             if entry.selector in estimates
             and estimates[entry.selector] < policy.vulnerability_threshold]
    if not below:
        if error is None:
            return None
        return ProbeResult(contract=record.address, triggering_selector=None,
                           gas_estimate=None, confirmed_terminated=False,
                           refund_destination=RefundDestination.NONE,
                           executor_error=error)
    triggering: SelectorEntry | None = None
    outcome: InvokeOutcome | None = None
    for entry in below:
        try:
            attempt = executor.invoke(record.address, entry.selector, caller)
        except ExecutorFailure as exc:
            error = str(exc)
            log.warning("invoke failed for %s / %s: %s", record.address,
                        entry.label(), exc)
            continue
        if attempt.terminated:
            triggering = entry
            outcome = attempt
            break
    confirmed = triggering is not None
    suspicious = not confirmed and len(below) == len(dictionary)
    destination, refund_address = classify_refund(
        outcome.refund_to if outcome else None, caller, record.creator)
    return ProbeResult(
        contract=record.address,
        triggering_selector=triggering.selector if triggering else None,
        gas_estimate=(estimates[triggering.selector] if triggering
                      else min(estimates[entry.selector] for entry in below)),
        confirmed_terminated=confirmed,
        refund_destination=destination,
        refund_address=refund_address,
        suspicious_default_function=suspicious,
        executor_error=error)
