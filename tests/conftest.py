"""Shared fixture builders and the acceptance summary hook."""

from __future__ import annotations

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from chainlens.eth.classify import TxClass
from chainlens.model import ChainKind
from chainlens.store import Store, ingest_blocks

import oracles

# No property test has a per-example deadline: an example that ingests a
# store or runs the CLI takes as long as the shared host lets it.
settings.register_profile("chainlens", deadline=None)
settings.load_profile("chainlens")


def h32(seed: int) -> str:
    """Deterministic fake 32-byte identifier."""
    return format(seed, "064x")


def addr(seed: int) -> str:
    return format(seed, "040x")


def block_line(chain: str, height: int, time: int, tx_hashes=(),
               **extra) -> str:
    obj = {"type": "block", "chain": chain, "height": height,
           "hash": h32(0xB0000 + height), "parent": h32(0xB0000 + height - 1)
           if height else h32(0), "time": time, "txs": list(tx_hashes)}
    obj.update(extra)
    return json.dumps(obj)


def tx_line(chain: str, tx_hash: str, height: int, index: int, sender: str,
            to: str | None, value: str = "0", input_hex: str = "",
            **extra) -> str:
    obj = {"type": "tx", "chain": chain, "hash": tx_hash, "height": height,
           "index": index, "from": sender, "to": to, "value": value,
           "input": input_hex}
    obj.update(extra)
    return json.dumps(obj)


# whole bytes at the lengths a hash, an address or nothing takes
_HEX_BYTES = st.sampled_from([0, 1, 2, 3, 20, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


def hex_like_text():
    """Strings near hex: whole bytes in either case, and runs with odd
    lengths, spaces, '+', '_' and letters that are not hex, some of them
    non-ASCII and some whose lower() is longer (İ), behind an optional
    0x or 0X."""
    return st.tuples(
        st.sampled_from(["", "0x", "0X", "x"]),
        st.one_of(
            st.tuples(_HEX_BYTES, st.booleans()).map(
                lambda pair: pair[0].hex().upper() if pair[1]
                else pair[0].hex()),
            st.text("0123456789abcdefABCDEFgxX +_\t\nİé٠\u212a", max_size=10),
            st.text(max_size=6))).map("".join)


def outcome(fn, *args):
    """("ok", what fn returns), or the class and message of what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def load_store(lines, chain: ChainKind, strict: bool = True) -> Store:
    store = Store(":memory:")
    ingest_blocks(lines, chain, store, strict=strict)
    return store


@pytest.fixture
def store():
    s = Store(":memory:")
    yield s
    s.close()


# -- labeled Ethereum fixture ---------------------------------------------

SENDER_A = "aa" * 20
SENDER_B = "bb" * 20
SENDER_D = "dd" * 20

# derived creation addresses, frozen from the independent oracle
CONTRACT_C1 = oracles.contract_address_oracle(SENDER_A, 0)
ZOMBIE_Z1 = oracles.contract_address_oracle(SENDER_A, 2)
ZOMBIE_Z2 = oracles.contract_address_oracle(SENDER_A, 4)
CONTRACT_C3 = oracles.contract_address_oracle(SENDER_A, 6)
CONTRACT_C2 = oracles.contract_address_oracle(SENDER_B, 2)
ZOMBIE_Z3 = oracles.contract_address_oracle(SENDER_B, 5)

# month boundaries: 2015-08 / 2015-09 / 2015-10 (UTC)
_ETH_BLOCK_TIMES = {0: 1438387200, 1: 1438905600, 2: 1441065600,
                    3: 1441584000, 4: 1443657600, 5: 1444176000}


def eth_labeled_fixture() -> tuple[list[str], list[tuple[str, TxClass]]]:
    """A 20-transaction ledger covering every interaction class.

    Returns (ndjson lines, [(tx_hash, expected class)] in ledger order).
    """
    t = [h32(0xE000 + i) for i in range(21)]  # t[1]..t[20]
    plan = [
        # (tx no, height, index, sender, to, value, input)
        (1, 0, 0, SENDER_A, None, "0", "6001600155", TxClass.CREATE_CONTRACT),
        (2, 0, 1, SENDER_A, SENDER_B, "7", "", TxClass.TO_ACCOUNT),
        (3, 0, 2, SENDER_B, CONTRACT_C1, "1", "", TxClass.TO_CONTRACT),
        (4, 0, 3, SENDER_D, CONTRACT_C2, "5", "", TxClass.TO_ACCOUNT),
        (5, 1, 0, SENDER_A, None, "13", "", TxClass.ZOMBIE_CREATE),
        (6, 1, 1, SENDER_B, SENDER_A, "3", "", TxClass.TO_ACCOUNT),
        (7, 1, 2, SENDER_B, None, "0", "606060", TxClass.CREATE_CONTRACT),
        (8, 1, 3, SENDER_A, ZOMBIE_Z1, "2", "", TxClass.TO_CONTRACT),
        (9, 2, 0, SENDER_D, CONTRACT_C2, "1", "", TxClass.TO_CONTRACT),
        (10, 2, 1, SENDER_A, None, "0", "", TxClass.ZOMBIE_CREATE),
        (11, 2, 2, SENDER_B, SENDER_D, "4", "", TxClass.TO_ACCOUNT),
        (12, 2, 3, SENDER_A, CONTRACT_C1, "0", "aa", TxClass.TO_CONTRACT),
        (13, 3, 0, SENDER_A, None, "0", "6000", TxClass.CREATE_CONTRACT),
        (14, 3, 1, SENDER_B, CONTRACT_C3, "1", "", TxClass.TO_CONTRACT),
        (15, 3, 2, SENDER_D, SENDER_B, "9", "", TxClass.TO_ACCOUNT),
        (16, 3, 3, SENDER_A, SENDER_A, "0", "", TxClass.TO_ACCOUNT),
        (17, 4, 0, SENDER_B, None, "21", "", TxClass.ZOMBIE_CREATE),
        (18, 4, 1, SENDER_D, ZOMBIE_Z3, "1", "", TxClass.TO_CONTRACT),
        (19, 4, 2, SENDER_A, SENDER_B, "2", "", TxClass.TO_ACCOUNT),
        (20, 5, 0, SENDER_D, CONTRACT_C1, "0", "ff", TxClass.TO_CONTRACT),
    ]
    per_block: dict[int, list] = {h: [] for h in _ETH_BLOCK_TIMES}
    for number, height, index, sender, to, value, input_hex, _ in plan:
        per_block[height].append((index, t[number], sender, to, value,
                                  input_hex))
    lines = []
    for height, time in sorted(_ETH_BLOCK_TIMES.items()):
        entries = sorted(per_block[height])
        lines.append(block_line("eth", height, time,
                                [e[1] for e in entries]))
        for index, tx_hash, sender, to, value, input_hex in entries:
            lines.append(tx_line("eth", tx_hash, height, index, sender, to,
                                 value, input_hex))
    labels = [(t[number], cls) for number, *_, cls in plan]
    return lines, labels


def eth_termination_sidefile() -> list[str]:
    return [json.dumps({"type": "terminate", "address": CONTRACT_C1,
                        "height": 5}),
            json.dumps({"type": "terminate", "address": CONTRACT_C3,
                        "height": 4})]


def eth_internal_sidefile() -> list[str]:
    return [json.dumps({"type": "internal_create", "address": addr(0xC1DE),
                        "parent": CONTRACT_C1, "height": 2})]


# -- acceptance summary hook ----------------------------------------------

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts: dict[str, bool] = {}
    for key in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(key, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            verdicts[name] = verdicts.get(name, True) and key == "passed"
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(verdicts):
        label = name.removeprefix("test_criterion_")
        number, _, slug = label.partition("_")
        status = "PASS" if verdicts[name] else "FAIL"
        terminalreporter.write_line(
            f"[{status}] criterion {int(number):2d}: {slug.replace('_', ' ')}")
