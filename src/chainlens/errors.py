"""Exception hierarchy shared across the toolkit.

Every error that maps to the CLI "data error" exit code derives from
ChainLensError; anything else escaping a command is a bug.
"""

from __future__ import annotations


class ChainLensError(Exception):
    """Base class for all expected failures."""


# --- ledger store ---------------------------------------------------------

class LineError(ChainLensError):
    """A fault in one input line; once `line_no` is known, the message
    starts with `line N: `. `store._line_error` sets it on a conflict."""

    line_no: int | None = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.line_no is None else f"line {self.line_no}: {text}"


class MalformedJson(LineError):
    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        super().__init__(f"malformed JSON{': ' + detail if detail else ''}")


class SchemaViolation(LineError):
    def __init__(self, line_no: int, field: str, detail: str = ""):
        self.line_no = line_no
        self.field = field
        self.detail = detail
        msg = f"invalid field '{field}'"
        super().__init__(msg + (f": {detail}" if detail else ""))


class ConflictingBlock(LineError):
    def __init__(self, height: int):
        self.height = height
        super().__init__(f"conflicting block at height {height}: different contents already stored")


class ConflictingTx(LineError):
    def __init__(self, tx_hash: str):
        self.tx_hash = tx_hash
        super().__init__(f"conflicting tx {tx_hash}: different contents already stored")


class StoreSchemaMismatch(ChainLensError):
    def __init__(self, path: str, table: str):
        super().__init__(f"store {path} was written with another schema "
                         f"(table '{table}'): re-ingest its dumps into a "
                         "new store")


class StoreUnreadable(ChainLensError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"cannot read store {path}: {detail}")


class EmptyChain(ChainLensError):
    def __init__(self, chain: str, detail: str = ""):
        self.chain = chain
        super().__init__(f"no qualifying blocks for chain '{chain}'"
                         + (f" ({detail})" if detail else ""))


# --- Ethereum analytics ----------------------------------------------------

class ExecutorFailure(ChainLensError):
    def __init__(self, contract: str, detail: str):
        self.contract = contract
        super().__init__(f"executor failed for contract {contract}: {detail}")


# --- Namecoin / Peercoin ----------------------------------------------------

class AuxPowBeforeActivation(ChainLensError):
    def __init__(self, height: int, activation_height: int):
        self.height = height
        self.activation_height = activation_height
        super().__init__(
            f"merge-mined block at height {height} predates activation "
            f"height {activation_height}")


# --- discovery crawler ------------------------------------------------------

class NoSeedsReachable(ChainLensError):
    def __init__(self) -> None:
        super().__init__("no seed peer answered the ping-pong exchange")


class QueryTimeout(ChainLensError):
    """A single transport query (find_node) timed out."""


# --- poisoning scanner ------------------------------------------------------

class InvalidHex(ChainLensError):
    def __init__(self, position: int, detail: str = ""):
        self.position = position
        super().__init__(f"invalid hex at digit {position}"
                         + (f": {detail}" if detail else ""))

