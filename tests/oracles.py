"""Independent reference implementations that tests compare the package with.

Deliberately written in a different style from the package code, so that
a bug shared with the implementation under test is unlikely: nested 5x5
state with generator-derived constants for Keccak, direct byte
construction for RLP, a full dynamic programming matrix for edit
distance, a brute-force neighbour sort, the ingest field readers and
write rule as they read before their fast paths, the crawl's target draw,
private-range check and endpoint statistics as they read before theirs,
and `LedgerModel`: one
model of the ledger, in plain dicts and loops with no chainlens import,
that predicts what every ledger command prints.
"""

from __future__ import annotations

import calendar
import functools
import ipaddress
import json
import time

_MASK64 = (1 << 64) - 1


def _rot64(value: int, amount: int) -> int:
    amount %= 64
    return ((value << amount) | (value >> (64 - amount))) & _MASK64


def _round_constants() -> list[int]:
    # degree-8 LFSR, taps per the sponge reference description
    constants = []
    state = 1
    for _ in range(24):
        rc = 0
        for j in range(7):
            if state & 1:
                rc |= 1 << ((1 << j) - 1)
            state <<= 1
            if state & 0x100:
                state ^= 0x171
        constants.append(rc)
    return constants


def _rotation_offsets() -> list[list[int]]:
    offsets = [[0] * 5 for _ in range(5)]
    x, y = 1, 0
    for t in range(24):
        offsets[x][y] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


_RC = _round_constants()
_ROT = _rotation_offsets()


def _keccak_f(lanes: list[list[int]]) -> None:
    for rnd in range(24):
        parity = [lanes[x][0] ^ lanes[x][1] ^ lanes[x][2] ^ lanes[x][3]
                  ^ lanes[x][4] for x in range(5)]
        delta = [parity[(x - 1) % 5] ^ _rot64(parity[(x + 1) % 5], 1)
                 for x in range(5)]
        for x in range(5):
            for y in range(5):
                lanes[x][y] ^= delta[x]
        shuffled = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                shuffled[y][(2 * x + 3 * y) % 5] = _rot64(lanes[x][y],
                                                          _ROT[x][y])
        for x in range(5):
            for y in range(5):
                lanes[x][y] = shuffled[x][y] ^ (
                    (~shuffled[(x + 1) % 5][y] & _MASK64)
                    & shuffled[(x + 2) % 5][y])
        lanes[0][0] ^= _RC[rnd]


def keccak256_oracle(data: bytes) -> bytes:
    """Legacy-padding Keccak-256 over a nested-list sponge."""
    rate = 136
    padded = bytearray(data)
    padded.append(0x01)
    while len(padded) % rate:
        padded.append(0x00)
    padded[-1] |= 0x80
    lanes = [[0] * 5 for _ in range(5)]
    for start in range(0, len(padded), rate):
        for i in range(rate // 8):
            lane = int.from_bytes(padded[start + 8 * i:start + 8 * i + 8],
                                  "little")
            lanes[i % 5][i // 5] ^= lane
        _keccak_f(lanes)
    out = bytearray()
    for i in range(4):
        out += lanes[i % 5][i // 5].to_bytes(8, "little")
    return bytes(out)


def rlp_encode_oracle(item) -> bytes:
    """RLP by direct byte construction; ints big-endian minimal, 0 empty."""
    if isinstance(item, int):
        if item < 0:
            raise ValueError("negative integer")
        payload = b"" if item == 0 \
            else item.to_bytes((item.bit_length() + 7) // 8, "big")
        return rlp_encode_oracle(payload)
    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] < 0x80:
            return data
        return _length_prefix(len(data), 0x80) + data
    body = b"".join(rlp_encode_oracle(part) for part in item)
    return _length_prefix(len(body), 0xC0) + body


def _length_prefix(length: int, base: int) -> bytes:
    if length < 56:
        return bytes([base + length])
    encoded = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([base + 55 + len(encoded)]) + encoded


@functools.cache  # a pure function that ledger tests call again and again
def contract_address_oracle(sender_hex: str, nonce: int) -> str:
    sender = bytes.fromhex(sender_hex.removeprefix("0x"))
    digest = keccak256_oracle(rlp_encode_oracle([sender, nonce]))
    return digest[-20:].hex()


def levenshtein_oracle(a: str, b: str) -> int:
    """Full dynamic programming matrix, no banding."""
    rows, cols = len(a) + 1, len(b) + 1
    matrix = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        matrix[i][0] = i
    for j in range(cols):
        matrix[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            matrix[i][j] = min(matrix[i - 1][j] + 1,
                               matrix[i][j - 1] + 1,
                               matrix[i - 1][j - 1] + cost)
    return matrix[-1][-1]


def brute_force_neighbors(candidates, target_digest: bytes, k: int,
                          digest_of=keccak256_oracle) -> list:
    """Closest-k by full sort, with its own hashing and distance math.

    `digest_of` maps a node id to its digest; a test that fakes digests
    passes its own.
    """
    def rank(peer):
        digest = digest_of(peer.node_id)
        distance = bytes(x ^ y for x, y in zip(digest, target_digest))
        return (distance, peer.node_id)

    return sorted(candidates, key=rank)[:k]


def shared_top(digest: bytes, nbytes: int) -> bytes:
    """`digest` with its top `nbytes` bytes set by its top 4 bits alone.

    A real 64-bit digest prefix collision is out of reach, so this stands in
    for one: among a few dozen ids, some then agree on their top bytes, and
    a ranking must look past the top 64-bit lane.
    """
    return keccak256_oracle(bytes([digest[0] >> 4]))[:nbytes] + \
        digest[nbytes:]


_HEX_DIGITS = frozenset("0123456789abcdef")


def normalize_hex_reference(text: str, byte_len: int | None = None) -> str:
    """`model.normalize_hex` as a set test over the lowered digits, the
    check that named every error before the C-level fast path."""
    digits = (text[2:] if text[:2] in ("0x", "0X") else text).lower()
    if len(digits) % 2:
        raise ValueError(f"odd-length hex string: {text!r}")
    if not _HEX_DIGITS.issuperset(digits):
        raise ValueError(f"non-hex digits in {text!r}")
    if byte_len is not None and len(digits) != 2 * byte_len:
        raise ValueError(f"expected {byte_len} bytes of hex, got {len(digits) // 2}")
    return digits


def extract_payload_reference(input_hex: str) -> bytes:
    """`poison.extract_payload` as a set test, then `bytes.fromhex`."""
    from chainlens.errors import InvalidHex

    digits = input_hex[2:] if input_hex[:2] in ("0x", "0X") else input_hex
    if not len(digits) % 2 and set(digits.lower()) <= _HEX_DIGITS:
        return bytes.fromhex(digits)
    for position, char in enumerate(digits):
        if char.lower() not in _HEX_DIGITS:
            raise InvalidHex(position, f"character {char!r}")
    raise InvalidHex(len(digits), "odd number of hex digits")


# -- the ingest field readers before their one-call accept paths ----------
# Each takes every argument of the reader it stands for, model.REQUIRED as
# the default of a required field, and raises model.FieldError.

def field_reference(obj: dict, key: str, default, kinds: tuple,
                    expected: str):
    """obj[key] if its JSON type is one of `kinds`; a bool is not an int."""
    from chainlens.model import REQUIRED, FieldError

    value = obj.get(key, default)
    if value is default:
        if default is REQUIRED:
            raise FieldError(key, "is missing")
    elif type(value) not in kinds:
        raise FieldError(key, f"must be {expected}, got {value!r}")
    return value


def int_field_reference(obj: dict, key: str, minimum, default,
                        maximum) -> int:
    from chainlens.model import FieldError

    value = field_reference(obj, key, default, (int,), "an integer")
    if value is default:
        return value
    if minimum is not None and value < minimum:
        raise FieldError(key, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise FieldError(key, f"must be <= {maximum}, got {value}")
    return value


def amount_field_reference(obj: dict, key: str, default) -> int:
    from chainlens.model import FieldError

    value = field_reference(obj, key, default, (str, int),
                            "a decimal string or integer")
    if value is default:
        return value
    try:
        amount = int(value)
    except ValueError:
        raise FieldError(key, f"not a decimal integer: {value!r}") from None
    if amount < 0:
        raise FieldError(key, "negative amount")
    return amount


def hex_field_reference(obj: dict, key: str, byte_len, default) -> str:
    from chainlens.model import FieldError

    value = field_reference(obj, key, default, (str,), "a hex string")
    if value is default:
        return value
    try:
        return normalize_hex_reference(value, byte_len)
    except ValueError as exc:
        raise FieldError(key, str(exc)) from None


def str_list_field_reference(obj: dict, key: str, default, byte_len) -> list:
    from chainlens.model import FieldError

    value = field_reference(obj, key, default, (list,), "a list of strings")
    if not (isinstance(value, list)
            and all(isinstance(item, str) for item in value)):
        raise FieldError(key, f"must be a list of strings, got {value!r}")
    if byte_len is None:
        return value
    try:
        return [normalize_hex_reference(item, byte_len) for item in value]
    except ValueError as exc:
        raise FieldError(key, str(exc)) from None


def put_row_reference(conn, table: str, key: str, conflict, row: tuple) -> bool:
    """The store's write rule one row at a time, on a sqlite3 connection:
    True if `row` was inserted, False if the same row is stored under
    (chain, `key`); a different one there raises `conflict`, and with none
    there a tx's taken (height, index) raises a FieldError on "index"."""
    from chainlens.model import FieldError

    if conn.execute(f"INSERT INTO {table} VALUES ({','.join('?' * len(row))})"
                    " ON CONFLICT DO NOTHING", row).rowcount:
        return True
    stored = conn.execute(f"SELECT * FROM {table} WHERE chain=? AND {key}=?",
                          row[:2]).fetchone()
    if stored == row:
        return False
    if stored is not None:
        raise conflict(row[1])
    (holder,) = conn.execute(
        "SELECT hash FROM txs WHERE chain=? AND height=? AND idx=?",
        (row[0], row[2], row[3])).fetchone()
    raise FieldError("index", f"position ({row[2]}, {row[3]}) already "
                              f"held by tx {holder}")


def precompute_targets_reference(prefix_bits: int, rng_seed, batch64) -> dict:
    """`identity.precompute_targets` as it drew before its block-wise draw:
    batches of at least 2,048 candidates, each hashed whole by `batch64`
    (the package's `keccak256_batch64`, passed in)."""
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    if prefix_bits == 0:
        return {0: rng.bytes(64)}
    total = 1 << prefix_bits
    batch = max(2048, min(total * 4, 1 << 17))
    found = {}
    shift = np.uint64(64 - prefix_bits)
    while len(found) < total:
        buf = rng.bytes(64 * batch)
        digests = batch64(np.frombuffer(buf, dtype="<u8").reshape(batch, 8))
        prefixes = (digests[:, 0].byteswap() >> shift).tolist()
        for i, prefix in enumerate(prefixes):
            if prefix not in found:
                found[prefix] = buf[64 * i:64 * (i + 1)]
    return found


_PRIVATE_RANGES = tuple(ipaddress.ip_network(net) for net in
                        ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16"))


def is_private_reference(ip: str) -> bool:
    """The crawler's private-range rule read wholly through `ipaddress`."""
    try:
        addr = ipaddress.ip_address(ip)
    except ValueError:
        return False
    return addr.version == 4 and any(addr in net for net in _PRIVATE_RANGES)


def endpoint_stats_reference(peers, prefix_bits: int) -> dict:
    """`crawler.endpoint_stats`' fields for `peers`, each id hashed here by
    `keccak256_oracle` and each address checked by `is_private_reference`."""
    ips = sorted({p.ip for p in peers})
    per_ip = {ip: sum(p.ip == ip for p in peers) for ip in ips}
    histogram = dict.fromkeys(range(1 << prefix_bits), 0)
    for peer in peers:
        top = int.from_bytes(keccak256_oracle(peer.node_id)[:8], "big")
        histogram[top >> (64 - prefix_bits) if prefix_bits else 0] += 1
    return {
        "unique_node_ids": len({p.node_id for p in peers}),
        "unique_ips": len(ips),
        "unique_ports": len({p.port for p in peers}),
        "ip_port_combos": len({(p.ip, p.port) for p in peers}),
        "private_range_ips": sum(map(is_private_reference, ips)),
        "node_ids_per_ip": sorted(per_ip.items(),
                                  key=lambda kv: (-kv[1], kv[0])),
        "prefix_histogram": histogram,
    }


# -- one model of every ledger report ----------------------------------------
# The store that README's ingest rules build from NDJSON lines, and what
# each ledger command prints about it, in plain dicts and loops. Nothing
# here imports chainlens (test_ledger_model checks this), so a fault
# shared with the package would have to be written twice.

_CLASSES = ("to_account", "to_contract", "create_contract", "zombie_create")


class ModelRefusal(Exception):
    """A data error: the CLI prints `error: <message>` and exits 2."""


def _block_row(record: dict) -> dict:
    """A block as stored: hex in lowercase without 0x, absent fields None."""
    return {"hash": normalize_hex_reference(record["hash"]),
            "parent": normalize_hex_reference(record["parent"]),
            "time": record["time"], "auxpow": record.get("auxpow"),
            "proof": record.get("proof"),
            "txs": [normalize_hex_reference(tx_hash)
                    for tx_hash in record.get("txs", [])]}


def _tx_row(record: dict, chain: str) -> dict:
    """A tx as stored: an eth address is hex, amounts are integers and a
    name op is (kind, name, name hash, paid fee)."""
    to, op, fee = record.get("to"), record.get("name_op"), record.get("fee")
    address = normalize_hex_reference if chain == "eth" else str
    return {"hash": normalize_hex_reference(record["hash"]),
            "height": record["height"], "index": record["index"],
            "from": address(record["from"]),
            "to": None if to is None else address(to),
            "value": int(record.get("value", 0)),
            "input": normalize_hex_reference(record.get("input", "")),
            "fee": None if fee is None else int(fee), "gas": record.get("gas"),
            "op": None if op is None else (op["kind"], op.get("name"),
                                           op.get("name_hash"),
                                           int(op.get("paid_fee", 0)))}


def _add(tallies: dict, period, label: str, amount: int = 1) -> None:
    tally = tallies.setdefault(period, {})
    tally[label] = tally.get(label, 0) + amount


def _month(moment: int) -> tuple[int, int]:
    tm = time.gmtime(moment)
    return tm.tm_year, tm.tm_mon


def _month_rows(tallies: dict) -> list:
    """(month, its tally or {}) for every month from the first key of
    `tallies`, a (year, month), to the last."""
    if not tallies:
        return []
    (year, month), last = min(tallies), max(tallies)
    rows = []
    while (year, month) <= last:
        rows.append((f"{year}-{month:02d}", tallies.get((year, month), {})))
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return rows


def _week_thursday(moment: int) -> int:
    """The day number of the Thursday of a moment's ISO week, which lies in
    that week's ISO year; day 0, 1970-01-01, was a Thursday."""
    day = moment // 86_400
    return day - (day + 3) % 7 + 3


def _week_rows(tallies: dict) -> list:
    """(ISO week, its tally or {}) for every week from the first key of
    `tallies`, a Thursday, to the last."""
    if not tallies:
        return []
    rows = []
    for thursday in range(min(tallies), max(tallies) + 1, 7):
        tm = time.gmtime(thursday * 86_400)
        rows.append((f"{tm.tm_year}-W{(tm.tm_yday - 1) // 7 + 1:02d}",
                     tallies.get(thursday, {})))
    return rows


def signature_rows(table_text: str) -> list:
    """(format, magic bytes, offset) of each row of a signature table CSV."""
    rows = []
    for line in table_text.splitlines()[1:]:
        name, magic_hex, offset, _ = line.split(",")
        rows.append((name, bytes.fromhex(magic_hex), int(offset)))
    return rows


def signature_hits_reference(payload: bytes, rows: list,
                             full_magic: bool) -> list:
    """Format names of the (format, magic, offset) rows that match
    `payload`, one per row, in table order. A row matches when its
    magic's first two bytes sit at its offset, or with `full_magic`, when
    its whole magic does: each row is judged on its own magic, whatever
    the other rows of its format say."""
    names = []
    for name, magic, offset in rows:
        length = len(magic) if full_magic else min(len(magic), 2)
        if payload[offset:offset + length] == magic[:length]:
            names.append(name)
    return names


class LedgerModel:
    """A store built by README's ingest rules, and the exit code, stdout
    and stderr lines of each ledger command run on it with the
    --internal and --terminated side-files this model was given."""

    def __init__(self, internal: list, terminated: list, signatures: list):
        self.internal = [json.loads(line) for line in internal]
        self.terminated = [json.loads(line) for line in terminated]
        self.signatures = signatures
        self.blocks = {"eth": {}, "nmc": {}, "ppc": {}}  # height -> row
        self.txs = {"eth": {}, "nmc": {}, "ppc": {}}  # hash -> row

    def ingest(self, chain: str, lines: list) -> tuple:
        """`ingest FILE --chain chain` of a file of `lines`: the first
        delivery of a block height or tx hash is stored, an identical
        re-delivery is a no-op, and a changed one, or a new tx at a taken
        (height, index), is rejected."""
        loaded, rejected = {"block": 0, "tx": 0}, []
        for line_no, line in enumerate(lines, start=1):
            record = json.loads(line)
            if record["type"] == "block":
                table, key, row = (self.blocks[chain], record["height"],
                                   _block_row(record))
                fault = f"conflicting block at height {key}"
            else:
                table, row = self.txs[chain], _tx_row(record, chain)
                key, spot = row["hash"], (row["height"], row["index"])
                fault = f"conflicting tx {key}"
                holder = [tx["hash"] for tx in table.values()
                          if (tx["height"], tx["index"]) == spot]
                if key not in table and holder:
                    rejected.append(
                        f"rejected line {line_no}: invalid field 'index': "
                        f"position {spot} already held by tx {holder[0]}")
                    continue
            if key not in table:
                table[key] = row
                loaded[record["type"]] += 1
            elif table[key] != row:
                rejected.append(f"rejected line {line_no}: {fault}: "
                                "different contents already stored")
        return (0, f"blocks,txs,rejected\n{loaded['block']},{loaded['tx']},"
                   f"{len(rejected)}\n", rejected)

    def run(self, argv: list) -> tuple:
        """(exit code, stdout, stderr lines) of a ledger command."""
        options, words, args = {}, [], iter(argv)
        for arg in args:
            if arg == "--verify-full":
                options[arg] = True
            elif arg.startswith("--"):
                options[arg] = next(args)
            else:
                words.append(arg)
        report = {"summarize": self.summarize,
                  "report tx-monthly": self.tx_monthly,
                  "eth classify": self.classify, "eth zombies": self.zombies,
                  "eth lifetimes": self.lifetimes,
                  "eth precreation": self.precreation,
                  "poison scan": self.poison_scan, "nmc fees": self.fees,
                  "nmc mergemine": self.mergemine, "nmc rereg": self.rereg,
                  "ppc pos-pow": self.pos_pow}[" ".join(words)]
        notes: list = []
        try:
            rows = report(options, notes)
        except ModelRefusal as refusal:
            return 2, "", [f"error: {refusal}"]
        return (0, "".join(",".join(map(str, row)) + "\n" for row in rows),
                notes)

    # -- the ledger as the reports read it

    def _ledger(self, chain: str) -> list:
        """The stored txs of a chain by (height, index)."""
        return sorted(self.txs[chain].values(),
                      key=lambda tx: (tx["height"], tx["index"]))

    def _time(self, chain: str, tx: dict):
        """The time of a tx's block, None for an orphan."""
        block = self.blocks[chain].get(tx["height"])
        return None if block is None else block["time"]

    def _blocks(self, chain: str) -> dict:
        """A chain's blocks by height; a chain without any is refused."""
        if not self.blocks[chain]:
            raise ModelRefusal(f"no qualifying blocks for chain '{chain}'")
        return self.blocks[chain]

    def _cutoff_height(self, options: dict, chain: str):
        """The highest height whose block time is before --cutoff."""
        if "--cutoff" not in options:
            return None
        moment = calendar.timegm(time.strptime(options["--cutoff"],
                                               "%Y-%m-%dT%H:%M:%SZ"))
        before = [height for height, block in self.blocks[chain].items()
                  if block["time"] < moment]
        if not before:
            raise ModelRefusal(f"no qualifying blocks for chain '{chain}' "
                               f"(no block before timestamp {moment})")
        return max(before)

    def _creations(self) -> list:
        """(creation tx, derived address) of each eth creation in ledger
        order; the nonce counts the sender's earlier txs, orphans too."""
        nonces: dict = {}
        creations = []
        for tx in self._ledger("eth"):
            nonce = nonces.get(tx["from"], 0)
            nonces[tx["from"]] = nonce + 1
            if tx["to"] is None:
                creations.append((tx, contract_address_oracle(tx["from"],
                                                               nonce)))
        return creations

    def _contracts(self) -> dict:
        """address -> {"at": (height, index), "end": termination height},
        from the ledger's creations and the side-files; of two creations
        of one address the earlier is kept, and an internal one comes
        before every tx of its height."""
        contracts: dict = {}
        made = [(address, tx["height"], tx["index"])
                for tx, address in self._creations()]
        made += [(normalize_hex_reference(record["address"]),
                  record["height"], -1) for record in self.internal]
        for address, height, index in made:
            if address not in contracts \
                    or (height, index) < contracts[address]["at"]:
                contracts[address] = {"at": (height, index), "end": None}
        for line_no, record in enumerate(self.terminated, start=1):
            address = normalize_hex_reference(record["address"])
            height, contract = record["height"], contracts.get(address)
            if contract is None:
                continue
            fault = f"line {line_no}: invalid field 'height': "
            if height < contract["at"][0]:
                raise ModelRefusal(f"{fault}termination at {height} precedes "
                                   f"creation at {contract['at'][0]}")
            if contract["end"] not in (None, height):
                raise ModelRefusal(f"{fault}{address} is already terminated "
                                   f"at {contract['end']}")
            contract["end"] = height
        return contracts

    # -- the reports, each as rows under a header

    def summarize(self, options, notes):
        chain = options["--chain"]
        top = self._cutoff_height(options, chain)
        heights = [height for height in self._blocks(chain)
                   if top is None or height <= top]
        times = [self.blocks[chain][height]["time"] for height in heights]
        txs = [tx for tx in self.txs[chain].values()
               if top is None or tx["height"] <= top]
        return [("chain", "first_block_time", "cutoff_time", "cutoff_height",
                 "tx_count", "tx_volume"),
                (chain, min(times), max(times), max(heights), len(txs),
                 sum(tx["value"] for tx in txs))]

    def tx_monthly(self, options, notes):
        chain = options["--chain"]
        top = self._cutoff_height(options, chain)
        self._blocks(chain)
        months: dict = {}
        for tx in self.txs[chain].values():
            moment = self._time(chain, tx)
            if moment is not None and (top is None or tx["height"] <= top):
                _add(months, _month(moment), "txs")
        return [("month", "txs")] + [(month, tally.get("txs", 0))
                                     for month, tally in _month_rows(months)]

    def classify(self, options, notes):
        contracts = self._contracts()
        self._blocks("eth")
        months: dict = {}
        orphans = 0
        for tx in self._ledger("eth"):
            moment = self._time("eth", tx)
            contract = contracts.get(tx["to"])
            if moment is None:
                orphans += 1
                continue
            if tx["to"] is None:
                kind = "create_contract" if tx["input"] else "zombie_create"
            elif contract and contract["at"] < (tx["height"], tx["index"]):
                kind = "to_contract"
            else:
                kind = "to_account"
            _add(months, _month(moment), kind)
        if orphans:
            notes.append(f"orphans: {orphans}")
        return [("month",) + _CLASSES] + [
            (month,) + tuple(tally.get(kind, 0) for kind in _CLASSES)
            for month, tally in _month_rows(months)]

    def zombies(self, options, notes):
        zombies = [(tx["height"], address, tx["value"], tx["from"])
                   for tx, address in self._creations() if not tx["input"]]
        view = options.get("--view", "summary")
        if view == "summary":
            return [("zombie_count", "total_balance"),
                    (len(zombies), sum(value for _, _, value, _ in zombies))]
        if view == "cdf":
            return [("height", "cumulative_zombies")] + [
                (height, sum(z[0] <= height for z in zombies))
                for height in sorted({z[0] for z in zombies})]
        if view == "top":
            ranked = sorted(((address, value) for _, address, value, _
                             in zombies), key=lambda z: (-z[1], z[0]))
            return [("address", "balance")] \
                + ranked[:int(options.get("--top", 10))]
        creators: dict = {}
        for *_, sender in zombies:
            creators[sender] = creators.get(sender, 0) + 1
        return [("creator", "zombies")] + sorted(
            creators.items(), key=lambda item: (-item[1], item[0]))

    def lifetimes(self, options, notes):
        edges = [int(edge) for edge
                 in options.get("--edges", "100,10000").split(",")]
        lives = [contract["end"] - contract["at"][0]
                 for contract in self._contracts().values()
                 if contract["end"] is not None]
        if not lives:
            return [("bucket", "contracts")]
        lows = [-1] + edges  # a lifetime is never negative
        return [("bucket", "contracts")] + [
            (f"<={high}", sum(low < life <= high for life in lives))
            for low, high in zip(lows, edges)] + [
            (f">{edges[-1]}", sum(life > edges[-1] for life in lives))]

    def precreation(self, options, notes):
        contracts = self._contracts()
        rows = [("funding_tx", "contract", "creation_height")]
        for tx in self._ledger("eth"):
            contract = contracts.get(tx["to"])
            if tx["value"] and contract \
                    and contract["at"] > (tx["height"], tx["index"]):
                rows.append((tx["hash"], tx["to"], contract["at"][0]))
        return rows

    def poison_scan(self, options, notes):
        rows = [("format", "tx_hash", "payload_size")]
        for tx in self._ledger(options.get("--chain", "eth")):
            payload = bytes.fromhex(tx["input"])
            names = signature_hits_reference(payload, self.signatures,
                                             "--verify-full" in options)
            rows += [(name, tx["hash"], len(payload)) for name in names]
        return rows

    def fees(self, options, notes):
        weeks: dict = {}
        kinds = set()
        for tx in self._ledger("nmc"):
            moment = self._time("nmc", tx)
            if tx["op"] is not None and moment is not None:
                kinds.add(tx["op"][0])
                _add(weeks, _week_thursday(moment), tx["op"][0], tx["op"][3])
        return [("week", "kind", "fee_units")] + [
            (week, kind, tally.get(kind, 0))
            for week, tally in _week_rows(weeks)
            for kind in ("new", "firstupdate", "update") if kind in kinds]

    def mergemine(self, options, notes):
        merged = {height for height, block in self._blocks("nmc").items()
                  if block["auxpow"] is True}
        if merged and min(merged) < 19_200:
            raise ModelRefusal(f"merge-mined block at height {min(merged)} "
                               "predates activation height 19200")
        counts = {metric: [0, 0] for metric in (
            "blocks", "txs", "name_new", "name_firstupdate", "name_update")}
        for height in self.blocks["nmc"]:
            counts["blocks"][height in merged] += 1
        for tx in self._ledger("nmc"):
            if self._time("nmc", tx) is not None:
                counts["txs"][tx["height"] in merged] += 1
                if tx["op"] is not None:
                    counts[f"name_{tx['op'][0]}"][tx["height"] in merged] += 1
        return [("metric", "normal", "merged", "total", "merged_pct")] + [
            (metric, normal, merged, normal + merged,
             f"{100.0 * merged / (normal + merged):.1f}"
             if normal + merged else "0.0")
            for metric, (normal, merged) in counts.items()]

    def rereg(self, options, notes):
        day, window = options["--day"], int(options.get("--window", 36_000))
        events: dict = {}  # name -> [(height, kind, time or None)]
        for tx in self._ledger("nmc"):
            if tx["op"] is not None and tx["op"][0] != "new":
                events.setdefault(tx["op"][1], []).append(
                    (tx["height"], tx["op"][0], self._time("nmc", tx)))
        on_day = 0
        found = {"reregistration": [], "anomaly": []}
        for name in sorted(events):
            for position, (height, kind, moment) in enumerate(events[name]):
                if kind != "firstupdate" or moment is None or time.strftime(
                        "%Y-%m-%d", time.gmtime(moment)) != day:
                    continue
                on_day += 1
                prior = events[name][:position]
                registered = [str(h) for h, k, _ in prior
                              if k == "firstupdate"]
                if registered:
                    lapsed = prior[-1][0] + window < height
                    found["reregistration" if lapsed else "anomaly"].append(
                        (name, ";".join(registered)))
        notes.append(f"first-updates on {day}: {on_day}")
        return [("name", "status", "prior_registration_heights")] + [
            (name, status, heights) for status, hits in found.items()
            for name, heights in hits]

    def pos_pow(self, options, notes):
        months: dict = {}
        for block in self._blocks("ppc").values():
            _add(months, _month(block["time"]), block["proof"])
        return [("month", "pos", "pow")] + [
            (month, tally.get("pos", 0), tally.get("pow", 0))
            for month, tally in _month_rows(months)]
