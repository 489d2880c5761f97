"""Independent reference implementations used to freeze expected values.

Deliberately written in a different style from the package code: nested
5x5 state with generator-derived constants for Keccak, a full dynamic
programming matrix for edit distance, direct byte construction for RLP.
A bug shared with the implementation under test should be unlikely.
"""

from __future__ import annotations

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


# -- the nmc and ppc reports row by row -------------------------------------
# Each decodes every row through Store.iter_txs, iter_blocks and
# block_times, joins txs to block times and skips orphans in Python.

def dated_txs_reference(store, chain, max_height=None) -> list:
    """(block time, tx) of each stored tx of a chain up to `max_height`,
    in ledger order; the time is None for an orphan, a tx whose block is
    not stored."""
    times = store.block_times(chain)
    return [(times.get(tx.height), tx) for tx in store.iter_txs(chain)
            if max_height is None or tx.height <= max_height]


def weekly_fee_sums_reference(store) -> list:
    from chainlens.model import (NAME_OP_KINDS, ChainKind, iso_week_key,
                                 tally_periods)

    items = ((block_time, tx.op_kind, int(tx.op_fee))
             for block_time, tx in dated_txs_reference(store,
                                                       ChainKind.NAMECOIN)
             if tx.op_kind is not None)
    rows = tally_periods(items, iso_week_key)
    kinds = [kind for kind in NAME_OP_KINDS
             if any(kind in by_kind for _, by_kind in rows)]
    return [(week, kind, by_kind[kind])
            for week, by_kind in rows for kind in kinds]


def merge_mine_split_reference(store):
    """`merge_mine_split` by a height-ordered scan of the blocks, which
    raises at the first early auxpow block, then of the dated txs."""
    from chainlens.chains.namecoin import (MERGE_MINING_START_HEIGHT,
                                           MergeMineSplit)
    from chainlens.errors import AuxPowBeforeActivation, EmptyChain
    from chainlens.model import ChainKind

    metrics = ("blocks", "txs", "name_new", "name_firstupdate", "name_update")
    counts = {metric: [0, 0] for metric in metrics}
    merged_heights = set()
    for block in store.iter_blocks(ChainKind.NAMECOIN):
        merged = bool(block.auxpow)
        if merged and block.height < MERGE_MINING_START_HEIGHT:
            raise AuxPowBeforeActivation(block.height,
                                         MERGE_MINING_START_HEIGHT)
        if merged:
            merged_heights.add(block.height)
        counts["blocks"][merged] += 1
    if counts["blocks"] == [0, 0]:
        raise EmptyChain(ChainKind.NAMECOIN.value)
    for block_time, tx in dated_txs_reference(store, ChainKind.NAMECOIN):
        if block_time is None:
            continue
        merged = tx.height in merged_heights
        counts["txs"][merged] += 1
        if tx.op_kind is not None:
            counts[f"name_{tx.op_kind}"][merged] += 1
    return MergeMineSplit(rows={m: (c[0], c[1]) for m, c in counts.items()})


def build_name_histories_reference(store) -> dict:
    """name -> [(height, kind, block time or None)] of its firstupdate and
    update ops, in ledger order."""
    from chainlens.model import ChainKind

    histories: dict = {}
    for block_time, tx in dated_txs_reference(store, ChainKind.NAMECOIN):
        if tx.op_kind in ("firstupdate", "update"):
            histories.setdefault(tx.op_name, []).append(
                (tx.height, tx.op_kind, block_time))
    return histories


def detect_reregistrations_reference(store, schedule, day):
    from chainlens.chains.namecoin import ReregReport
    from chainlens.model import utc_date

    report = ReregReport()
    for name, events in sorted(build_name_histories_reference(store).items()):
        for position, (height, kind, block_time) in enumerate(events):
            if (kind != "firstupdate" or block_time is None
                    or utc_date(block_time) != day):
                continue
            report.firstupdates_on_day += 1
            prior = events[:position]
            registrations = [h for h, k, _ in prior if k == "firstupdate"]
            if not registrations:
                continue
            if prior[-1][0] + schedule.expiry_window_blocks < height:
                report.reregistrations.append((name, registrations))
            else:
                report.anomalies.append((name, registrations))
    return report


def pos_pow_counts_reference(store) -> list:
    from chainlens.errors import EmptyChain
    from chainlens.model import ChainKind, month_key, tally_periods

    rows = tally_periods(((block.time, block.proof, 1)
                          for block in store.iter_blocks(ChainKind.PEERCOIN)),
                         month_key)
    if not rows:
        raise EmptyChain(ChainKind.PEERCOIN.value)
    return [(month, counts["pos"], counts["pow"]) for month, counts in rows]
