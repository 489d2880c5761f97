"""Acceptance gate: one test per shipping criterion.

Each test is a self-contained demonstration of its criterion at the stated
scale; the summary hook in conftest prints a PASS/FAIL line per criterion
after the run.
"""

import csv
import random
import time
from collections import Counter
from datetime import date, datetime, timezone
from importlib import resources

import pytest

from chainlens.bootstrap import (ConnectResult, ProbeOutcome,
                                 RoundRobinResolver, ScriptedProber,
                                 ScriptedResolver, SeedSource, harvest_seeds,
                                 probe_ports)
from chainlens.chains.namecoin import (FeeSchedule, detect_reregistrations,
                                       merge_mine_split, weekly_fee_sums)
from chainlens.chains.peercoin import pos_pow_counts
from chainlens.discovery.crawler import CrawlConfig, crawl
from chainlens.discovery.identity import (NODE_ID_LEN, PeerInfo, hash_prefix,
                                          node_hash, precompute_targets,
                                          select_neighbors)
from chainlens.discovery.simulator import build_sim_overlay
from chainlens.errors import AuxPowBeforeActivation
from chainlens.eth.classify import classify_transaction, monthly_class_counts
from chainlens.eth.contracts import (ContractRecord, CreatorKind,
                                     build_contract_registry,
                                     derive_contract_address)
from chainlens.eth.probe import (DEFAULT_PROBE_CALLER, FixtureExecutor,
                                 GasPolicy, RefundDestination,
                                 SelectorDictionary, probe_suicidal)
from chainlens.eth.similarity import (SimilarityBuckets, bucket_similarity,
                                      levenshtein)
from chainlens.model import ChainKind
from chainlens.poison import extract_payload, load_signatures, scan_corpus
from chainlens.store import Store, ingest_blocks

from conftest import (addr, block_line, eth_labeled_fixture, h32, load_store,
                      tx_line)
from test_contracts import DERIVATION_VECTORS
from test_crawler import _CountingTransport
from test_namecoin import nmc_fixture
import oracles


def _ts(year, month, day):
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp())


def test_criterion_01_target_precomputation():
    started = time.monotonic()
    targets = precompute_targets(13, rng_seed=1311)
    assert len(targets) == 8192
    assert set(targets) == set(range(8192))
    for prefix, node_id in targets.items():
        assert len(node_id) == NODE_ID_LEN
        assert hash_prefix(node_hash(node_id), 13) == prefix
    assert time.monotonic() - started < 30.0


def _crawl_1000(seed):
    transport, truth = build_sim_overlay(1000, 20, rng_seed=seed,
                                         neighbor_k=16)
    reachable = [p for p in truth.peers if p.node_id in truth.reachable_ids]
    counting = _CountingTransport(transport)
    config = CrawlConfig(prefix_bits=8, rng_seed=seed, max_in_flight=500)
    return crawl(counting, reachable[:3], config), truth, counting


def test_criterion_02_crawler_discovery():
    started = time.monotonic()
    report, truth, counting = _crawl_1000(seed=42)
    found = {p.node_id for p in report.known_peers}
    assert len(found) >= 990
    assert found <= truth.all_ids
    assert counting.peak <= 500
    repeat, _, _ = _crawl_1000(seed=42)
    assert report.to_json() == repeat.to_json()
    assert time.monotonic() - started < 60.0


def test_criterion_03_neighbor_selection():
    rng = random.Random(303)
    pool = [PeerInfo(node_id=rng.randbytes(NODE_ID_LEN),
                     ip=f"203.0.113.{i % 256}", port=30_000 + i % 1000 + 1)
            for i in range(400)]
    digests = {peer.node_id: oracles.keccak256_oracle(peer.node_id)
               for peer in pool}

    def brute_force(candidates, target, k):
        def rank(peer):
            distance = bytes(x ^ y for x, y in zip(digests[peer.node_id],
                                                   target))
            return (distance, peer.node_id)
        return sorted(candidates, key=rank)[:k]

    for _ in range(500):
        count = rng.randint(1, 200)
        candidates = rng.sample(pool, count)
        if count >= 2 and rng.random() < 0.3:
            # duplicated identity at another endpoint: tie order matters
            twin = candidates[0]
            candidates[1] = PeerInfo(node_id=twin.node_id, ip="198.51.100.9",
                                     port=4444)
        target = rng.randbytes(32)
        k = rng.randint(1, count)
        assert select_neighbors(candidates, target, k) == \
            brute_force(candidates, target, k)


def test_criterion_04_edit_distance_oracle():
    rng = random.Random(404)

    def random_text():
        return "".join(rng.choice("ab6f") for _ in range(rng.randint(0, 64)))

    for _ in range(1000):
        a, b = random_text(), random_text()
        assert levenshtein(a, b, 128) == oracles.levenshtein_oracle(a, b)

    # fixed known distances, including the two block-substitution cases
    assert levenshtein("same", "same", 128) == 0
    assert levenshtein("kitten", "sitting", 128) == 3
    fifty = ("a" * 100, "b" * 50 + "a" * 50)
    assert oracles.levenshtein_oracle(*fifty) == 50
    assert levenshtein(*fifty, cutoff=128) == 50
    four_hundred = ("a" * 500, "b" * 400 + "a" * 100)
    assert oracles.levenshtein_oracle(*four_hundred) == 400
    assert levenshtein(*four_hundred, cutoff=512) == 400

    # over-cutoff answers agree with the oracle exceeding the cutoff
    for _ in range(200):
        a, b = random_text(), random_text()
        cutoff = rng.randint(0, 10)
        true_distance = oracles.levenshtein_oracle(a, b)
        banded = levenshtein(a, b, cutoff)
        assert (banded is None) == (true_distance > cutoff)
        if banded is not None:
            assert banded == true_distance


def test_criterion_05_similarity_buckets():
    rng = random.Random(505)
    reference = "".join(rng.choice("0123456789abcdef") for _ in range(600))

    def substituted(k):
        # a block of characters outside the reference alphabet: for equal
        # lengths the distance is then exactly k
        return "z" * k + reference[k:]

    corpus = [
        reference,              # 0 -> exact
        substituted(40),        # 40 -> minor
        substituted(100),       # minor boundary
        substituted(101),       # just past it -> heavy
        reference + "z" * 1000,  # 1000 inserts -> heavy boundary
        reference + "z" * 1001,  # beyond the cutoff -> dropped
    ]
    rows = bucket_similarity(corpus, [("ref", reference, False)],
                             SimilarityBuckets())
    (row,) = rows
    assert (row.exact, row.minor, row.heavy) == (1, 2, 2)


def test_criterion_06_transaction_classification():
    lines, labels = eth_labeled_fixture()
    store = load_store(lines, ChainKind.ETHEREUM)
    registry = build_contract_registry(store)
    got = {tx.hash: classify_transaction(tx, registry)
           for tx in store.iter_txs(ChainKind.ETHEREUM)}
    assert len(labels) == 20
    assert all(got[tx_hash] is expected for tx_hash, expected in labels)
    monthly = monthly_class_counts(store, registry)
    summed = Counter()
    for _, counts in monthly:
        summed.update(counts)
    assert summed == Counter(cls for _, cls in labels)
    assert sum(summed.values()) == 20
    store.close()


def test_criterion_07_contract_address_derivation():
    assert len(DERIVATION_VECTORS) == 10
    for sender, nonce, expected in DERIVATION_VECTORS:
        assert derive_contract_address(sender, nonce) == expected
        assert oracles.contract_address_oracle(sender, nonce) == expected


def test_criterion_08_suicide_probe():
    creator = addr(0xC0)
    dictionary = SelectorDictionary.default()
    assert len(dictionary) == 14

    def row(address, selector, estimate, terminates=False, refund_to=None):
        return {"type": "gas_fixture", "address": address,
                "selector": selector, "estimate": estimate,
                "terminates": terminates, "refund_to": refund_to}

    fixture = [
        row(addr(1), "41c0e1b5", 300, True, "caller"),
        row(addr(2), "41c0e1b5", 500, True, creator),
        row(addr(3), "41c0e1b5", 700, True, "00" * 20),
        row(addr(4), "41c0e1b5", 900, True, addr(0xEE)),
        *[row(addr(5), entry.selector.hex(), 100)
          for entry in dictionary],    # all 14 cheap, none terminates
        row(addr(6), "41c0e1b5", 21_000),   # at the threshold: clean
        row(addr(7), "41c0e1b5", 90_000),   # far above: clean
    ]
    executor = FixtureExecutor(fixture)
    records = [ContractRecord(address=addr(i), creation_height=0,
                              creator=creator,
                              creator_kind=CreatorKind.BY_TRANSACTION)
               for i in range(1, 9)]
    results = probe_suicidal(records, executor, dictionary, GasPolicy(),
                             caller=DEFAULT_PROBE_CALLER)
    # exactly the contracts with an estimate under 21000 appear
    assert [r.contract for r in results] == [addr(i) for i in range(1, 6)]
    by_contract = {r.contract: r for r in results}
    assert by_contract[addr(1)].confirmed_terminated
    assert by_contract[addr(1)].refund_destination is RefundDestination.CALLER
    assert by_contract[addr(2)].refund_destination is RefundDestination.CREATOR
    assert by_contract[addr(3)].refund_destination is \
        RefundDestination.NULL_ADDRESS
    assert by_contract[addr(4)].refund_destination is RefundDestination.OTHER
    assert by_contract[addr(4)].refund_address == addr(0xEE)
    suspicious = by_contract[addr(5)]
    assert suspicious.suspicious_default_function
    assert not suspicious.confirmed_terminated
    assert suspicious.gas_estimate == 100
    assert all(not by_contract[addr(i)].suspicious_default_function
               for i in range(1, 5))


def test_criterion_09_namecoin_analytics():
    store = load_store(nmc_fixture(), ChainKind.NAMECOIN)
    split = merge_mine_split(store)
    assert split.rows == {"blocks": (3, 2), "txs": (7, 2),
                          "name_new": (2, 0), "name_firstupdate": (3, 2),
                          "name_update": (1, 0)}
    assert weekly_fee_sums(store) == [
        ("2011-W18", "new", 1_000_000),
        ("2011-W18", "firstupdate", 3_000_000),
        ("2011-W18", "update", 0),
        ("2011-W19", "new", 1_000_000),
        ("2011-W19", "firstupdate", 0),
        ("2011-W19", "update", 500_000),
        ("2011-W20", "new", 0),
        ("2011-W20", "firstupdate", 3_000_000),
        ("2011-W20", "update", 0),
    ]
    report = detect_reregistrations(store, FeeSchedule(expiry_window_blocks=1),
                                    date(2011, 5, 17))
    assert report.reregistrations == [("d/alpha", [19201])]
    assert report.anomalies == [("d/beta", [19203])]
    store.close()

    early = load_store([block_line("nmc", 19_199, _ts(2011, 5, 2), [],
                                   auxpow=True)], ChainKind.NAMECOIN)
    with pytest.raises(AuxPowBeforeActivation):
        merge_mine_split(early)
    early.close()


def test_criterion_10_peercoin_split():
    lines = [block_line("ppc", 0, _ts(2012, 9, 1), [], proof="pow"),
             block_line("ppc", 1, _ts(2012, 9, 2), [], proof="pos"),
             block_line("ppc", 2, _ts(2012, 9, 3), [], proof="pow"),
             block_line("ppc", 3, _ts(2012, 11, 2), [], proof="pos"),
             block_line("ppc", 4, _ts(2012, 11, 3), [], proof="pos")]
    store = load_store(lines, ChainKind.PEERCOIN)
    rows = pos_pow_counts(store)
    assert rows == [("2012-09", 1, 2), ("2012-10", 0, 0), ("2012-11", 2, 0)]
    assert sum(pos + pow_ for _, pos, pow_ in rows) == \
        store.block_count(ChainKind.PEERCOIN)
    store.close()


def test_criterion_11_poison_detection():
    db = load_signatures()

    # independent expectation: re-read the shipped table and apply the
    # two-byte prefix rule directly
    text = resources.files("chainlens").joinpath(
        "data/signatures.csv").read_text(encoding="utf-8")
    table = [(name, bytes.fromhex(magic), int(offset))
             for name, magic, offset, _ in
             list(csv.reader(text.splitlines()))[1:]]

    def expected_matches(payload):
        names = []
        for name, magic, offset in table:
            length = min(2, len(magic))
            window = payload[offset:offset + length]
            if len(window) == length and window == magic[:length]:
                names.append(name)
        return names

    planted = {
        h32(0x1101): bytes.fromhex("89504e470d0a1a0a") + b"png-body",
        h32(0x1102): bytes.fromhex("ffd8ffe000104a464946") + b"jpg-body",
        h32(0x1103): bytes.fromhex("1f8b0808") + b"gzip-body",
    }
    rng = random.Random(1111)
    corpus = dict(planted)
    for i in range(50):
        corpus[h32(0x2000 + i)] = rng.randbytes(rng.randint(8, 40))

    tx_hashes = sorted(corpus)
    lines = [block_line("eth", 0, 1_438_387_200, tx_hashes)]
    lines += [tx_line("eth", tx_hash, 0, i, addr(1), addr(2), "0",
                      corpus[tx_hash].hex())
              for i, tx_hash in enumerate(tx_hashes)]
    store = load_store(lines, ChainKind.ETHEREUM)
    report = scan_corpus(store, ChainKind.ETHEREUM, db)
    store.close()

    got = {}
    for scan_row in report.rows:
        got.setdefault(scan_row.tx_hash, []).append(scan_row.format_name)
    want = {tx_hash: expected_matches(payload)
            for tx_hash, payload in corpus.items()
            if expected_matches(payload)}
    assert got == want
    # the planted payloads are never missed
    assert "png" in got[h32(0x1101)]
    assert "jpg" in got[h32(0x1102)]
    assert "gzip" in got[h32(0x1103)]

    for _ in range(1000):
        blob = rng.randbytes(rng.randint(0, 100))
        assert extract_payload(blob.hex()) == blob
        assert extract_payload("0x" + blob.hex().upper()) == blob


def test_criterion_12_bootstrap_measurement():
    # exact growth curve from a deterministic resolver
    pool = [f"10.0.0.{i}" for i in range(6)]
    source = SeedSource(port=8333, dns_names=["seed.a"])
    harvest = harvest_seeds(RoundRobinResolver(pool, per_round=2), source, 5)
    assert harvest.rounds == [(0, 2, 2), (1, 2, 4), (2, 2, 6), (3, 0, 6),
                              (4, 0, 6)]

    # exact open/filtered/closed summary from a scripted prober
    prober = ScriptedProber({"1.1.1.1": ConnectResult.ACCEPTED,
                             "2.2.2.2": ConnectResult.ACCEPTED,
                             "3.3.3.3": ConnectResult.REFUSED,
                             "4.4.4.4": ConnectResult.TIMED_OUT})
    scan = probe_ports(prober, ["1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4"],
                       8333)
    assert (scan.summary.open, scan.summary.filtered,
            scan.summary.closed) == (2, 1, 1)
    assert scan.summary.percentages() == (50.0, 25.0, 25.0)
    assert scan.outcomes["4.4.4.4"] is ProbeOutcome.FILTERED

    # cumulative uniqueness is nondecreasing across random scenarios
    for scenario in range(100):
        rng = random.Random(1200 + scenario)
        pool = [f"10.1.{i // 256}.{i % 256}"
                for i in range(rng.randint(1, 40))]
        names = [f"seed.{chr(97 + i)}" for i in range(rng.randint(1, 4))]
        script = {}
        for name in names:
            script[name] = [
                rng.choice(["NXDOMAIN", "SERVFAIL", "TIMEOUT"])
                if rng.random() < 0.3
                else rng.sample(pool, rng.randint(0, len(pool)))
                for _ in range(rng.randint(1, 6))]
        harvest = harvest_seeds(ScriptedResolver(script),
                                SeedSource(port=1024, dns_names=names),
                                rounds=rng.randint(1, 8))
        cumulative = [total for _, _, total in harvest.rounds]
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert len(harvest.all_ips) == cumulative[-1]


def test_criterion_13_ingestion_properties():
    def random_chain(rng):
        lines, times, total_value, tx_count = [], [], 0, 0
        moment = rng.randint(1_400_000_000, 1_500_000_000)
        for height in range(rng.randint(1, 10)):
            moment += rng.randint(1, 50_000)
            times.append(moment)
            tx_hashes, tx_lines = [], []
            for index in range(rng.randint(0, 3)):
                value = rng.choice([0, rng.randint(1, 10**6),
                                    rng.randint(10**18, 10**21)])
                tx_hash = h32(0xCC0000 + tx_count)
                tx_count += 1
                total_value += value
                tx_hashes.append(tx_hash)
                recipient = addr(rng.randint(1, 5)) \
                    if rng.random() < 0.8 else None
                tx_lines.append(tx_line("eth", tx_hash, height, index,
                                        addr(rng.randint(1, 5)), recipient,
                                        str(value)))
            lines.append(block_line("eth", height, moment, tx_hashes))
            lines.extend(tx_lines)
        return lines, times, tx_count, total_value

    for scenario in range(50):
        rng = random.Random(1300 + scenario)
        lines, times, tx_count, total_value = random_chain(rng)
        store = Store(":memory:")
        first = ingest_blocks(lines, ChainKind.ETHEREUM, store, strict=True)
        assert first.rejected_count == 0
        summary = store.summarize_chain(ChainKind.ETHEREUM)
        assert summary.tx_count == tx_count
        assert summary.tx_volume == total_value

        # double ingest changes nothing
        second = ingest_blocks(lines, ChainKind.ETHEREUM, store)
        assert (second.blocks_loaded, second.txs_loaded,
                second.rejected_count) == (0, 0, 0)
        assert store.summarize_chain(ChainKind.ETHEREUM) == summary

        # cutoffs later in time never lose blocks or transactions
        cut_moments = sorted(rng.randint(times[0] + 1, times[-1] + 50_001)
                             for _ in range(4))
        heights = [store.apply_cutoff(ChainKind.ETHEREUM, moment)
                   for moment in cut_moments]
        assert heights == sorted(heights)
        counts = [store.summarize_chain(ChainKind.ETHEREUM,
                                  cutoff_height=height).tx_count
                  for height in heights]
        assert counts == sorted(counts)
        store.close()
