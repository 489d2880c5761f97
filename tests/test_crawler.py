"""Overlay crawler on simulated transports."""

import ast
import json
import math
import random
import sys
import threading
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from chainlens import keccak
from chainlens.discovery import crawler, simulator
from chainlens.discovery.crawler import (CrawlConfig, CrawlReport, crawl,
                                         endpoint_stats, load_topology)
from chainlens.discovery.identity import (NODE_ID_LEN, PeerInfo,
                                          digest_lanes, hash_prefix,
                                          node_hash, precompute_targets,
                                          ranking_lanes)
from chainlens.discovery.live import UdpV4Transport
from chainlens.discovery.simulator import SimTransport, build_sim_overlay
from chainlens.errors import NoSeedsReachable, QueryTimeout

import oracles


def _crawl_overlay(n_peers, degree, seed, prefix_bits=6, **overlay_kwargs):
    transport, truth = build_sim_overlay(n_peers, degree, rng_seed=seed,
                                         **overlay_kwargs)
    reachable = [p for p in truth.peers if p.node_id in truth.reachable_ids]
    config = CrawlConfig(prefix_bits=prefix_bits, rng_seed=seed)
    report = crawl(transport, reachable[:3], config)
    return report, truth


def test_full_discovery_on_connected_overlay():
    report, truth = _crawl_overlay(60, 12, seed=5)
    found = {p.node_id for p in report.known_peers}
    assert found <= truth.all_ids
    assert found == truth.reachable_ids


def test_unreachable_peers_stay_out():
    report, truth = _crawl_overlay(60, 12, seed=6, unreachable_fraction=0.2)
    found = {p.node_id for p in report.known_peers}
    assert found <= truth.reachable_ids
    # unreachable endpoints that were advertised show up as failures
    assert report.failed_endpoints
    failed_addrs = {(ip, port) for ip, port, _ in report.failed_endpoints}
    unreachable_addrs = {(p.ip, p.port) for p in truth.peers
                         if p.node_id not in truth.reachable_ids}
    assert failed_addrs <= unreachable_addrs


def _crawl_targets(prefix_bits, seed):
    """The targets a crawl configured with `seed` draws."""
    targets = precompute_targets(prefix_bits,
                                 np.random.SeedSequence(seed).spawn(1)[0])
    return [targets[p] for p in sorted(targets)]


def _closure(transport, seeds, targets):
    """The node ids a crawl from `seeds` must admit, asked one at a time.

    A peer is admitted when its one ping succeeds; every peer that an
    admitted peer's find_node returns for a target is then pinged once.
    """
    claimed = {p.node_id for p in seeds}
    queue = deque(seeds)
    admitted = set()
    while queue:
        peer = queue.popleft()
        if not transport.ping_pong(peer):
            continue
        admitted.add(peer.node_id)
        for target in targets:
            try:
                answer = transport.find_node(peer, target)
            except QueryTimeout:
                continue
            for candidate in answer:
                if candidate.node_id not in claimed:
                    claimed.add(candidate.node_id)
                    queue.append(candidate)
    return admitted


def test_churn_still_converges():
    # a dropped ping is permanent for that peer, so the crawl finds what
    # churn leaves reachable from the seeds: exactly the closure
    report, truth = _crawl_overlay(50, 10, seed=8, churn_failure_rate=0.2)
    found = {p.node_id for p in report.known_peers}
    assert found <= truth.reachable_ids
    transport, _ = build_sim_overlay(50, 10, rng_seed=8,
                                     churn_failure_rate=0.2)
    reachable = [p for p in truth.peers if p.node_id in truth.reachable_ids]
    assert found == _closure(transport, reachable[:3], _crawl_targets(6, 8))


def _binomial_interval(n, p, level=0.999):
    """The central `level` interval of Binomial(n, p), from its exact pmf."""
    tail = (1 - level) / 2
    log_p, log_q = math.log(p), math.log1p(-p)
    cdf, low = 0.0, None
    for k in range(n + 1):
        cdf += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                        - math.lgamma(n - k + 1) + k * log_p
                        + (n - k) * log_q)
        if low is None and cdf > tail:
            low = k
        if cdf >= 1 - tail:
            return low, k
    return low, n


@pytest.mark.parametrize("churn", [0.002, 0.2])
def test_churn_drops_its_share_of_draws(churn):
    rng = random.Random(churn)
    peers = [PeerInfo(rng.randbytes(NODE_ID_LEN), "192.0.2.1", 1)
             for _ in range(100_000)]
    transport = SimTransport({p.node_id: [] for p in peers}, frozenset(),
                             churn, 16, b"rate")
    targets = [rng.randbytes(NODE_ID_LEN) for _ in range(200)]
    pings = sum(not transport.ping_pong(p) for p in peers)
    finds = 0
    for peer in peers[:500]:
        for target in targets:
            try:
                transport.find_node(peer, target)
            except QueryTimeout:
                finds += 1
    low, high = _binomial_interval(100_000, churn)
    assert low <= pings <= high
    assert low <= finds <= high


def test_targets_are_not_overlay_peers(monkeypatch):
    # the bench topology: one --seed builds the overlay and seeds the crawl
    seed = random.Random("sim-crawl:2").randrange(1 << 31)
    transport, truth = build_sim_overlay(1000, 20, unreachable_fraction=0.05,
                                         churn_failure_rate=0.002,
                                         rng_seed=seed)
    drawn = []

    def spy(prefix_bits, rng_seed):
        drawn.append(precompute_targets(prefix_bits, rng_seed))
        return drawn[-1]

    monkeypatch.setattr(crawler, "precompute_targets", spy)
    reachable = [p for p in truth.peers if p.node_id in truth.reachable_ids]
    crawl(transport, reachable[:3], CrawlConfig(prefix_bits=7, rng_seed=seed))
    [targets] = drawn
    assert len(targets) == 128
    assert not set(targets.values()) & truth.all_ids


def test_sim_crawl_asks_each_admitted_peer_once(monkeypatch):
    transport, truth = build_sim_overlay(120, 10, unreachable_fraction=0.1,
                                         churn_failure_rate=0.05, rng_seed=17)
    # every overlay id was keyed for churn when the transport was built
    monkeypatch.setattr(simulator, "hashlib", None)
    admitted, asked = [], []
    ping_pong, find_nodes = transport.ping_pong, transport.find_nodes

    def counting_ping(peer):
        answered = ping_pong(peer)
        if answered:
            admitted.append(peer.node_id)
        return answered

    def counting_find(peers, lanes):
        asked.extend((peer.node_id, len(lanes)) for peer in peers)
        return find_nodes(peers, lanes)

    transport.ping_pong, transport.find_nodes = counting_ping, counting_find
    seeds = [p for p in truth.peers if p.node_id in truth.reachable_ids][:3]
    report = crawl(transport, seeds, CrawlConfig(prefix_bits=7, rng_seed=17))
    assert sorted(asked) == sorted((node_id, 128) for node_id in admitted)
    assert set(admitted) == {p.node_id for p in report.known_peers}


def test_deterministic_reports_same_seed():
    first, _ = _crawl_overlay(50, 10, seed=13, churn_failure_rate=0.1)
    second, _ = _crawl_overlay(50, 10, seed=13, churn_failure_rate=0.1)
    assert first.to_json() == second.to_json()


def test_no_seeds_reachable():
    transport, truth = build_sim_overlay(10, 3, unreachable_fraction=1.0,
                                         rng_seed=1)
    with pytest.raises(NoSeedsReachable):
        crawl(transport, truth.peers[:2], CrawlConfig(prefix_bits=2))


class _CountingTransport:
    """Wraps a transport, recording the largest batch it is handed."""

    def __init__(self, inner):
        self._inner = inner
        self.peak = 0

    def run(self, tasks, targets):
        self.peak = max(self.peak, len(tasks))
        return self._inner.run(tasks, targets)


def test_in_flight_cap_respected():
    transport, truth = build_sim_overlay(80, 16, rng_seed=21)
    counting = _CountingTransport(transport)
    config = CrawlConfig(prefix_bits=5, max_in_flight=4, rng_seed=21)
    report = crawl(counting, truth.peers[:3], config)
    # the cap is reached and never passed
    assert counting.peak == 4
    assert len(report.known_peers) == 80


def test_crawl_talks_to_its_transport_through_run_alone():
    tree = ast.parse(Path(crawler.__file__).read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "transport"}
    # handed to no other call, so no getattr or partial reaches past run
    handed = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and any(
                  isinstance(arg, ast.Name) and arg.id == "transport"
                  for arg in node.args)]
    assert used == {"run"}
    assert handed == []
    [protocol] = [node for node in tree.body if isinstance(node, ast.ClassDef)
                  and node.name == "DiscoveryTransport"]
    assert [node.name for node in protocol.body
            if isinstance(node, ast.FunctionDef)] == ["run"]
    for transport_class in (SimTransport, UdpV4Transport):
        assert callable(vars(transport_class).get("run"))


def test_crawls_start_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError(f"a crawl started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    report, truth = _crawl_overlay(40, 8, seed=3, churn_failure_rate=0.05)
    assert {p.node_id for p in report.known_peers} <= truth.reachable_ids


def test_discovery_imports_no_thread_module():
    # every transport answers a batch on the calling thread
    package = Path(crawler.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("threading", "_thread",
                                                "concurrent")]
    assert found == []


def test_sim_crawl_hashes_each_target_once_and_no_peer(monkeypatch):
    scalar = keccak.keccak256
    calls = []

    def counting(data):
        calls.append(data)
        return scalar(data)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("chainlens")
                and getattr(module, "keccak256", None) is scalar):
            monkeypatch.setattr(module, "keccak256", counting)
    batch = crawler.keccak256_batch
    batches = []

    def counting_batch(messages):
        batches.append(list(messages))
        return batch(messages)

    # SimTransport.run hashes the targets, endpoint_stats the peer ids
    for module in (crawler, simulator):
        monkeypatch.setattr(module, "keccak256_batch", counting_batch)
    # the crawl draws its targets from a seed spawned from its own, so that
    # no target is a peer id that endpoint_stats hashes as well
    target_list = _crawl_targets(4, 10)
    transport, truth = build_sim_overlay(80, 10, rng_seed=9)
    node_hash.cache_clear()
    crawl(transport, truth.peers[:3], CrawlConfig(prefix_bits=4, rng_seed=10))
    assert calls == []
    assert node_hash.cache_info().misses == 0
    # all targets hashed in one batch, and in no other
    assert [b for b in batches if set(b) & set(target_list)] == [target_list]


def _slow_find(transport, peer, targets):
    """find_nodes' answer rebuilt from one find_node per target."""
    found, failed = {}, False
    for target in targets:
        try:
            for entry in transport.find_node(peer, target):
                found.setdefault(id(entry), entry)
        except QueryTimeout:
            failed = True
    return list(found.values()), failed


def _assert_batch_agrees(transport, peers, rng, targets, rows):
    """One `find_nodes` call over the targets at `rows`, asked of every
    peer in `peers` and of some of them twice, in shuffled order, agrees
    with `_slow_find` for each."""
    batch = peers + rng.choices(peers, k=len(peers) // 2 + 1)
    rng.shuffle(batch)
    lanes = digest_lanes(keccak.keccak256_batch(targets))
    chunk = tuple(targets[i] for i in rows)
    answers = transport.find_nodes(batch, lanes[rows])
    assert len(answers) == len(batch)
    slow = {}
    for peer, answer in zip(batch, answers):
        if peer not in slow:
            slow[peer] = _slow_find(transport, peer, chunk)
        assert answer == slow[peer]


def _assert_chunks_agree(transport, peers, rng, targets):
    for _ in range(3):
        rows = [rng.randrange(len(targets))
                for _ in range(rng.randint(1, 40))]
        _assert_batch_agrees(transport, peers, rng, targets, rows)


def test_find_nodes_matches_find_node_per_target():
    rng = random.Random(41)
    targets = [rng.randbytes(NODE_ID_LEN) for _ in range(60)]
    for seed, n_peers, degree, unreachable, churn, k in (
            (1, 40, 10, 0.2, 0.3, 4), (2, 30, 0, 0.1, 0.2, 16),
            (3, 25, 6, 0.0, 0.0, 16), (4, 50, 49, 0.3, 0.05, 60)):
        transport, truth = build_sim_overlay(
            n_peers, degree, unreachable_fraction=unreachable,
            churn_failure_rate=churn, rng_seed=seed, neighbor_k=k)
        outsider = PeerInfo(rng.randbytes(NODE_ID_LEN), "192.0.2.1", 1)
        _assert_chunks_agree(transport, truth.peers + [outsider], rng,
                             targets)
    assert transport.find_nodes([truth.peers[0]], digest_lanes([])) == \
        [([], False)]


def _settled_at(transport, peer, targets):
    """How many of `targets`, in order, `peer` must be asked before its
    answers hold every one of its table entries (None: they never do)."""
    table = {id(entry) for entry in transport._tables[peer.node_id][0]}
    seen = set()
    for i, target in enumerate(targets):
        try:
            seen |= {id(entry) for entry in transport.find_node(peer, target)}
        except QueryTimeout:
            continue
        if seen == table:
            return i + 1
    return None


def test_find_nodes_matches_find_node_on_targets_in_prefix_order():
    # a crawl's targets run in prefix order, so a table's last entry is
    # often first seen late; ranked in growing blocks, it is still found
    transport, truth = build_sim_overlay(200, 20, unreachable_fraction=0.05,
                                         churn_failure_rate=0.002,
                                         rng_seed=23)
    targets = _crawl_targets(7, 23)
    owners = [p for p in truth.peers if p.node_id in truth.reachable_ids]
    settled = [_settled_at(transport, peer, targets) for peer in owners]
    assert max(n for n in settled if n is not None) > 64
    outsider = PeerInfo(random.Random(23).randbytes(NODE_ID_LEN),
                        "192.0.2.1", 1)
    _assert_batch_agrees(transport, truth.peers + [outsider],
                         random.Random(24), targets, list(range(128)))


def test_find_nodes_ranks_to_the_end_past_an_entry_no_target_returns():
    # k = 1, tables of up to 15 entries and 30 targets: some entry is in
    # no target's top k, so its peer never settles and is ranked against
    # every target
    rng = random.Random(49)
    pool, tables = _twin_tables(rng, 20)
    transport = SimTransport(tables, frozenset(), 0.0, 1, b"unsettled")
    targets = [rng.randbytes(NODE_ID_LEN) for _ in range(30)]
    assert any(_settled_at(transport, owner, targets) is None
               for owner in pool[:20] if tables[owner.node_id])
    _assert_batch_agrees(transport, pool, rng, targets, list(range(30)))


def test_batch_find_memory_stays_within_its_chunks():
    # the bench topology, every table owner asked for 128 targets in one
    # call: the ranking temporaries are sized by a chunk, not by the batch
    seed = random.Random("sim-crawl:2").randrange(1 << 31)
    transport, truth = build_sim_overlay(1000, 20, unreachable_fraction=0.05,
                                         churn_failure_rate=0.002,
                                         rng_seed=seed)
    owners = [p for p in truth.peers if p.node_id in truth.reachable_ids]
    lanes = digest_lanes(keccak.keccak256_batch(_crawl_targets(7, seed)))
    tracemalloc.start()
    try:
        answers = transport.find_nodes(owners, lanes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(answers) == len(owners)
    assert peak <= 2_000_000


def test_overlay_ids_are_one_draw_per_peer():
    # one rng.bytes call for every id leaves the stream where one call per
    # peer leaves it: the ids and the table draws after them are the same
    for seed in (0, 1, 2, 17):
        transport, truth = build_sim_overlay(30, 5, rng_seed=seed)
        rng = np.random.default_rng(seed)
        ids = [rng.bytes(NODE_ID_LEN) for _ in range(30)]
        assert [p.node_id for p in truth.peers] == ids
        first_table = [ids[j + 1] for j in rng.choice(29, size=5,
                                                      replace=False)]
        assert [p.node_id for p in transport._tables[ids[0]][0]] == \
            sorted(first_table)


def _twin_tables(rng, n_tables):
    """Tables built directly, with twins: one node id at two endpoints."""
    pool = [PeerInfo(rng.randbytes(NODE_ID_LEN), f"198.51.100.{i}", 30303)
            for i in range(30)]
    tables = {}
    for owner in pool[:n_tables]:
        table = rng.sample(pool, rng.randint(0, 12))
        for _ in range(rng.randint(0, 3) if table else 0):
            twin = rng.choice(table)
            table.insert(rng.randrange(len(table) + 1),
                         PeerInfo(twin.node_id, "203.0.113.7",
                                  rng.randint(1, 65535)))
        tables[owner.node_id] = table
    return pool, tables


def _sharing_top_bits(bits):
    """keccak256_batch, but its digests agree in groups on their top `bits`
    bits, as `oracles.shared_top` sets them."""
    def batch(messages):
        return [oracles.shared_top(digest, bits // 8)
                for digest in keccak.keccak256_batch(messages)]
    return batch


def test_find_nodes_matches_find_node_on_built_tables(monkeypatch):
    rng = random.Random(43)
    targets = [rng.randbytes(NODE_ID_LEN) for _ in range(50)]
    pool, tables = _twin_tables(rng, 20)
    for churn, k, bits in ((0.0, 3, 0), (0.25, 8, 0), (0.1, 40, 0),
                           (0.1, 6, 64), (0.0, 40, 64), (0.2, 5, 192)):
        monkeypatch.setattr(simulator, "keccak256_batch",
                            _sharing_top_bits(bits))
        transport = SimTransport(tables, frozenset([pool[0].node_id]), churn,
                                 k, b"twins")
        _assert_chunks_agree(transport, pool, rng, targets)


def test_find_node_matches_bruteforce_on_built_tables(monkeypatch):
    # twins, empty tables, k past the end, and digests that agree on their
    # top 64 or 192 bits, against the oracle's own hashing and sort
    rng = random.Random(45)
    targets = [rng.randbytes(NODE_ID_LEN) for _ in range(8)]
    pool, tables = _twin_tables(rng, 20)
    assert not all(tables.values())
    for k, bits in ((3, 0), (40, 0), (6, 64), (40, 64), (5, 192)):
        monkeypatch.setattr(simulator, "keccak256_batch",
                            _sharing_top_bits(bits))
        transport = SimTransport(tables, frozenset(), 0.0, k, b"twins")
        digests = {p.node_id: oracles.shared_top(
            oracles.keccak256_oracle(p.node_id), bits // 8) for p in pool}
        for owner in pool[:20]:
            for target in targets:
                assert transport.find_node(owner, target) == \
                    oracles.brute_force_neighbors(
                        tables[owner.node_id], node_hash(target), k,
                        digests.__getitem__)


def test_tables_rank_by_the_overlay_wide_lanes(monkeypatch):
    # two ids in different tables share their top 64 bits: the overlay's
    # one array of ranking lanes is 2 lanes wide, each table alone 1
    rng = random.Random(47)
    pool = [PeerInfo(rng.randbytes(NODE_ID_LEN), f"198.51.100.{i}", 30303)
            for i in range(20)]
    shared_top = oracles.keccak256_oracle(pool[1].node_id)[:8]

    def digest_of(node_id):
        digest = oracles.keccak256_oracle(node_id)
        return shared_top + digest[8:] if node_id == pool[0].node_id \
            else digest

    tables = {pool[2].node_id: [pool[0]] + pool[4:12],
              pool[3].node_id: [pool[1]] + pool[12:20]}
    for table in tables.values():
        assert len(ranking_lanes(digest_lanes(
            [digest_of(p.node_id) for p in table]))) == 1
    assert len(ranking_lanes(digest_lanes([digest_of(p.node_id)
                                           for table in tables.values()
                                           for p in table]))) == 2
    monkeypatch.setattr(simulator, "keccak256_batch",
                        lambda messages: [digest_of(m) for m in messages])
    targets = [rng.randbytes(NODE_ID_LEN) for _ in range(30)]
    for k in (1, 4, 12):
        transport = SimTransport(tables, frozenset(), 0.0, k, b"wide")
        _assert_chunks_agree(transport, pool[2:4], rng, targets)
        for owner in pool[2:4]:
            for target in targets:
                assert transport.find_node(owner, target) == \
                    oracles.brute_force_neighbors(
                        tables[owner.node_id], node_hash(target), k,
                        digest_of)


def test_peer_without_table_never_answers():
    # an unreachable owner, an id that only appears in tables, and an id
    # outside the overlay: none owns a table, so none answers
    rng = random.Random(44)
    pool, tables = _twin_tables(rng, 5)
    transport = SimTransport(tables, frozenset([pool[0].node_id]), 0.0, 16,
                             b"tableless")
    targets = [rng.randbytes(NODE_ID_LEN) for _ in range(4)]
    lanes = digest_lanes(keccak.keccak256_batch(targets))
    outsider = PeerInfo(rng.randbytes(NODE_ID_LEN), "192.0.2.1", 1)
    for peer in (pool[0], pool[-1], outsider):
        assert not transport.ping_pong(peer)
        with pytest.raises(QueryTimeout):
            transport.find_node(peer, targets[0])
        assert transport.find_nodes([peer], lanes) == [([], True)]
    owner = next(p for p in pool[1:5] if tables[p.node_id])
    assert transport.ping_pong(owner)
    assert transport.find_node(owner, targets[0])


def test_endpoint_stats():
    report, truth = _crawl_overlay(40, 10, seed=30, prefix_bits=3)
    stats = endpoint_stats(report)
    assert stats.unique_node_ids == len(report.known_peers)
    assert stats.unique_ips <= len(report.known_peers)
    assert stats.ip_port_combos <= stats.unique_ips * stats.unique_ports
    assert sum(stats.prefix_histogram.values()) == len(report.known_peers)
    assert set(stats.prefix_histogram) == set(range(8))
    # histogram agrees with a direct recount
    recount = {p: 0 for p in range(8)}
    for peer in report.known_peers:
        recount[hash_prefix(node_hash(peer.node_id), 3)] += 1
    assert stats.prefix_histogram == recount


def test_private_range_counting():
    report = CrawlReport(prefix_bits=0)
    from chainlens.discovery.identity import PeerInfo
    ids = [bytes([i]) * 64 for i in range(4)]
    report.known_peers = [
        PeerInfo(ids[0], "10.0.0.1", 30303),
        PeerInfo(ids[1], "172.16.5.5", 30303),
        PeerInfo(ids[2], "192.168.1.1", 30303),
        PeerInfo(ids[3], "8.8.8.8", 30303),
    ]
    stats = endpoint_stats(report)
    assert stats.private_range_ips == 3


def test_report_json_shape():
    report, _ = _crawl_overlay(20, 6, seed=2, prefix_bits=2)
    stats = endpoint_stats(report)
    doc = json.loads(stats.to_json())
    assert doc["prefix_bits"] == 2
    assert len(doc["known_peers"]) == len(report.known_peers)
    assert doc["prefix_histogram"] == [[k, v] for k, v in
                                       sorted(stats.prefix_histogram.items())]


def test_load_topology(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({"n_peers": 9, "degree": 4, "churn": 0.1,
                                "seed": 3}))
    topo = load_topology(path)
    assert topo == {"n_peers": 9, "degree": 4, "unreachable_fraction": 0.0,
                    "churn_failure_rate": 0.1, "rng_seed": 3}


def test_overlay_validation():
    with pytest.raises(ValueError):
        build_sim_overlay(5, 10)
    with pytest.raises(ValueError):
        build_sim_overlay(0, 0)
    with pytest.raises(ValueError):
        build_sim_overlay(5, 2, unreachable_fraction=1.5)
    with pytest.raises(ValueError):
        build_sim_overlay(5, 2, neighbor_k=0)
