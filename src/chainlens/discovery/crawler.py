"""Bounded-concurrency discovery crawl over a pluggable transport.

The crawl keeps a FIFO work queue: newly admitted peers are queried for
every precomputed target, and every previously unseen peer returned by a
query is ping-ponged exactly once before admission. At most max_in_flight
tasks are submitted at once; the coordinating thread takes their results
in submission order and does all bookkeeping, so no claim depends on
thread timing. A live crawl runs transport calls on up to 32 worker
threads, one chunk of targets per task, and sends one find_node per
target. A simulated one (SimTransport, in memory and CPU-bound) runs
inline; it hashes all of the crawl's targets in one Keccak batch up front
and answers each admitted peer's whole target list with one find_nodes
call. Either way the final peer set is the closure of the seed set.

The targets are drawn from a child of the configured seed, not the seed
itself, so a simulated overlay built from the same seed shares no ids with
them.
"""

from __future__ import annotations

import ipaddress
import json
import logging
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Protocol

import numpy as np

from ..errors import NoSeedsReachable
from ..keccak import keccak256_batch
from ..model import int_field, number_field, read_json
from .identity import PeerInfo, digest_lanes, hash_prefix, precompute_targets
from .simulator import SimTransport

log = logging.getLogger(__name__)

_PRIVATE_RANGES = (
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
)
# targets per pooled worker task; pure batching, no semantic effect. A --sim
# crawl sends each peer's whole target list in one find_nodes call
_FIND_CHUNK = 32
_MAX_WORKERS = 32


class DiscoveryTransport(Protocol):
    def ping_pong(self, peer: PeerInfo) -> bool: ...

    def find_node(self, peer: PeerInfo, target: bytes) -> list[PeerInfo]: ...


@dataclass
class CrawlConfig:
    prefix_bits: int = 13
    max_in_flight: int = 500
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_bits <= 32:
            raise ValueError("prefix_bits must be in [0, 32]")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass
class CrawlReport:
    prefix_bits: int
    known_peers: list[PeerInfo] = field(default_factory=list)
    failed_endpoints: list[tuple[str, int, str]] = field(default_factory=list)
    unique_node_ids: int = 0
    unique_ips: int = 0
    unique_ports: int = 0
    ip_port_combos: int = 0
    private_range_ips: int = 0
    node_ids_per_ip: list[tuple[str, int]] = field(default_factory=list)
    prefix_histogram: dict[int, int] = field(default_factory=dict)

    def to_json(self, countries: list[tuple[str, int]] | None = None) -> str:
        """The report as JSON, with (country, count) rows when given."""
        doc = {
            "prefix_bits": self.prefix_bits,
            "known_peers": [{"node_id": p.node_id.hex(), "ip": p.ip,
                             "port": p.port} for p in self.known_peers],
            "failed_endpoints": [list(f) for f in self.failed_endpoints],
            "unique_node_ids": self.unique_node_ids,
            "unique_ips": self.unique_ips,
            "unique_ports": self.unique_ports,
            "ip_port_combos": self.ip_port_combos,
            "private_range_ips": self.private_range_ips,
            "node_ids_per_ip": [list(i) for i in self.node_ids_per_ip],
            "prefix_histogram": [[k, v] for k, v in
                                 sorted(self.prefix_histogram.items())],
        }
        if countries is not None:
            doc["countries"] = [list(row) for row in countries]
        return json.dumps(doc, sort_keys=True, indent=2)


def _ping(transport: DiscoveryTransport, peer: PeerInfo) -> bool:
    try:
        return bool(transport.ping_pong(peer))
    except Exception as exc:  # noqa: BLE001 - transport faults are data
        log.debug("ping_pong raised: %s", exc)
        return False


def _find_each(transport: DiscoveryTransport, peer: PeerInfo,
               targets: tuple[bytes, ...]) -> tuple[list[PeerInfo], bool]:
    """One find_node per target: the peers returned, and whether any failed."""
    found: list[PeerInfo] = []
    failed = False
    for target in targets:
        try:
            found.extend(transport.find_node(peer, target))
        except Exception as exc:  # noqa: BLE001
            log.debug("find_node raised: %s", exc)
            failed = True
    return found, failed


class _InlineExecutor:
    """Stands in for the thread pool: runs each task when it is submitted."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future


def crawl(transport: DiscoveryTransport, seeds: list[PeerInfo],
          config: CrawlConfig) -> CrawlReport:
    """Run the full discovery crawl and return the finished report."""
    if not seeds:
        raise NoSeedsReachable()
    target_seed = (None if config.rng_seed is None
                   else np.random.SeedSequence(config.rng_seed).spawn(1)[0])
    targets = precompute_targets(config.prefix_bits, target_seed)
    target_list = [targets[p] for p in sorted(targets)]

    known: dict[bytes, PeerInfo] = {}
    claimed: set[bytes] = set()
    failed: set[tuple[str, int, str]] = set()
    work: deque[tuple] = deque()
    for seed in seeds:
        if seed.node_id not in claimed:
            claimed.add(seed.node_id)
            work.append(("ping", seed))

    if isinstance(transport, SimTransport):
        # in memory and CPU-bound: worker threads would only trade the GIL.
        # Every target is hashed here, in one batch, and one find_nodes call
        # answers them all for a peer
        runner = nullcontext(_InlineExecutor())
        find = transport.find_nodes
        find_args = [(digest_lanes(keccak256_batch(target_list)),)]
    else:
        runner = ThreadPoolExecutor(
            max_workers=min(config.max_in_flight, _MAX_WORKERS))
        find = partial(_find_each, transport)
        find_args = [(tuple(target_list[i:i + _FIND_CHUNK]),)
                     for i in range(0, len(target_list), _FIND_CHUNK)]
    ping = partial(_ping, transport)
    # submitted tasks, oldest first; each result is taken from the head
    window: deque[tuple[tuple, Future]] = deque()
    with runner as pool:
        while work or window:
            while work and len(window) < config.max_in_flight:
                task = work.popleft()
                window.append((task, pool.submit(
                    ping if task[0] == "ping" else find, *task[1:])))
            task, future = window.popleft()
            outcome = future.result()
            peer = task[1]
            if task[0] == "ping":
                if outcome:
                    known[peer.node_id] = peer
                    for args in find_args:
                        work.append(("find", peer, *args))
                else:
                    failed.add((peer.ip, peer.port, "ping_pong"))
            else:
                found, find_failed = outcome
                if find_failed:
                    failed.add((peer.ip, peer.port, "find_node"))
                for candidate in found:
                    if candidate.node_id not in claimed:
                        claimed.add(candidate.node_id)
                        work.append(("ping", candidate))
    if not known:
        raise NoSeedsReachable()
    report = CrawlReport(
        prefix_bits=config.prefix_bits,
        known_peers=sorted(known.values(), key=lambda p: p.node_id),
        failed_endpoints=sorted(failed))
    return endpoint_stats(report)


def endpoint_stats(report: CrawlReport) -> CrawlReport:
    """Fill the derived statistics fields from report.known_peers."""
    peers = report.known_peers
    ips = {p.ip for p in peers}
    report.unique_node_ids = len({p.node_id for p in peers})
    report.unique_ips = len(ips)
    report.unique_ports = len({p.port for p in peers})
    report.ip_port_combos = len({(p.ip, p.port) for p in peers})
    report.private_range_ips = sum(1 for ip in ips if _is_private(ip))
    per_ip = Counter(p.ip for p in peers)
    report.node_ids_per_ip = sorted(per_ip.items(),
                                    key=lambda kv: (-kv[1], kv[0]))
    histogram = {p: 0 for p in range(1 << report.prefix_bits)}
    for digest in keccak256_batch([p.node_id for p in peers]):
        histogram[hash_prefix(digest, report.prefix_bits)] += 1
    report.prefix_histogram = histogram
    return report


def _is_private(ip: str) -> bool:
    try:
        addr = ipaddress.ip_address(ip)
    except ValueError:
        return False
    if addr.version != 4:
        return False
    return any(addr in net for net in _PRIVATE_RANGES)


def load_topology(path: str | Path) -> dict:
    """`build_sim_overlay` arguments from a topology JSON file.

    Raises ValueError, naming the fault, unless the file holds a JSON object
    whose fields are of the types read below.
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("topology must be a JSON object")
    return {
        "n_peers": int_field(raw, "n_peers"),
        "degree": int_field(raw, "degree", minimum=0),
        "unreachable_fraction": number_field(raw, "unreachable_fraction", 0.0),
        "churn_failure_rate": number_field(raw, "churn", 0.0),
        "rng_seed": int_field(raw, "seed", default=None),
    }
