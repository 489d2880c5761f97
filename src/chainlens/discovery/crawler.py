"""Bounded-concurrency discovery crawl over a pluggable transport.

The crawl keeps a FIFO work queue: newly admitted peers are queried for
every precomputed target, and every previously unseen peer returned by a
query is ping-ponged exactly once before admission. The crawl takes up to
max_in_flight tasks from the head of the queue, has the transport answer
them as one batch (`DiscoveryTransport.run`), and handles the results in
queue order, so no claim depends on timing. Each transport owns its own
concurrency, and the final peer set is the closure of the seed set.

The targets are drawn from a child of the configured seed, not the seed
itself, so a simulated overlay built from the same seed shares no ids with
them.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from ..errors import NoSeedsReachable
from ..model import int_field, number_field, read_json
from .identity import PeerInfo, hash_prefix, node_hash, precompute_targets

class DiscoveryTransport(Protocol):
    """A transport answers a crawl's batch of tasks with `run`."""

    def run(self, tasks: list[tuple[str, PeerInfo]],
            targets: list[bytes]) -> list:
        """Answer every task, each ("ping", peer) or ("find", peer), and
        return their results in task order: a bool for a ping, and for a
        find the pair (peers found, whether any query failed) over every
        target. Raise for no fault of one peer."""


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

    while work:
        batch = [work.popleft()
                 for _ in range(min(len(work), config.max_in_flight))]
        results = transport.run(batch, target_list)
        for (kind, peer), outcome in zip(batch, results, strict=True):
            if kind == "ping":
                if outcome:
                    known[peer.node_id] = peer
                    work.append(("find", peer))
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
    # a sim crawl's peers were memoised when its transport was built
    for digest in node_hash.many([p.node_id for p in peers]):
        histogram[hash_prefix(digest, report.prefix_bits)] += 1
    report.prefix_histogram = histogram
    return report


def _is_private(ip: str) -> bool:
    """Whether `ip` is an IPv4 address in 10/8, 172.16/12 or 192.168/16.

    An IPv4 address is four ASCII decimal octets of at most 255, none with
    a leading zero: the texts `ipaddress.IPv4Address` accepts. Any other
    text, IPv6 included, is not private.
    """
    parts = ip.split(".")
    if len(parts) == 4 and all(
            part.isascii() and part.isdigit() and len(part) <= 3
            and (part[0] != "0" or part == "0") for part in parts):
        a, b, c, d = (int(part) for part in parts)
        if max(a, b, c, d) <= 255:
            return a == 10 or (a == 172 and 16 <= b <= 31) or \
                (a == 192 and b == 168)
    return False


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
