"""Bootstrap-quality measurement: DNS seed harvesting and port probing.

Resolver and Prober are small interfaces. Each has a scripted (exact
fixtures) and a live (real DNS / TCP) implementation, and a round-robin
resolver cycles through a fixed pool.
The live ones exist for actual measurements and use conservative
single-attempt probes. LiveProber is tested over loopback; LiveResolver
is not tested, since any lookup it makes may leave the host.
"""

from __future__ import annotations

import enum
import json
import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from .model import int_field, is_str_list, read_json, str_list_field


class ResolveErrorKind(str, enum.Enum):
    NXDOMAIN = "NXDOMAIN"
    SERVFAIL = "SERVFAIL"
    TIMEOUT = "TIMEOUT"


class ResolveFailure(Exception):
    def __init__(self, kind: ResolveErrorKind):
        self.kind = kind
        super().__init__(kind.value)


class ConnectResult(str, enum.Enum):
    ACCEPTED = "accepted"
    REFUSED = "refused"
    TIMED_OUT = "timed_out"


class ProbeOutcome(str, enum.Enum):
    OPEN = "open"        # connection accepted
    CLOSED = "closed"    # actively refused
    FILTERED = "filtered"  # silent timeout, typically a firewall drop

_CONNECT_TO_OUTCOME = {
    ConnectResult.ACCEPTED: ProbeOutcome.OPEN,
    ConnectResult.REFUSED: ProbeOutcome.CLOSED,
    ConnectResult.TIMED_OUT: ProbeOutcome.FILTERED,
}


@dataclass
class SeedSource:
    port: int
    hardcoded_ips: list[str] = field(default_factory=list)
    dns_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")


def load_seed_source(path: str | Path) -> SeedSource:
    """Read `{"port":N,"hardcoded":[..],"dns":[..]}` from a JSON file.

    Raises ValueError, naming the fault, for any other shape.
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("seed source must be a JSON object with a 'port'")
    return SeedSource(port=int_field(raw, "port"),
                      hardcoded_ips=str_list_field(raw, "hardcoded", []),
                      dns_names=str_list_field(raw, "dns", []))


class Resolver(Protocol):
    def resolve_a(self, name: str) -> list[str]: ...


class Prober(Protocol):
    def connect(self, ip: str, port: int) -> ConnectResult: ...


# -- resolver implementations ---------------------------------------------


class ScriptedResolver:
    """Answers from a per-name list of per-round results.

    A result is either a list of IPs or an error kind string; the last
    scripted round repeats once the script is exhausted. Any other script
    shape raises ValueError.
    """

    def __init__(self, script: dict[str, list[list[str] | str]]):
        if not isinstance(script, dict):
            raise ValueError("resolver script must map names to rounds")
        kinds = [kind.value for kind in ResolveErrorKind]
        for name, rounds in script.items():
            if not (isinstance(rounds, list) and rounds and all(
                    is_str_list(r) or r in kinds for r in rounds)):
                raise ValueError(
                    f"{name!r}: rounds must be a non-empty list of IP lists "
                    f"or error kinds ({', '.join(kinds)})")
        self._script = script
        self._calls: dict[str, int] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedResolver":
        return cls(read_json(path))

    def resolve_a(self, name: str) -> list[str]:
        rounds = self._script.get(name)
        if rounds is None:
            raise ResolveFailure(ResolveErrorKind.NXDOMAIN)
        index = min(self._calls.get(name, 0), len(rounds) - 1)
        self._calls[name] = self._calls.get(name, 0) + 1
        result = rounds[index]
        if isinstance(result, str):
            raise ResolveFailure(ResolveErrorKind(result))
        return list(result)


class RoundRobinResolver:
    """Cycles through an IP pool, revealing `per_round` fresh entries per call."""

    def __init__(self, pool: Sequence[str], per_round: int):
        self._pool = list(pool)
        self._per_round = per_round
        self._cursor = 0

    def resolve_a(self, name: str) -> list[str]:
        picks = [self._pool[(self._cursor + i) % len(self._pool)]
                 for i in range(self._per_round)]
        self._cursor = (self._cursor + self._per_round) % len(self._pool)
        return picks


class LiveResolver:
    """Real A-record lookups through the OS resolver."""

    def resolve_a(self, name: str) -> list[str]:
        try:
            infos = socket.getaddrinfo(name, None, socket.AF_INET,
                                       socket.SOCK_STREAM)
        except socket.gaierror as exc:
            if exc.errno == socket.EAI_NONAME:
                raise ResolveFailure(ResolveErrorKind.NXDOMAIN)
            if exc.errno == socket.EAI_AGAIN:
                raise ResolveFailure(ResolveErrorKind.TIMEOUT)
            raise ResolveFailure(ResolveErrorKind.SERVFAIL)
        seen: list[str] = []
        for info in infos:
            ip = info[4][0]
            if ip not in seen:
                seen.append(ip)
        return seen


# -- prober implementations -------------------------------------------------


class ScriptedProber:
    """Outcomes from an ip -> connect result map; others get `default`."""

    def __init__(self, script: dict[str, ConnectResult | str],
                 default: ConnectResult = ConnectResult.TIMED_OUT):
        if not isinstance(script, dict):
            raise ValueError("prober script must map addresses to outcomes")
        self._script = {ip: ConnectResult(result)
                        for ip, result in script.items()}
        self._default = default

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedProber":
        return cls(read_json(path))

    def connect(self, ip: str, port: int) -> ConnectResult:
        return self._script.get(ip, self._default)


class LiveProber:
    """Single full TCP connect per endpoint; refusal means RST/ECONNREFUSED."""

    def __init__(self, timeout: float = 5.0):
        self.timeout = timeout

    def connect(self, ip: str, port: int) -> ConnectResult:
        try:
            with socket.create_connection((ip, port), timeout=self.timeout):
                return ConnectResult.ACCEPTED
        except ConnectionRefusedError:
            return ConnectResult.REFUSED
        except OSError:
            return ConnectResult.TIMED_OUT


# -- operations --------------------------------------------------------------


@dataclass
class SeedHarvest:
    rounds: list[tuple[int, int, int]] = field(default_factory=list)
    per_name_results: dict[str, list[list[str] | str]] = field(default_factory=dict)
    all_ips: set[str] = field(default_factory=set)
    hardcoded_ips: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "rounds": [list(r) for r in self.rounds],
            "per_name_results": self.per_name_results,
            "all_ips": sorted(self.all_ips),
            "hardcoded_ips": list(self.hardcoded_ips),
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def harvest_seeds(resolver: Resolver, source: SeedSource,
                  rounds: int) -> SeedHarvest:
    """Resolve every seed name each round and track cumulative growth.

    Resolution failures are data, recorded per name per round; hardcoded
    IPs join the final address set but not the per-round growth counts.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    harvest = SeedHarvest(hardcoded_ips=list(source.hardcoded_ips))
    harvest.per_name_results = {name: [] for name in source.dns_names}
    discovered: set[str] = set()
    for round_index in range(rounds):
        before = len(discovered)
        for name in source.dns_names:
            try:
                ips = resolver.resolve_a(name)
            except ResolveFailure as failure:
                harvest.per_name_results[name].append(failure.kind.value)
                continue
            harvest.per_name_results[name].append(sorted(ips))
            discovered.update(ips)
        harvest.rounds.append((round_index, len(discovered) - before,
                               len(discovered)))
    harvest.all_ips = discovered | set(source.hardcoded_ips)
    return harvest


@dataclass
class PortSummary:
    open: int = 0
    filtered: int = 0
    closed: int = 0

    @property
    def total(self) -> int:
        return self.open + self.filtered + self.closed

    def percentages(self) -> tuple[float, float, float]:
        if self.total == 0:
            return (0.0, 0.0, 0.0)
        return tuple(round(100.0 * n / self.total, 1)
                     for n in (self.open, self.filtered, self.closed))


@dataclass
class PortScan:
    outcomes: dict[str, ProbeOutcome] = field(default_factory=dict)
    summary: PortSummary = field(default_factory=PortSummary)

    def to_json(self) -> str:
        pct_open, pct_filtered, pct_closed = self.summary.percentages()
        doc = {
            "outcomes": {ip: outcome.value
                         for ip, outcome in sorted(self.outcomes.items())},
            "summary": {"open": self.summary.open,
                        "filtered": self.summary.filtered,
                        "closed": self.summary.closed,
                        "pct_open": pct_open, "pct_filtered": pct_filtered,
                        "pct_closed": pct_closed},
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def probe_ports(prober: Prober, ips: Iterable[str], port: int,
                workers: int = 1) -> PortScan:
    """Classify each address's port as open, filtered, or closed."""
    ordered = sorted(set(ips))
    scan = PortScan()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda ip: prober.connect(ip, port), ordered))
    for ip, result in zip(ordered, results):
        outcome = _CONNECT_TO_OUTCOME[ConnectResult(result)]
        scan.outcomes[ip] = outcome
        if outcome is ProbeOutcome.OPEN:
            scan.summary.open += 1
        elif outcome is ProbeOutcome.CLOSED:
            scan.summary.closed += 1
        else:
            scan.summary.filtered += 1
    return scan
