"""Seed harvesting and port probing."""

import json
import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens.bootstrap import (ConnectResult, LiveProber, ProbeOutcome,
                                 ResolveErrorKind, ResolveFailure,
                                 RoundRobinResolver, ScriptedProber,
                                 ScriptedResolver, SeedSource,
                                 harvest_seeds, load_seed_source,
                                 probe_ports)


def ip(n: int) -> str:
    return f"10.{(n >> 16) & 255}.{(n >> 8) & 255}.{n & 255}"


def test_seed_source_port_validation():
    with pytest.raises(ValueError):
        SeedSource(port=0)
    with pytest.raises(ValueError):
        SeedSource(port=70000)
    SeedSource(port=8333)


def test_load_seed_source(tmp_path):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({"port": 8333,
                                "hardcoded": ["1.2.3.4"],
                                "dns": ["seed.example.org"]}))
    source = load_seed_source(path)
    assert source.port == 8333
    assert source.hardcoded_ips == ["1.2.3.4"]
    assert source.dns_names == ["seed.example.org"]


@pytest.mark.parametrize("raw", [
    [8333], {"hardcoded": []}, {"port": 8333, "hardcoded": "1.2.3.4"},
    {"port": 8333, "dns": [1]}, {"port": 8333, "dns": None},
], ids=["not an object", "no port", "hardcoded not a list",
        "dns entry not a string", "dns null"])
def test_load_seed_source_refuses_bad_shapes(tmp_path, raw):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        load_seed_source(path)


@pytest.mark.parametrize("script", [
    ["seed.a"], {"seed.a": "NXDOMAIN"}, {"seed.a": []},
    {"seed.a": [["1.1.1.1"], "BOGUS"]}, {"seed.a": [[1]]},
    {"seed.a": [{"ip": "1.1.1.1"}]},
], ids=["not an object", "bare string", "no rounds", "unknown error kind",
        "non-string ip", "object round"])
def test_scripted_resolver_refuses_bad_scripts(script):
    with pytest.raises(ValueError):
        ScriptedResolver(script)


def test_scripted_resolver_repeats_last_round():
    resolver = ScriptedResolver({"seed.a": [["1.1.1.1"], ["2.2.2.2"]]})
    assert resolver.resolve_a("seed.a") == ["1.1.1.1"]
    assert resolver.resolve_a("seed.a") == ["2.2.2.2"]
    assert resolver.resolve_a("seed.a") == ["2.2.2.2"]
    with pytest.raises(ResolveFailure) as excinfo:
        resolver.resolve_a("seed.unknown")
    assert excinfo.value.kind is ResolveErrorKind.NXDOMAIN


def test_scripted_resolver_error_rounds():
    resolver = ScriptedResolver({"seed.a": ["SERVFAIL", ["9.9.9.9"]]})
    with pytest.raises(ResolveFailure) as excinfo:
        resolver.resolve_a("seed.a")
    assert excinfo.value.kind is ResolveErrorKind.SERVFAIL
    assert resolver.resolve_a("seed.a") == ["9.9.9.9"]


def test_harvest_growth_curve():
    # 6-address pool revealed 2 per round through one name: growth 2/2/2
    # then flat once the pool is exhausted
    pool = [ip(i) for i in range(6)]
    resolver = RoundRobinResolver(pool, per_round=2)
    source = SeedSource(port=8333, dns_names=["seed.a"],
                        hardcoded_ips=["192.0.2.77"])
    harvest = harvest_seeds(resolver, source, rounds=5)
    assert harvest.rounds == [(0, 2, 2), (1, 2, 4), (2, 2, 6), (3, 0, 6),
                              (4, 0, 6)]
    assert harvest.all_ips == set(pool) | {"192.0.2.77"}
    assert harvest.hardcoded_ips == ["192.0.2.77"]
    # hardcoded entries never inflate the growth numbers
    assert harvest.rounds[-1][2] == 6


def test_harvest_records_failures_as_data():
    resolver = ScriptedResolver({
        "seed.a": [["1.1.1.1", "2.2.2.2"], "TIMEOUT", ["1.1.1.1"]],
        "seed.b": ["NXDOMAIN"],
    })
    source = SeedSource(port=53, dns_names=["seed.a", "seed.b"])
    harvest = harvest_seeds(resolver, source, rounds=3)
    assert harvest.per_name_results["seed.a"] == [
        ["1.1.1.1", "2.2.2.2"], "TIMEOUT", ["1.1.1.1"]]
    assert harvest.per_name_results["seed.b"] == ["NXDOMAIN"] * 3
    assert harvest.rounds == [(0, 2, 2), (1, 0, 2), (2, 0, 2)]
    doc = json.loads(harvest.to_json())
    assert doc["all_ips"] == ["1.1.1.1", "2.2.2.2"]
    assert doc["rounds"] == [[0, 2, 2], [1, 0, 2], [2, 0, 2]]


def test_harvest_rejects_zero_rounds():
    source = SeedSource(port=53, dns_names=["seed.a"])
    with pytest.raises(ValueError):
        harvest_seeds(ScriptedResolver({}), source, rounds=0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_cumulative_counts_never_decrease(seed):
    rng = random.Random(seed)
    pool = [ip(i) for i in range(rng.randint(1, 30))]
    names = [f"seed.{chr(97 + i)}" for i in range(rng.randint(1, 4))]
    script = {}
    for name in names:
        rounds = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.3:
                rounds.append(rng.choice(["NXDOMAIN", "SERVFAIL", "TIMEOUT"]))
            else:
                rounds.append(rng.sample(pool, rng.randint(0, len(pool))))
        script[name] = rounds
    source = SeedSource(port=1024, dns_names=names)
    harvest = harvest_seeds(ScriptedResolver(script), source,
                            rounds=rng.randint(1, 8))
    cumulative = [total for _, _, total in harvest.rounds]
    assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
    assert all(new == cumulative[i] - (cumulative[i - 1] if i else 0)
               for i, (_, new, _) in enumerate(harvest.rounds))
    assert len(harvest.all_ips) == cumulative[-1]


def test_probe_ports_summary():
    script = {"1.1.1.1": ConnectResult.ACCEPTED,
              "2.2.2.2": ConnectResult.REFUSED,
              "3.3.3.3": ConnectResult.TIMED_OUT,
              "4.4.4.4": ConnectResult.ACCEPTED}
    prober = ScriptedProber(script)
    scan = probe_ports(prober, ["4.4.4.4", "1.1.1.1", "2.2.2.2", "3.3.3.3",
                                "1.1.1.1"], 8333)
    assert scan.outcomes == {"1.1.1.1": ProbeOutcome.OPEN,
                             "2.2.2.2": ProbeOutcome.CLOSED,
                             "3.3.3.3": ProbeOutcome.FILTERED,
                             "4.4.4.4": ProbeOutcome.OPEN}
    assert (scan.summary.open, scan.summary.filtered,
            scan.summary.closed) == (2, 1, 1)
    assert scan.summary.percentages() == (50.0, 25.0, 25.0)
    doc = json.loads(scan.to_json())
    assert doc["summary"]["pct_open"] == 50.0
    assert doc["outcomes"]["3.3.3.3"] == "filtered"


def test_probe_ports_empty_and_unknown_default():
    scan = probe_ports(ScriptedProber({}), [], 8333)
    assert scan.outcomes == {} and scan.summary.total == 0
    assert scan.summary.percentages() == (0.0, 0.0, 0.0)
    # unscripted endpoints fall back to the prober default (timeout)
    scan = probe_ports(ScriptedProber({}), ["8.8.8.8"], 8333)
    assert scan.outcomes["8.8.8.8"] is ProbeOutcome.FILTERED


def test_probe_ports_parallel_matches_serial():
    ips = [ip(i) for i in range(50)]
    results = list(ConnectResult)
    prober = ScriptedProber({address: results[i % len(results)]
                             for i, address in enumerate(ips)})
    serial = probe_ports(prober, ips, 8333, workers=1)
    parallel = probe_ports(prober, ips, 8333, workers=8)
    assert serial.outcomes == parallel.outcomes
    assert serial.summary == parallel.summary
    assert (serial.summary.open, serial.summary.closed,
            serial.summary.filtered) == (17, 17, 16)


def test_live_prober_on_loopback():
    with socket.socket() as listening:
        listening.bind(("127.0.0.1", 0))
        listening.listen()
        port = listening.getsockname()[1]
        assert LiveProber(timeout=2.0).connect("127.0.0.1", port) \
            is ConnectResult.ACCEPTED
    # the port is closed once its socket is
    assert LiveProber(timeout=2.0).connect("127.0.0.1", port) \
        is ConnectResult.REFUSED
