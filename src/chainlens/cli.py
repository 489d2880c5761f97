"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; report data goes to stdout or the --out file, and is byte-stable
across runs on the same store.

At load this module imports only click and the data model, so `--version`
and `--help` start without the rest of chainlens. Each command imports its
own analysis, the store and the report writers in its body, and an option
whose value a deferred module reads names its loader as "module:attribute"
(see `LoadedFile`); a command that hashes thus loads numpy, and one that
reads a store loads sqlite3, only when it runs.
"""

from __future__ import annotations

import os
import sys
from contextlib import closing
from functools import partial
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

import click
from click.core import ParameterSource

from . import __version__
from .errors import ChainLensError
from .eth import DEFAULT_PROBE_CALLER
from .model import (ChainKind, bool_field, normalize_hex, read_json,
                    read_lines, str_field)

if TYPE_CHECKING:
    from .store import Store

_CHAIN_CHOICE = click.Choice([kind.value for kind in ChainKind])
# Top-level commands whose analyses honour --cutoff (every `report`
# subcommand does); the rest refuse the flag rather than ignore it.
_CUTOFF_COMMANDS = ("summarize", "report")


class AppState:
    """Per-invocation settings shared by every subcommand."""

    def __init__(self, db_path: str, out: str | None, fmt: str,
                 cutoff: int | None, stamp: bool, argv: list[str]):
        self.db_path = db_path
        self.out = out
        self.fmt = fmt
        self.cutoff = cutoff
        self.stamp = stamp
        self.argv = argv

    def open_store(self) -> Store:
        from .store import Store
        return Store(self.db_path)

    def cutoff_height(self, store: Store, chain: ChainKind) -> int | None:
        if self.cutoff is None:
            return None
        return store.apply_cutoff(chain, self.cutoff)

    def emit_rows(self, header, rows) -> None:
        from .report import emit_rows
        emit_rows(header, rows, fmt=self.fmt, out=self.out)
        self._maybe_stamp()

    def emit_text(self, text: str) -> None:
        from .report import emit
        emit(text, self.out)
        self._maybe_stamp()

    def _maybe_stamp(self) -> None:
        if self.stamp:
            from .report import write_stamp
            write_stamp(self.out, self.argv)


pass_state = click.make_pass_decorator(AppState)


class LoadedFile(click.Path):
    """An existing file option whose value is `load(path)`.

    `load` is a callable or names one as "module:attribute", the module
    relative to this package; a named loader is imported only when the
    option converts, so declaring the option loads nothing. A ValueError,
    KeyError or TypeError from the loader is a usage error naming the
    option; a ChainLensError stays a data error.
    """

    def __init__(self, load: Callable[[str], Any] | str):
        super().__init__(exists=True, dir_okay=False)
        self.load = load

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        load = self.load
        if isinstance(load, str):
            module, _, attribute = load.partition(":")
            load = import_module(module, __package__)
            for name in attribute.split("."):
                load = getattr(load, name)
        try:
            return load(path)
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(str(exc), param, ctx)


@click.group()
@click.version_option(__version__, prog_name="chainlens")
@click.option("--db", "db_path", default="chainlens.db", show_default=True,
              help="SQLite ledger store path.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write report data here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--cutoff", default=None, metavar="TIMESTAMP",
              help="RFC 3339 timestamp (or epoch seconds); summarize and "
                   "report read the chain up to the highest block whose "
                   "time is strictly before it. Other commands refuse it.")
@click.option("--stamp", is_flag=True,
              help="Write run metadata to OUT.stamp.json (requires --out).")
@click.pass_context
def cli(ctx: click.Context, db_path: str, out: str | None, fmt: str,
        cutoff: str | None, stamp: bool) -> None:
    """Blockchain ledger forensics and peer-discovery measurement."""
    if cutoff is not None and ctx.invoked_subcommand not in _CUTOFF_COMMANDS:
        raise click.UsageError(
            f"--cutoff is honoured only by {' and '.join(_CUTOFF_COMMANDS)}, "
            f"not by {ctx.invoked_subcommand}")
    if stamp and out is None:
        raise click.UsageError("--stamp requires --out")
    moment = None
    if cutoff is not None:  # refused before any command opens its store
        from .store import parse_rfc3339
        try:
            moment = parse_rfc3339(cutoff)
        except ValueError as exc:
            raise click.BadParameter(f"unparseable --cutoff {cutoff!r}: {exc}")
    if (ctx.invoked_subcommand == "crawl" and fmt == "csv"
            and ctx.get_parameter_source("fmt") is not ParameterSource.DEFAULT):
        raise click.UsageError("crawl writes JSON only; --format csv is refused")
    argv = sys.argv[1:] if sys.argv else []
    ctx.obj = AppState(db_path, out, fmt, moment, stamp, argv)


# -- ingestion and chain-agnostic reports -------------------------------------

@cli.command("ingest")
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option("--chain", required=True, type=_CHAIN_CHOICE)
@click.option("--strict", is_flag=True,
              help="Abort on the first malformed line instead of skipping.")
@pass_state
def cmd_ingest(state: AppState, source: str, chain: str, strict: bool) -> None:
    """Load an NDJSON block/transaction file into the store."""
    from .store import ingest_blocks
    with state.open_store() as store:
        summary = ingest_blocks(source, ChainKind(chain), store, strict=strict)
    for rejected in summary.rejected:
        click.echo(f"rejected {rejected.error}", err=True)
    state.emit_rows(("blocks", "txs", "rejected"),
                    [(summary.blocks_loaded, summary.txs_loaded,
                      summary.rejected_count)])


@cli.command("summarize")
@click.option("--chain", required=True, type=_CHAIN_CHOICE)
@pass_state
def cmd_summarize(state: AppState, chain: str) -> None:
    """One-row chain overview: time range, height, tx count and volume."""
    kind = ChainKind(chain)
    with state.open_store() as store:
        height = state.cutoff_height(store, kind)
        summary = store.summarize_chain(kind, cutoff_height=height)
    state.emit_rows(
        ("chain", "first_block_time", "cutoff_time", "cutoff_height",
         "tx_count", "tx_volume"),
        [(summary.chain.value, summary.first_block_time, summary.cutoff_time,
          summary.cutoff_height, summary.tx_count, summary.tx_volume)])


@cli.group("report")
def report_group() -> None:
    """Cross-chain ledger reports."""


@report_group.command("tx-monthly")
@click.option("--chain", required=True, type=_CHAIN_CHOICE)
@pass_state
def cmd_tx_monthly(state: AppState, chain: str) -> None:
    """Transactions per UTC month, zero-filled, ascending."""
    from .store import monthly_tx_counts
    kind = ChainKind(chain)
    with state.open_store() as store:
        height = state.cutoff_height(store, kind)
        rows = monthly_tx_counts(store, kind, cutoff_height=height)
    state.emit_rows(("month", "txs"), rows)


# -- Ethereum analytics --------------------------------------------------------

def _registry_options(command):
    command = click.option(
        "--internal", "internal_path", default=None,
        type=click.Path(exists=True, dir_okay=False),
        help="NDJSON side-file of internal (contract-initiated) creations.")(command)
    command = click.option(
        "--terminated", "terminated_path", default=None,
        type=click.Path(exists=True, dir_okay=False),
        help="NDJSON side-file of contract terminations.")(command)
    return command


@cli.group("eth")
def eth_group() -> None:
    """Ethereum contract analytics."""


@eth_group.command("classify")
@_registry_options
@pass_state
def cmd_eth_classify(state: AppState, internal_path, terminated_path) -> None:
    """Monthly transaction counts split into the four interaction classes."""
    from .eth.classify import TxClass, monthly_class_counts
    from .eth.contracts import build_contract_registry
    with state.open_store() as store:
        registry = build_contract_registry(store, internal_path,
                                           terminated_path)
        rows = monthly_class_counts(store, registry)
        orphans = store.orphan_count(ChainKind.ETHEREUM)
    if orphans:  # counted in no month
        click.echo(f"orphans: {orphans}", err=True)
    header = ("month",) + tuple(cls.value for cls in TxClass)
    state.emit_rows(header, [(month,) + tuple(counts[cls] for cls in TxClass)
                             for month, counts in rows])


@eth_group.command("zombies")
@click.option("--top", default=10, show_default=True,
              type=click.IntRange(min=0),
              help="Size of the top-by-balance table.")
@click.option("--view", type=click.Choice(["summary", "cdf", "top", "creators"]),
              default="summary", show_default=True)
@pass_state
def cmd_eth_zombies(state: AppState, top: int, view: str) -> None:
    """Contracts created with empty code: counts, endowments, creators."""
    from .eth.classify import zombie_report
    with state.open_store() as store:
        report = zombie_report(store, top_k=top)
    if view == "summary":
        state.emit_rows(("zombie_count", "total_balance"),
                        [(report.count, report.total_balance)])
    elif view == "cdf":
        state.emit_rows(("height", "cumulative_zombies"), report.cdf)
    elif view == "top":
        state.emit_rows(("address", "balance"), report.top_by_balance)
    else:
        state.emit_rows(("creator", "zombies"), report.per_creator)


@eth_group.command("lifetimes")
@_registry_options
@click.option("--edges", default="100,10000", show_default=True,
              help="Comma-separated ascending bucket edges in blocks.")
@pass_state
def cmd_eth_lifetimes(state: AppState, internal_path, terminated_path,
                      edges: str) -> None:
    """Histogram of block distance between creation and termination."""
    from .eth.contracts import (build_contract_registry, check_lifetime_edges,
                                lifetime_histogram)
    try:
        edge_values = tuple(int(part) for part in edges.split(","))
    except ValueError:
        raise click.BadParameter(f"bad --edges {edges!r}")
    try:
        check_lifetime_edges(edge_values)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--edges")
    with state.open_store() as store:
        registry = build_contract_registry(store, internal_path,
                                           terminated_path)
    histogram = lifetime_histogram(registry, bucket_edges=edge_values)
    state.emit_rows(("bucket", "contracts"), list(histogram.items()))


@eth_group.command("precreation")
@_registry_options
@pass_state
def cmd_eth_precreation(state: AppState, internal_path, terminated_path) -> None:
    """Value sent to contract addresses before the contract existed."""
    from .eth.contracts import build_contract_registry, find_precreation_funding
    with state.open_store() as store:
        registry = build_contract_registry(store, internal_path,
                                           terminated_path)
        rows = find_precreation_funding(store, registry)
    state.emit_rows(("funding_tx", "contract", "creation_height"), rows)


@eth_group.command("probe")
@click.option("--gas-fixture", "executor", default=None,
              type=LoadedFile(".eth.probe:FixtureExecutor.from_file"),
              help="Scripted executor fixture (NDJSON).")
@click.option("--rpc", "rpc_url", default=None,
              help="JSON-RPC endpoint of a node you control.")
@click.option("--contracts", default=None,
              type=LoadedFile(partial(read_lines, parse=partial(
                  normalize_hex, byte_len=20), key="address {}".format)),
              help="Address list, one per line; defaults to every address "
                   "in the gas fixture.")
@click.option("--selectors", "dictionary", default=None,
              type=LoadedFile(".eth.probe:SelectorDictionary.from_lines"),
              help="Alternative termination-selector dictionary.")
@click.option("--caller", default=DEFAULT_PROBE_CALLER, show_default=True)
@pass_state
def cmd_eth_probe(state: AppState, executor, rpc_url, contracts, dictionary,
                  caller: str) -> None:
    """Find contracts anyone can terminate, and confirm by invoking them."""
    from .eth.contracts import NULL_ADDRESS, ContractRecord, CreatorKind
    from .eth.probe import (GasPolicy, RpcExecutor, SelectorDictionary,
                            probe_suicidal)
    if (executor is None) == (rpc_url is None):
        raise click.UsageError("exactly one of --gas-fixture / --rpc required")
    if dictionary is None:
        dictionary = SelectorDictionary.default()
    if executor is not None:
        addresses = executor.addresses()
    else:
        executor = RpcExecutor(rpc_url)
        addresses = []
    if contracts is not None:
        addresses = contracts
    if not addresses:
        raise click.UsageError("no contracts to probe; pass --contracts")
    try:
        caller = normalize_hex(caller, byte_len=20)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--caller")
    records = [ContractRecord(address=address, creation_height=0,
                              creator=NULL_ADDRESS,
                              creator_kind=CreatorKind.BY_TRANSACTION)
               for address in addresses]
    results = probe_suicidal(records, executor, dictionary, GasPolicy(),
                             caller=caller)
    state.emit_rows(
        ("contract", "selector", "gas_estimate", "confirmed", "refund",
         "refund_address", "suspicious_default", "error"),
        [(r.contract,
          r.triggering_selector.hex() if r.triggering_selector else "",
          "" if r.gas_estimate is None else r.gas_estimate,
          int(r.confirmed_terminated), r.refund_destination.value,
          r.refund_address or "", int(r.suspicious_default_function),
          r.executor_error or "") for r in results])


def _read_references(path: str) -> list[tuple[str, str, bool]]:
    """(name, bytecode, optimized) of each entry in a --references list."""
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ValueError("expected a JSON list of references")
    references = []
    for index, entry in enumerate(raw):
        try:
            if not isinstance(entry, dict):
                raise ValueError("not an object")
            references.append((str_field(entry, "name"),
                               str_field(entry, "bytecode"),
                               bool_field(entry, "optimized", default=False)))
        except ValueError as exc:
            raise ValueError(f"entry {index}: {exc}") from None
    return references


@eth_group.command("similarity")
@click.option("--references", required=True,
              type=LoadedFile(_read_references),
              help="JSON list of {name, bytecode, optimized} references.")
@click.option("--corpus", required=True, type=LoadedFile(read_lines),
              help="Contract bytecode corpus, one hex string per line.")
@click.option("--minor", default=100, show_default=True,
              type=click.IntRange(min=1))
@click.option("--heavy", default=1000, show_default=True,
              type=click.IntRange(min=1))
@pass_state
def cmd_eth_similarity(state: AppState, references, corpus, minor: int,
                       heavy: int) -> None:
    """Bucket corpus contracts by edit distance to reference bytecodes."""
    from .eth.similarity import SimilarityBuckets, bucket_similarity
    try:
        buckets = SimilarityBuckets(minor_max=minor, heavy_max=heavy)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--minor/--heavy")
    rows = bucket_similarity(corpus, references, buckets)
    state.emit_rows(("reference", "optimized", "exact", "minor", "heavy"),
                    [(r.reference, int(r.optimized), r.exact, r.minor, r.heavy)
                     for r in rows])


# -- Namecoin ------------------------------------------------------------------

@cli.group("nmc")
def nmc_group() -> None:
    """Namecoin name-operation analytics."""


@nmc_group.command("fees")
@click.option("--rates", default=None,
              type=LoadedFile(".report:read_rate_table"),
              help="Weekly USD-per-NMC rate CSV to join.")
@pass_state
def cmd_nmc_fees(state: AppState, rates) -> None:
    """Weekly sums of fees actually paid, by operation kind."""
    from .chains.namecoin import weekly_fee_sums
    from .report import join_usd
    with state.open_store() as store:
        rows = weekly_fee_sums(store)
    if rates is None:
        state.emit_rows(("week", "kind", "fee_units"), rows)
        return
    state.emit_rows(("week", "kind", "fee_units", "usd"),
                    join_usd(rows, rates))


@nmc_group.command("mergemine")
@pass_state
def cmd_nmc_mergemine(state: AppState) -> None:
    """Blocks, txs, and name ops split by merge-mined vs normally mined."""
    from .chains.namecoin import merge_mine_split
    with state.open_store() as store:
        split = merge_mine_split(store)
    state.emit_rows(
        ("metric", "normal", "merged", "total", "merged_pct"),
        [(metric, normal, merged, normal + merged,
          f"{split.merged_pct(metric):.1f}")
         for metric, (normal, merged) in split.rows.items()])


@nmc_group.command("rereg")
@click.option("--day", "day_text", required=True, metavar="YYYY-MM-DD")
@click.option("--window", default=None, type=click.IntRange(min=0),
              help="Override the expiry window in blocks.")
@pass_state
def cmd_nmc_rereg(state: AppState, day_text: str, window: int | None) -> None:
    """Registrations on a day whose name had previously expired."""
    from datetime import date

    from .chains.namecoin import FeeSchedule, detect_reregistrations
    try:
        day = date.fromisoformat(day_text)
    except ValueError:
        raise click.BadParameter(f"bad --day {day_text!r}")
    schedule = FeeSchedule() if window is None \
        else FeeSchedule(expiry_window_blocks=window)
    with state.open_store() as store:
        report = detect_reregistrations(store, schedule, day)
    click.echo(f"first-updates on {day}: {report.firstupdates_on_day}", err=True)
    rows = [(name, "reregistration", ";".join(map(str, heights)))
            for name, heights in report.reregistrations]
    rows += [(name, "anomaly", ";".join(map(str, heights)))
             for name, heights in report.anomalies]
    state.emit_rows(("name", "status", "prior_registration_heights"), rows)


# -- Peercoin ---------------------------------------------------------------

@cli.group("ppc")
def ppc_group() -> None:
    """Peercoin consensus analytics."""


@ppc_group.command("pos-pow")
@pass_state
def cmd_ppc_pos_pow(state: AppState) -> None:
    """Monthly proof-of-stake vs proof-of-work block counts."""
    from .chains.peercoin import pos_pow_counts
    with state.open_store() as store:
        rows = pos_pow_counts(store)
    state.emit_rows(("month", "pos", "pow"), rows)


# -- poisoning scanner ---------------------------------------------------------

@cli.command("poison")
@click.argument("action", type=click.Choice(["scan"]))
@click.option("--chain", default=ChainKind.ETHEREUM.value, type=_CHAIN_CHOICE,
              show_default=True)
@click.option("--save", "save_dir", default=None,
              type=click.Path(file_okay=False),
              help="Also write each candidate payload into this directory.")
@click.option("--verify-full", is_flag=True,
              help="Drop candidates whose complete magic does not match.")
@click.option("--signatures", default=None,
              type=LoadedFile(".poison:load_signatures"),
              help="Alternative signature table CSV.")
@pass_state
def cmd_poison(state: AppState, action: str, chain: str, save_dir,
               verify_full: bool, signatures) -> None:
    """Scan transaction payloads for embedded file-format signatures."""
    from .poison import load_signatures, scan_corpus
    db = signatures or load_signatures()
    with state.open_store() as store:
        report = scan_corpus(store, ChainKind(chain), db, out_dir=save_dir,
                             verify_full=verify_full)
    for err in report.write_errors:
        click.echo(f"write failed: {err}", err=True)
    state.emit_rows(("format", "tx_hash", "payload_size"),
                    [(r.format_name, r.tx_hash, r.payload_size)
                     for r in report.rows])


# -- discovery crawl -------------------------------------------------------------

def _bootnode(text: str):
    import ipaddress

    from .discovery.identity import PeerInfo
    node_hex, endpoint = text.split("@", 1)
    ip, port_text = endpoint.rsplit(":", 1)
    return PeerInfo(node_id=bytes.fromhex(node_hex),
                    ip=str(ipaddress.ip_address(ip)), port=int(port_text))


@cli.command("crawl")
@click.option("--sim", "topology", default=None,
              type=LoadedFile(".discovery.crawler:load_topology"),
              help="Simulated overlay topology JSON.")
@click.option("--live", "bootnodes", default=None,
              type=LoadedFile(partial(read_lines, parse=_bootnode)),
              help="Bootstrap node list, one <node_id_hex>@ip:port per line.")
@click.option("--prefix-bits", default=13, show_default=True,
              type=click.IntRange(0, 32))
@click.option("--k", "neighbor_k", default=16, show_default=True,
              type=click.IntRange(min=1))
@click.option("--max-inflight", default=500, show_default=True,
              type=click.IntRange(min=1),
              help="The most requests open at once.")
@click.option("--seed", "rng_seed", default=None, type=int,
              help="Seed for the simulated overlay and, through a seed "
                   "spawned from it, the crawl targets; a --sim crawl "
                   "without it uses the topology's \"seed\".")
@click.option("--geo", default=None,
              type=LoadedFile(".report:read_geo_table"),
              help="CIDR-to-country CSV; adds a country histogram.")
@pass_state
def cmd_crawl(state: AppState, topology, bootnodes, prefix_bits: int,
              neighbor_k: int, max_inflight: int, rng_seed, geo) -> None:
    """Enumerate a discovery overlay and report endpoint statistics (JSON)."""
    from .discovery.crawler import CrawlConfig, crawl
    from .report import join_country
    if (topology is None) == (bootnodes is None):
        raise click.UsageError("exactly one of --sim / --live required")
    if topology is not None and rng_seed is None:
        rng_seed = topology["rng_seed"]  # so a seeded topology seeds targets
    config = CrawlConfig(prefix_bits=prefix_bits, max_in_flight=max_inflight,
                         rng_seed=rng_seed)
    if topology is not None:
        from .discovery.simulator import build_sim_overlay
        topology["rng_seed"] = rng_seed
        try:
            transport, truth = build_sim_overlay(**topology,
                                                 neighbor_k=neighbor_k)
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="--sim")
        reachable = [p for p in truth.peers if p.node_id in truth.reachable_ids]
        report = crawl(transport, reachable[:3], config)
    else:
        from .discovery.live import UdpV4Transport
        with closing(UdpV4Transport(private_key=os.urandom(32),
                                    neighbor_k=neighbor_k)) as transport:
            report = crawl(transport, bootnodes, config)
    countries = (None if geo is None else
                 join_country((p.ip for p in report.known_peers), geo))
    state.emit_text(report.to_json(countries) + "\n")


# -- bootstrap-seed measurement -------------------------------------------------

@cli.group("bootstrap")
def bootstrap_group() -> None:
    """DNS seed harvesting and port reachability."""


@bootstrap_group.command("harvest")
@click.option("--seeds", "source", required=True,
              type=LoadedFile(".bootstrap:load_seed_source"),
              help="Seed source JSON: {port, hardcoded, dns}.")
@click.option("--rounds", default=1, show_default=True,
              type=click.IntRange(min=1))
@click.option("--script", "resolver", default=None,
              type=LoadedFile(".bootstrap:ScriptedResolver.from_file"),
              help="Scripted resolver answers (JSON) instead of live DNS.")
@pass_state
def cmd_bootstrap_harvest(state: AppState, source, rounds: int,
                          resolver) -> None:
    """Resolve seed names repeatedly and measure address-set growth."""
    from .bootstrap import LiveResolver, harvest_seeds
    harvest = harvest_seeds(resolver or LiveResolver(), source, rounds)
    if state.fmt == "csv":
        state.emit_rows(("round", "new_ips", "cumulative_ips"), harvest.rounds)
    else:
        state.emit_text(harvest.to_json() + "\n")


@bootstrap_group.command("probe")
@click.option("--seeds", "source", default=None,
              type=LoadedFile(".bootstrap:load_seed_source"),
              help="Seed source JSON; probes its hardcoded list on its port.")
@click.option("--ips", "ip_list", default=None, type=LoadedFile(read_lines),
              help="Address list, one per line (overrides the seed list).")
@click.option("--port", default=None, type=click.IntRange(1, 65535),
              help="Port to probe (overrides the seed source port).")
@click.option("--script", "prober", default=None,
              type=LoadedFile(".bootstrap:ScriptedProber.from_file"),
              help="Scripted prober outcomes (JSON) instead of live TCP.")
@click.option("--workers", default=1, show_default=True,
              type=click.IntRange(min=1))
@pass_state
def cmd_bootstrap_probe(state: AppState, source, ip_list, port, prober,
                        workers: int) -> None:
    """TCP-probe a set of addresses and classify open/filtered/closed."""
    from .bootstrap import LiveProber, probe_ports
    ips: list[str] = []
    if source is not None:
        ips = list(source.hardcoded_ips)
        if port is None:
            port = source.port
    if ip_list is not None:
        ips = ip_list
    if not ips:
        raise click.UsageError("no addresses; pass --seeds or --ips")
    if port is None:
        raise click.UsageError("no port; pass --port or --seeds")
    scan = probe_ports(prober or LiveProber(), ips, port, workers=workers)
    if state.fmt == "csv":
        state.emit_rows(("ip", "outcome"),
                        [(ip, outcome.value)
                         for ip, outcome in sorted(scan.outcomes.items())])
    else:
        state.emit_text(scan.to_json() + "\n")


# -- entry points ----------------------------------------------------------------

def run_cli(argv: list[str] | None = None) -> int:
    """Invoke the CLI programmatically; returns the process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cli.main(args=args, prog_name="chainlens", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except ChainLensError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def main() -> None:
    import logging
    logging.basicConfig(level=os.environ.get("CHAINLENS_LOG", "WARNING"),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
