"""Span tracing of chainlens layers from outside the program.

`Tracer.install` replaces each listed function in every chainlens module
namespace that binds it (and each listed method on its class) with a
wrapper that records a span: name, start, end, parent. Spans stay in
memory as flat arrays and are written once, at the end. Per-layer self
time is a span's duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

_NO_PARENT = -1


def _inserted(tracer, args, result, exc):
    tracer.count("store.put.attempts")
    if result:
        tracer.count("store.put.inserted")


def _rejected(tracer, args, result, exc):
    if exc is None:
        tracer.count("store.ingest.rejected", result.rejected_count)


def _batch_rows(tracer, args, result, exc):
    tracer.count("keccak.keccak256_batch64.rows", len(args[0]))


def _derivation(tracer, args, result, exc):
    with tracer._lock:
        tracer.derived_pairs.add((args[0], args[1]))


def _candidate(tracer, args, result, exc):
    if result:
        tracer.count("poison.candidates")


def _over_cutoff(tracer, args, result, exc):
    if exc is None and result is None:
        tracer.count("eth.similarity.levenshtein.over_cutoff")


def _find_node(tracer, args, result, exc):
    if exc is not None:
        tracer.count("discovery.simulator.find_node.failed")
    else:
        tracer.count("discovery.simulator.find_node.returned", len(result))


def _ping(tracer, args, result, exc):
    if exc is not None or not result:
        tracer.count("discovery.simulator.ping_pong.failed")


def _bytes_out(tracer, args, result, exc):
    tracer.count("report.bytes_out", len(args[0].encode("utf-8")))


# (module, function or Class.method, span name, result hook)
TARGETS = (
    ("chainlens.store", "ingest_blocks", "store.ingest_blocks", _rejected),
    ("chainlens.store", "Store.put_block", "store.put_block", _inserted),
    ("chainlens.store", "Store.put_tx", "store.put_tx", _inserted),
    ("chainlens.store", "Store.commit", "store.commit", None),
    ("chainlens.store", "Store.iter_txs", "store.iter_txs", None),
    ("chainlens.store", "Store.iter_blocks", "store.iter_blocks", None),
    ("chainlens.store", "Store.block_times", "store.block_times", None),
    ("chainlens.store", "monthly_tx_counts", "store.monthly_tx_counts", None),
    ("chainlens.keccak", "keccak256", "keccak.keccak256", None),
    ("chainlens.keccak", "keccak256_batch64", "keccak.keccak256_batch64",
     _batch_rows),
    ("chainlens.rlp", "encode", "rlp.encode", None),
    ("chainlens.eth.contracts", "derive_contract_address",
     "eth.contracts.derive_contract_address", _derivation),
    ("chainlens.eth.contracts", "build_contract_registry",
     "eth.contracts.build_contract_registry", None),
    ("chainlens.eth.contracts", "find_precreation_funding",
     "eth.contracts.find_precreation_funding", None),
    ("chainlens.eth.contracts", "lifetime_histogram",
     "eth.contracts.lifetime_histogram", None),
    ("chainlens.eth.classify", "monthly_class_counts",
     "eth.classify.monthly_class_counts", None),
    ("chainlens.eth.classify", "zombie_report", "eth.classify.zombie_report",
     None),
    ("chainlens.poison", "extract_payload", "poison.extract_payload", None),
    ("chainlens.poison", "match_signatures", "poison.match_signatures",
     _candidate),
    ("chainlens.poison", "scan_corpus", "poison.scan_corpus", None),
    ("chainlens.chains.namecoin", "weekly_fee_sums",
     "chains.namecoin.weekly_fee_sums", None),
    ("chainlens.chains.namecoin", "merge_mine_split",
     "chains.namecoin.merge_mine_split", None),
    ("chainlens.chains.namecoin", "detect_reregistrations",
     "chains.namecoin.detect_reregistrations", None),
    ("chainlens.chains.peercoin", "pos_pow_counts",
     "chains.peercoin.pos_pow_counts", None),
    ("chainlens.eth.similarity", "levenshtein", "eth.similarity.levenshtein",
     _over_cutoff),
    ("chainlens.eth.similarity", "bucket_similarity",
     "eth.similarity.bucket_similarity", None),
    ("chainlens.discovery.identity", "precompute_targets",
     "discovery.identity.precompute_targets", None),
    ("chainlens.discovery.identity", "select_neighbors",
     "discovery.identity.select_neighbors", None),
    ("chainlens.discovery.simulator", "SimTransport.find_node",
     "discovery.simulator.find_node", _find_node),
    ("chainlens.discovery.simulator", "SimTransport.ping_pong",
     "discovery.simulator.ping_pong", _ping),
    ("chainlens.discovery.crawler", "crawl", "discovery.crawler.crawl", None),
    ("chainlens.discovery.crawler", "endpoint_stats",
     "discovery.crawler.endpoint_stats", None),
    ("chainlens.report", "emit_rows", "report.emit_rows", None),
    ("chainlens.report", "emit", "report.emit", _bytes_out),
)
# spans opened by crawl worker threads are children of this span
THREAD_ROOT = "discovery.crawler.crawl"
TRANSPORT = ("discovery.simulator.find_node", "discovery.simulator.ping_pong")


class _ThreadLog:
    """Spans and counters of one thread, appended without a lock."""

    def __init__(self) -> None:
        self.stack: list = []
        self.ids = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: list = []
        self._next_id = itertools.count()
        self.names: list = []
        self._name_ids: dict = {}
        self.derived_pairs: set = set()
        self.thread_root = _NO_PARENT
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def count(self, key: str, n: int = 1) -> None:
        self._log().counters[key] += n

    @property
    def counters(self) -> Counter:
        total: Counter = Counter()
        for log in self._logs:
            total.update(log.counters)
        return total

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple:
        log = self._log()
        parent = log.stack[-1] if log.stack else self.thread_root
        span_id = next(self._next_id)
        log.stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, name_id: int, parent: int, start: float,
               end: float) -> None:
        log = self._log()
        log.stack.pop()
        log.ids.append(span_id)
        log.name.append(name_id)
        log.parent.append(parent)
        log.start.append(start)
        log.end.append(end)

    def wrap(self, fn, name: str, hook=None, method: bool = False):
        """A function recording one span per call; `hook` sees the outcome."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        name_id = self._name_id(name)
        roots_threads = name == THREAD_ROOT
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            if roots_threads:
                tracer.thread_root = span_id
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                if roots_threads:
                    tracer.thread_root = _NO_PARENT
                tracer._close(span_id, name_id, parent, start, end)
                if hook is not None:
                    hook(tracer, args[1:] if method else args, result, exc)
        return traced

    def _wrap_generator(self, fn, name: str):
        """Each resumption of the generator is one span; rows are counted."""
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.count(name + ".calls")
            return tracer._drive(fn(*args, **kwargs), name_id, name + ".rows")
        return traced

    def _drive(self, gen, name_id: int, rows_key: str):
        rows = 0
        try:
            while True:
                span_id, parent = self._open()
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span_id, name_id, parent, start, perf_counter())
                rows += 1
                yield item
        finally:
            gen.close()
            self.count(rows_key, rows)

    def call(self, name: str, fn, *args):
        """Run `fn(*args)` inside one span named `name`."""
        return self.wrap(fn, name)(*args)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(original, name, hook,
                                               method=True))
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("chainlens"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        """All spans as arrays indexed by span id."""
        def column(field: str, dtype) -> np.ndarray:
            return np.concatenate([np.frombuffer(getattr(log, field), dtype=dtype)
                                   for log in self._logs] or [np.empty(0, dtype)])
        order = np.argsort(column("ids", np.int64), kind="stable")
        thread = np.concatenate([np.full(len(log.ids), k, dtype=np.int32)
                                 for k, log in enumerate(self._logs)]
                                or [np.empty(0, np.int32)])
        return {"name": column("name", np.int32)[order],
                "parent": column("parent", np.int64)[order],
                "thread": thread[order],
                "start": column("start", np.float64)[order],
                "end": column("end", np.float64)[order]}

    def span_count(self) -> int:
        return sum(len(log.ids) for log in self._logs)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total duration and self time."""
        a = self.arrays()
        n = len(a["name"])
        duration = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=n)
        # children on another thread may overlap: count their union instead
        cross = has_parent.copy()
        cross[has_parent] = a["thread"][has_parent] \
            != a["thread"][parent[has_parent]]
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            covered[p] = _union(np.clip(a["start"][kids], a["start"][p], None),
                                np.clip(a["end"][kids], None, a["end"][p]))
        own = duration - covered
        out = {}
        for name_id, name in enumerate(self.names):
            mask = a["name"] == name_id
            out[name] = {"calls": int(mask.sum()),
                         "wall_s": float(duration[mask].sum()),
                         "self_s": float(own[mask].sum())}
        transport = np.isin(a["name"], [self._name_ids[t] for t in TRANSPORT
                                        if t in self._name_ids])
        out["transport"] = {
            "busy_s": _union(a["start"][transport], a["end"][transport]),
            "peak": _peak_overlap(a["start"][transport], a["end"][transport])}
        return out


def _union(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by a set of intervals."""
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts)
    total, lo, hi = 0.0, None, None
    for s, e in zip(starts[order].tolist(), ends[order].tolist()):
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    return total + (hi - lo)


def _peak_overlap(starts: np.ndarray, ends: np.ndarray) -> int:
    """Most intervals open at one instant."""
    if len(starts) == 0:
        return 0
    times = np.concatenate([starts, ends])
    deltas = np.concatenate([np.ones(len(starts)), -np.ones(len(ends))])
    order = np.lexsort((deltas, times))  # a close sorts before an open at a tie
    return int(np.cumsum(deltas[order]).max())
