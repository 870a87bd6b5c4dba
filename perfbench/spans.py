"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps public callables of ``fedprov`` where their callers
look them up (a module global, or a class attribute reached through an
instance), so no program file changes. It must run before the federation is
built: the message servers keep the ``handle`` bound methods they are given.
Wrappers record only while ``Tracer.active`` is set, i.e. in timed phases.

A span is (id, parent id, name, start, end, thread, op, attrs). The parent
is the innermost open span of the same thread; ``op`` is the CLI operation
the client thread was running, so a client's spans share it. Server-side
spans run on server threads and carry only their own parent chain.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

VERIFY_CHAIN = "ledger.blocks.verify_chain_file"
COMMIT_PATH = ("ledger.node.endorse", "ledger.node.commit")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: str
    op: str | None
    attrs: dict | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _committed_block(args, kwargs, result):
    return {"block_hash": args[1]["block_hash"]}


def _submitted_tx(args, kwargs, result):
    return {"tx_id": args[1].get("tx_id")}


def _cut_block(args, kwargs, result):
    return {"block_hash": result.block_hash, "tx_ids": [tx["tx_id"] for tx in args[2]]}


def _paths(args, kwargs, result):
    return {"paths": len(result)}


def _audited_txs(args, kwargs, result):
    count = 0
    with open(args[0], "rb") as fh:
        for line in fh:
            if line.strip():
                count += len(json.loads(line)["transactions"])
    return {"txs": count}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.active = False
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []

    # -- context ----------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str | None) -> None:
        self._local.op = op

    def _verify_role(self, args, kwargs, result):
        names = {name for _, name in self._stack()}
        if VERIFY_CHAIN in names:
            role = "audit"
        elif names.intersection(COMMIT_PATH):
            role = "commit-path"
        else:
            role = "other"
        return {"role": role}

    # -- wrapping -----------------------------------------------------------------

    def wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # Notes run outside the span; the verify note reads the
                # enclosing spans, which is why it runs after the pop.
                attrs = note(args, kwargs, result) if note is not None and ok else None
                tracer.spans.append(Span(span_id, parent, name, start, end,
                                         threading.current_thread().name,
                                         getattr(tracer._local, "op", None), attrs))

        return wrapper

    def _patch(self, owner, attr: str, name: str, note=None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, note))
        else:
            replacement = self.wrap(name, original, note)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        from fedprov import cli, crypto, pid_registry, prov_store, services, transport, updates
        from fedprov.ledger import blocks, client, node, ordering

        real_verify, real_sign = crypto.verify, crypto.sign
        self._patch(crypto, "verify", "crypto.verify", self._verify_role)
        self._patch(crypto, "sign", "crypto.sign")
        # validate_tx and verify_identity bind crypto.verify as a default
        # argument at import; without this their checks would go uncounted.
        swap = {id(real_verify): crypto.verify, id(real_sign): crypto.sign}
        for module in [m for n, m in sys.modules.items() if n.startswith("fedprov")]:
            for fn in _functions(module):
                defaults = fn.__defaults__
                if defaults and any(id(d) in swap for d in defaults):
                    fn.__defaults__ = tuple(swap.get(id(d), d) for d in defaults)
                    self._undo.append(functools.partial(setattr, fn, "__defaults__", defaults))

        self._patch(cli.ClientContext, "build", "cli.context_build")
        self._patch(transport, "request", "transport.request")
        self._patch(services.NodeService, "handle", "services.node_handle")
        self._patch(services.RegistryService, "handle", "services.registry_handle")
        for method in ("endorse", "order", "flag_affected"):
            self._patch(client.LedgerClient, method, f"ledger.client.{method}")
        self._patch(ordering.OrderingService, "submit", "ledger.ordering.submit", _submitted_tx)
        self._patch(ordering, "make_block", "ledger.ordering.make_block", _cut_block)
        self._patch(node.OrgNode, "endorse", "ledger.node.endorse")
        self._patch(node.OrgNode, "commit", "ledger.node.commit", _committed_block)
        self._patch(node.OrgNode, "history", "ledger.node.history")
        self._patch(node.OrgNode, "state_dump", "ledger.node.state_dump")
        self._patch(node, "validate_tx", "ledger.blocks.validate_tx")
        self._patch(blocks, "verify_chain_file", VERIFY_CHAIN, _audited_txs)
        for method in ("mint", "resolve", "version_history"):
            self._patch(pid_registry.PIDRegistry, method, f"pid_registry.{method}")
        for method in ("store_document", "store_bytes"):
            self._patch(prov_store.ProvStore, method, "prov_store.store")
        self._patch(prov_store.ProvStore, "fetch_bytes", "prov_store.fetch_bytes")
        self._patch(updates, "classify_update", "prov_store.classify_update")
        self._patch(updates.AtomicUpdater, "update", "updates.update")
        for fn in ("collect_documents", "build_graph", "verify_trace_soundness"):
            self._patch(cli, fn, f"lineage.{fn}")
        self._patch(cli, "trace_lineage", "lineage.trace_lineage", _paths)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def _functions(module):
    for value in vars(module).values():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            yield from (v for v in vars(value).values() if inspect.isfunction(v))


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(spans: list[Span], ops: int, cascades: int, useful_flags: int) -> dict:
    """The per-layer figures of one traced run, from its timed-phase spans.

    *ops* is the number of CLI operations in the timed phases, *cascades*
    the number of ``invalidate --cascade`` among them, *useful_flags* the
    ``flag-affected`` transactions committed with a non-empty write set. A
    figure whose layer did no work in this workload reads 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    noted: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.attrs is not None:
            noted[span.name].append(span)

    def mean_ms(*names):
        durations = [s.ms for n in names for s in by_name[n]]
        return sum(durations) / len(durations) if durations else 0.0

    def total_ms(*names):
        return sum(s.ms for n in names for s in by_name[n])

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    submitted = {s.attrs["tx_id"]: s.start for s in noted["ledger.ordering.submit"]}
    cuts = noted["ledger.ordering.make_block"]
    waits = [(cut.start - submitted[tx]) * 1000.0
             for cut in cuts for tx in cut.attrs["tx_ids"] if tx in submitted]
    last_commit: dict[str, float] = {}
    for span in noted["ledger.node.commit"]:
        block = span.attrs["block_hash"]
        last_commit[block] = max(last_commit.get(block, 0.0), span.end)
    delivers = [(last_commit[c.attrs["block_hash"]] - c.end) * 1000.0
                for c in cuts if c.attrs["block_hash"] in last_commit]
    committed_txs = sum(len(c.attrs["tx_ids"]) for c in cuts)
    audited_txs = sum(s.attrs["txs"] for s in noted[VERIFY_CHAIN])
    verifies = defaultdict(int)
    for span in noted["crypto.verify"]:
        verifies[span.attrs["role"]] += 1
    traces = noted["lineage.trace_lineage"]

    return {
        "cli.context_build_ms": mean_ms("cli.context_build"),
        "transport.requests_per_op": ratio(len(by_name["transport.request"]), ops),
        "transport.overhead_ms_per_op": ratio(
            total_ms("transport.request")
            - total_ms("services.node_handle", "services.registry_handle"), ops),
        "ledger.client.endorse_ms": mean_ms("ledger.client.endorse"),
        "ledger.client.order_ms": mean_ms("ledger.client.order"),
        "ledger.ordering.batch_wait_ms": ratio(sum(waits), len(waits)),
        "ledger.ordering.deliver_ms": ratio(sum(delivers), len(delivers)),
        "ledger.ordering.txs_per_block": ratio(committed_txs, len(cuts)),
        "ledger.node.endorse_ms": mean_ms("ledger.node.endorse"),
        "ledger.node.commit_ms": mean_ms("ledger.node.commit"),
        "ledger.node.history_ms": mean_ms("ledger.node.history"),
        "ledger.node.state_dump_ms": mean_ms("ledger.node.state_dump"),
        "ledger.blocks.validate_tx_ms": mean_ms("ledger.blocks.validate_tx"),
        "ledger.blocks.verify_chain_ms_per_tx": ratio(total_ms(VERIFY_CHAIN), audited_txs),
        "crypto.verifies_per_committed_tx": ratio(verifies["commit-path"], committed_txs),
        "crypto.verifies_per_audited_tx": ratio(verifies["audit"], audited_txs),
        "crypto.busy_ms_per_op": ratio(total_ms("crypto.sign", "crypto.verify"), ops),
        "pid_registry.mint_ms": mean_ms("pid_registry.mint"),
        "pid_registry.resolve_ms": mean_ms("pid_registry.resolve"),
        "pid_registry.version_history_ms": mean_ms("pid_registry.version_history"),
        "prov_store.store_ms": mean_ms("prov_store.store"),
        "prov_store.fetch_ms": mean_ms("prov_store.fetch_bytes"),
        "prov_store.fetches_per_op": ratio(len(by_name["prov_store.fetch_bytes"]), ops),
        "prov_store.classify_update_ms": mean_ms("prov_store.classify_update"),
        "lineage.collect_documents_ms": mean_ms("lineage.collect_documents"),
        "lineage.build_graph_ms": mean_ms("lineage.build_graph"),
        "lineage.trace_lineage_ms": mean_ms("lineage.trace_lineage"),
        "lineage.paths_per_trace": ratio(sum(s.attrs["paths"] for s in traces),
                                         len(traces)),
        "lineage.verify_trace_soundness_ms": mean_ms("lineage.verify_trace_soundness"),
        "lineage.flag_txs_per_cascade": ratio(len(by_name["ledger.client.flag_affected"]),
                                              cascades),
        "lineage.flag_useful_ratio": ratio(useful_flags,
                                           len(by_name["ledger.client.flag_affected"])),
        "updates.update_ms": mean_ms("updates.update"),
    }


LAYER_UNITS = {
    "count": ("requests_per_op", "txs_per_block", "verifies_per_committed_tx",
              "verifies_per_audited_tx", "fetches_per_op", "paths_per_trace",
              "flag_txs_per_cascade"),
    "ratio": ("flag_useful_ratio",),
}


def layer_unit(name: str) -> str:
    suffix = name.split(".")[-1]
    for unit, suffixes in LAYER_UNITS.items():
        if suffix in suffixes:
            return unit
    return "ms"
