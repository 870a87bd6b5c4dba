"""The traced benchmark's hooks still find what they wrap in ``fedprov``.

``perfbench/spans.py`` wraps public callables by name from outside the
program. A rename it does not follow breaks only traced benchmark runs, so
this test installs and uninstalls its tracer against the current code.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from conftest import publish_raw
from fedprov import cli, transport
from fedprov.ledger import node

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    spans = _load_spans(monkeypatch)
    originals = (cli.ClientContext.__dict__["build"], transport.request, node.validate_tx)
    tracer = spans.Tracer(enabled=True)
    try:
        tracer.install()
        assert transport.request is not originals[1]
        assert node.validate_tx is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.ClientContext.__dict__["build"], transport.request, node.validate_tx) == originals


def test_traced_write_records_commit_path_spans(monkeypatch, tmp_path):
    """One traced write on a harness federation feeds the commit-path
    metrics, so moving the commit loop cannot zero them unnoticed."""
    from fedprov.harness import Federation

    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer(enabled=True)
    tracer.install()
    try:
        fed = Federation.bootstrap(tmp_path / "fed")
        try:
            alice, key = fed.register_user("OrgA", "alice")
            ledger = fed.client(alice, key).ledger()
            tracer.active = True
            receipt = publish_raw(ledger, "21.P/t", "cas://t", "ct")
            tracer.active = False
        finally:
            fed.stop()
    finally:
        tracer.uninstall()

    assert receipt.status == "VALID"
    names = {span.name for span in tracer.spans}
    assert {"ledger.node.commit", "ledger.blocks.validate_tx"} <= names
    assert any(
        span.name == "crypto.verify" and span.attrs == {"role": "commit-path"}
        for span in tracer.spans
    )


def test_traced_order_records_ordering_spans(monkeypatch, tmp_path):
    """An ORDER goes through the wrapped ``OrderingService.submit``, whose
    note reads the envelope's tx id, and ``make_block`` notes the cut."""
    from fedprov.harness import Federation
    from fedprov.ledger.client import publish_operation

    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer(enabled=True)
    tracer.install()
    try:
        fed = Federation.bootstrap(tmp_path / "fed")
        try:
            alice, key = fed.register_user("OrgA", "alice")
            ledger = fed.client(alice, key).ledger()
            envelope = ledger.prepare(*publish_operation(
                "21.P/t", "cas://t", "ct", ["alice"], "21.P/p", "cas://d", "cd"
            ))
            tracer.active = True
            receipt = ledger.order(envelope)
            tracer.active = False
        finally:
            fed.stop()
    finally:
        tracer.uninstall()

    assert receipt.status == "VALID"
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert [s.attrs for s in by_name["ledger.ordering.submit"]] == [{"tx_id": envelope["tx_id"]}]
    cut = {tx for s in by_name["ledger.ordering.make_block"] for tx in s.attrs["tx_ids"]}
    assert cut == {envelope["tx_id"]}


def test_traced_registry_requests_record_one_registry_span(monkeypatch, tmp_path):
    """A MINT and a RESOLVE at the orderer organization's address each reach
    ``RegistryService.handle`` straight from the address's dispatch, never
    through ``NodeService.handle``: the overhead metric subtracts both
    handlers' time from the request's, so a nested call would count the
    registry's time twice."""
    from fedprov.harness import Federation

    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer(enabled=True)
    tracer.install()

    def traced(call):
        tracer.spans.clear()
        tracer.active = True
        try:
            result = call()
        finally:
            tracer.active = False
        names = sorted(span.name for span in tracer.spans)
        return result, [name for name in names if name.startswith(("services.", "transport."))]

    try:
        fed = Federation.bootstrap(tmp_path / "fed")
        try:
            alice, key = fed.register_user("OrgA", "alice")
            client = fed.client(alice, key)
            registry = client.ledger()
            record, minted = traced(registry.mint)
            assert publish_raw(client.ledger(), record["pid"], "cas://t", "ct").ok
            resolved, resolving = traced(lambda: registry.resolve(record["pid"]))
        finally:
            fed.stop()
    finally:
        tracer.uninstall()

    assert resolved["pid"] == record["pid"]
    expected = ["services.registry_handle", "transport.request"]
    assert minted == expected
    assert resolving == expected
