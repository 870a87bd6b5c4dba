"""The traced benchmark's hooks still find what they wrap in ``fedprov``.

``perfbench/spans.py`` wraps public callables by name from outside the
program. A rename it does not follow breaks only traced benchmark runs, so
this test installs and uninstalls its tracer against the current code.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
