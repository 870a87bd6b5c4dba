"""Replay all five scenarios against one federation.

Returns every scenario's summary plus the per-node chain heights and world
state digests afterwards; with a frozen clock the whole report is identical
run to run on a fresh federation.
"""

from __future__ import annotations

import sys

from .. import cli
from . import uc1_lineage, uc2_cascade, uc3_iterations, uc4_enrichment, uc5_decomposition
from .common import scenario_main

SCENARIOS = (
    ("uc1", uc1_lineage.run),
    ("uc2", uc2_cascade.run),
    ("uc3", uc3_iterations.run),
    ("uc4", uc4_enrichment.run),
    ("uc5", uc5_decomposition.run),
)


def run_all(config_path: str) -> dict:
    results = {name: run(config_path) for name, run in SCENARIOS}
    nodes = {}
    for org, transport in cli.ClientContext.build(config_path, None).ledger().peers.items():
        answer = transport("QUERY", {"op": "height"})  # one view's height and digest
        nodes[org] = {"height": answer["height"], "state_digest": answer["state_digest"]}
    return {"scenarios": results, "nodes": nodes}


if __name__ == "__main__":
    sys.exit(scenario_main(run_all, "replay all scenario scripts"))
