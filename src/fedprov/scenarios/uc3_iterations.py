"""Iterative model development with per-iteration PIDs.

Three drought-forecast checkpoints, each published as its own artifact whose
record declares the predecessor it was derived from. Consumers can inspect
the full iteration history and pin any specific checkpoint.
"""

from __future__ import annotations

import sys

from ..lineage import build_graph, collect_documents, iteration_history
from .common import ScenarioEnv, activity, document, entity, relation, scenario_main


def run(config_path: str) -> dict:
    env = ScenarioEnv(config_path)
    env.ensure_user("OrgB", "bob")

    checkpoints = []
    previous = None
    for round_number in (1, 2, 3):
        entities = [entity("e-ckpt", f"drought model checkpoint {round_number}")]
        relations = [relation("was-generated-by", "e-ckpt", "a-train")]
        if previous is not None:
            entities.append(
                entity("e-prev", f"checkpoint {round_number - 1}",
                       artifact_pid=previous["artifact_pid"],
                       checksum=previous["artifact_checksum"])
            )
            relations.append(relation("was-derived-from", "e-ckpt", "e-prev"))
        published = env.publish(
            "bob",
            f"uc3/checkpoint_{round_number}.bin",
            f"weights for training round {round_number}\n",
            document(
                entities=entities,
                activities=[activity("a-train", f"training round {round_number}")],
                relations=relations,
            ),
            entity_id="e-ckpt",
        )
        checkpoints.append(published)
        previous = published

    ctx = env.ctx()
    state = ctx.ledger().state_dump()
    graph = build_graph(collect_documents(state, ctx.store()), state)
    history = iteration_history(checkpoints[-1]["artifact_pid"], graph)
    return {
        "checkpoint_pids": [c["artifact_pid"] for c in checkpoints],
        "iterations": [e.to_dict() for e in history],
    }


if __name__ == "__main__":
    sys.exit(scenario_main(run, __doc__.strip().splitlines()[0]))
