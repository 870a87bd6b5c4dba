"""Downstream invalidation across four linked experiments.

Experiment 1 produces files A and B. File A feeds experiment 2 (file C),
file B feeds experiment 3 (file D), and file D feeds experiment 4 (file E).
Retracting file B must flag exactly D and E as affected, leaving A's branch
untouched; their owners read it through ``fedprov notifications``.
"""

from __future__ import annotations

import sys

from .common import ScenarioEnv, activity, document, entity, relation, scenario_main


def run(config_path: str) -> dict:
    env = ScenarioEnv(config_path)
    env.ensure_user("OrgA", "alice")
    env.ensure_user("OrgB", "bob")
    env.ensure_user("OrgA", "carol")

    file_a = env.publish(
        "alice", "uc2/file_a.dat", "experiment-1 output A\n",
        document(
            entities=[entity("e-a", "file A")],
            activities=[activity("x1a", "experiment-1")],
            relations=[relation("was-generated-by", "e-a", "x1a")],
        ),
    )
    file_b = env.publish(
        "alice", "uc2/file_b.dat", "experiment-1 output B\n",
        document(
            entities=[entity("e-b", "file B")],
            activities=[activity("x1b", "experiment-1")],
            relations=[relation("was-generated-by", "e-b", "x1b")],
        ),
    )
    file_c = env.publish(
        "bob", "uc2/file_c.dat", "experiment-2 output C\n",
        document(
            entities=[
                entity("in-a", "input file A",
                       artifact_pid=file_a["artifact_pid"],
                       checksum=file_a["artifact_checksum"]),
                entity("e-c", "file C"),
            ],
            activities=[activity("x2", "experiment-2")],
            relations=[
                relation("used", "x2", "in-a"),
                relation("was-generated-by", "e-c", "x2"),
            ],
        ),
    )
    file_d = env.publish(
        "carol", "uc2/file_d.dat", "experiment-3 output D\n",
        document(
            entities=[
                entity("in-b", "input file B",
                       artifact_pid=file_b["artifact_pid"],
                       checksum=file_b["artifact_checksum"]),
                entity("e-d", "file D"),
            ],
            activities=[activity("x3", "experiment-3")],
            relations=[
                relation("used", "x3", "in-b"),
                relation("was-generated-by", "e-d", "x3"),
            ],
        ),
    )
    file_e = env.publish(
        "bob", "uc2/file_e.dat", "experiment-4 output E\n",
        document(
            entities=[
                entity("in-d", "input file D",
                       artifact_pid=file_d["artifact_pid"],
                       checksum=file_d["artifact_checksum"]),
                entity("e-e", "file E"),
            ],
            activities=[activity("x4", "experiment-4")],
            relations=[
                relation("used", "x4", "in-d"),
                relation("was-generated-by", "e-e", "x4"),
            ],
        ),
    )

    retraction = env.invalidate(
        "alice", file_b["artifact_pid"],
        reason="calibration error discovered upstream", cascade=True,
    )
    return {
        "pids": {
            "A": file_a["artifact_pid"],
            "B": file_b["artifact_pid"],
            "C": file_c["artifact_pid"],
            "D": file_d["artifact_pid"],
            "E": file_e["artifact_pid"],
        },
        "invalidated": file_b["artifact_pid"],
        "affected": retraction["affected"],
    }


if __name__ == "__main__":
    sys.exit(scenario_main(run, __doc__.strip().splitlines()[0]))
