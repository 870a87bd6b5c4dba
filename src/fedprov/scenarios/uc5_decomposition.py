"""Retrospective activity decomposition.

A published workflow described one opaque "processing" step. The producer
later documents it properly: three sub-activities under the original one,
with an intermediate product and the input/output relations re-attached to
the sub-activities. The revision is published as a new, linked version; the
original record stays intact and fetchable.
"""

from __future__ import annotations

import sys

from .common import ScenarioEnv, activity, document, entity, relation, scenario_main


def run(config_path: str) -> dict:
    env = ScenarioEnv(config_path)
    env.ensure_user("OrgA", "alice")

    raw = env.publish(
        "alice", "uc5/raw_input.dat", "uncalibrated station series\n",
        document(
            entities=[entity("e-raw", "raw station series")],
            activities=[activity("a-ingest", "station data ingest")],
            relations=[relation("was-generated-by", "e-raw", "a-ingest")],
        ),
    )

    product = env.publish(
        "alice", "uc5/product.dat", "calibrated gridded product\n",
        document(
            entities=[
                entity("e-in", "raw input",
                       artifact_pid=raw["artifact_pid"],
                       checksum=raw["artifact_checksum"]),
                entity("e-out", "published product"),
            ],
            activities=[activity("a-proc", "processing")],
            relations=[
                relation("used", "a-proc", "e-in"),
                relation("was-generated-by", "e-out", "a-proc"),
            ],
        ),
        entity_id="e-out",
    )

    revised = env.stored_doc(product["prov_pid"])
    revised["activities"].extend(
        [
            activity("a-clean", "outlier screening", parent="a-proc"),
            activity("a-calibrate", "sensor calibration", parent="a-proc"),
            activity("a-grid", "re-gridding", parent="a-proc"),
        ]
    )
    revised["entities"].append(entity("e-clean", "screened series"))
    revised["relations"] = [
        r
        for r in revised["relations"]
        if not (r["kind"] == "used" and r["source"] == "a-proc")
        and not (r["kind"] == "was-generated-by" and r["target"] == "a-proc")
    ] + [
        relation("used", "a-clean", "e-in"),
        relation("was-generated-by", "e-clean", "a-clean"),
        relation("used", "a-calibrate", "e-clean"),
        relation("was-generated-by", "e-out", "a-grid"),
    ]
    update = env.update_prov("alice", product["prov_pid"], revised)

    chain = env.ctx().ledger().version_history(update["new_pid"])
    return {
        "raw_pid": raw["artifact_pid"],
        "product_pid": product["artifact_pid"],
        "old_prov_pid": product["prov_pid"],
        "new_prov_pid": update["new_pid"],
        "classification": update["classification"],
        "chain_versions": [r["version_number"] for r in chain],
    }


if __name__ == "__main__":
    sys.exit(scenario_main(run, __doc__.strip().splitlines()[0]))
