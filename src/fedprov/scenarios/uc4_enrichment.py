"""Post-publication PID enrichment.

An experiment is published while its analysis code is still private. Once
the code becomes available it gets published with a PID of its own, and the
original provenance record is updated -- structure untouched, the code
entity merely enriched with the new reference -- producing version 2 of the
record, linked to version 1.
"""

from __future__ import annotations

import sys

from .common import ScenarioEnv, activity, document, entity, relation, scenario_main


def run(config_path: str) -> dict:
    env = ScenarioEnv(config_path)
    env.ensure_user("OrgA", "alice")

    experiment = env.publish(
        "alice", "uc4/results.nc", "gridded analysis results\n",
        document(
            entities=[
                entity("e-results", "analysis results"),
                entity("e-code", "analysis code (not yet public)"),
            ],
            activities=[activity("a-analyze", "regional reanalysis")],
            relations=[
                relation("used", "a-analyze", "e-code"),
                relation("was-generated-by", "e-results", "a-analyze"),
            ],
        ),
        entity_id="e-results",
    )

    code = env.publish(
        "alice", "uc4/analysis_code.py", "print('reanalysis pipeline')\n",
        document(
            entities=[entity("e-repo", "analysis code snapshot")],
            activities=[activity("a-release", "code release")],
            relations=[relation("was-generated-by", "e-repo", "a-release")],
        ),
    )

    enriched = env.stored_doc(experiment["prov_pid"])
    for element in enriched["entities"]:
        if element["local_id"] == "e-code":
            element["artifact_pid"] = code["artifact_pid"]
            element["checksum"] = code["artifact_checksum"]
    update = env.update_prov("alice", experiment["prov_pid"], enriched)

    chain = env.ctx().ledger().version_history(update["new_pid"])
    return {
        "experiment_pid": experiment["artifact_pid"],
        "code_pid": code["artifact_pid"],
        "old_prov_pid": experiment["prov_pid"],
        "new_prov_pid": update["new_pid"],
        "classification": update["classification"],
        "chain_versions": [r["version_number"] for r in chain],
    }


if __name__ == "__main__":
    sys.exit(scenario_main(run, __doc__.strip().splitlines()[0]))
