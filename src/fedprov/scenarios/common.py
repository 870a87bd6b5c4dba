"""Shared plumbing for the scenario scripts."""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

from .. import cli, clock
from ..errors import DuplicateUserError
from ..federation import FederationConfig, load_registration


def entity(local_id: str, label: str, artifact_pid: str | None = None,
           checksum: str | None = None, attributes: dict | None = None) -> dict:
    return {
        "local_id": local_id,
        "label": label,
        "artifact_pid": artifact_pid,
        "checksum": checksum,
        "attributes": attributes or {},
    }


def activity(local_id: str, label: str, parent: str | None = None,
             attributes: dict | None = None) -> dict:
    return {
        "local_id": local_id,
        "label": label,
        "started": None,
        "ended": None,
        "parent_activity": parent,
        "attributes": attributes or {},
    }


def agent(local_id: str, label: str, identity_ref: str | None = None) -> dict:
    return {"local_id": local_id, "label": label, "identity_ref": identity_ref}


def relation(kind: str, source: str, target: str, attributes: dict | None = None) -> dict:
    return {"kind": kind, "source": source, "target": target, "attributes": attributes or {}}


def document(entities: list, activities: list, relations: list,
             agents: list | None = None) -> dict:
    return {
        "entities": entities,
        "activities": activities,
        "agents": agents or [],
        "relations": relations,
        "created_at": clock.now_iso(),
    }


@dataclass
class ScenarioEnv:
    """One user-facing session against a running federation."""

    config_path: str

    def __post_init__(self):
        self.config = FederationConfig.load(Path(self.config_path))
        self.samples_dir = self.config.base_dir / "samples"
        self.samples_dir.mkdir(parents=True, exist_ok=True)

    # -- identities ------------------------------------------------------------

    def ensure_user(self, org: str, user_id: str) -> None:
        try:
            load_registration(self.config).register_user(org, user_id)
        except DuplicateUserError:
            pass

    def ctx(self, user_id: str | None = None) -> cli.ClientContext:
        return cli.ClientContext.build(self.config_path, user_id)

    # -- file + command helpers ---------------------------------------------------

    def write_file(self, name: str, content: str) -> Path:
        path = self.samples_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        return path

    def write_doc(self, name: str, doc: dict) -> Path:
        path = self.samples_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return path

    def publish(self, user: str, file_name: str, content: str, doc: dict,
                entity_id: str | None = None) -> dict:
        file_path = self.write_file(file_name, content)
        doc_path = self.write_doc(file_name + ".prov.json", doc)
        return cli.publish_artifact(
            self.ctx(user), str(file_path), str(doc_path), entity_id
        )

    def update_prov(self, user: str, prov_pid: str, doc: dict) -> dict:
        doc_path = self.write_doc(f"update-{prov_pid.replace('/', '_')}.json", doc)
        return cli.update_provenance(self.ctx(user), prov_pid, str(doc_path))

    def invalidate(self, user: str, pid: str, reason: str, cascade: bool) -> dict:
        return cli.invalidate_artifact(self.ctx(user), pid, reason, cascade)

    def trace(self, pid: str) -> dict:
        return cli.trace_artifact(self.ctx(), pid)

    def verify(self, pid: str) -> dict:
        return cli.verify_pid(self.ctx(), pid)

    def stored_doc(self, prov_pid: str) -> dict:
        """The current stored document of a provenance record, as a dict."""
        ctx = self.ctx()
        record = ctx.registry().resolve(prov_pid)
        doc = ctx.store().fetch_document(record["target_uri"], record["checksum"])
        return doc.to_dict()


def scenario_main(run, description: str) -> int:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--config", required=True)
    args = parser.parse_args()
    result = run(args.config)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0
