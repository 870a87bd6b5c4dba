"""Minimal provenance document model: entities, activities, agents, relations.

Canonical serialization is order-insensitive for the set-like parts
(entities, agents, relations are sorted before hashing) and order-sensitive
for the recorded sequence of events (the activity list keeps author order),
so the same logical document always hashes to the same checksum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from . import clock
from .canonical import canonical_bytes, sha256_hex
from .errors import InvalidDocumentError

REL_USED = "used"
REL_GENERATED = "was-generated-by"
REL_DERIVED = "was-derived-from"
REL_ATTRIBUTED = "was-attributed-to"
REL_ASSOCIATED = "was-associated-with"
REL_INVALIDATED = "was-invalidated-by"

# kind -> (source element type, target element type)
RELATION_ENDPOINTS = {
    REL_USED: ("activity", "entity"),
    REL_GENERATED: ("entity", "activity"),
    REL_DERIVED: ("entity", "entity"),
    REL_ATTRIBUTED: ("entity", "agent"),
    REL_ASSOCIATED: ("activity", "agent"),
    REL_INVALIDATED: ("entity", "activity"),
}


@dataclass(frozen=True)
class Entity:
    local_id: str
    label: str
    artifact_pid: str | None = None
    checksum: str | None = None
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "local_id": self.local_id,
            "label": self.label,
            "artifact_pid": self.artifact_pid,
            "checksum": self.checksum,
            "attributes": dict(self.attributes),
        }


@dataclass(frozen=True)
class Activity:
    local_id: str
    label: str
    started: str | None = None
    ended: str | None = None
    parent_activity: str | None = None
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "local_id": self.local_id,
            "label": self.label,
            "started": self.started,
            "ended": self.ended,
            "parent_activity": self.parent_activity,
            "attributes": dict(self.attributes),
        }


@dataclass(frozen=True)
class Agent:
    local_id: str
    label: str
    identity_ref: str | None = None

    def to_dict(self) -> dict:
        return {
            "local_id": self.local_id,
            "label": self.label,
            "identity_ref": self.identity_ref,
        }


@dataclass(frozen=True)
class Relation:
    kind: str
    source: str
    target: str
    attributes: dict = field(default_factory=dict)

    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.source, self.target)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source,
            "target": self.target,
            "attributes": dict(self.attributes),
        }


@dataclass
class ProvDocument:
    entities: list[Entity] = field(default_factory=list)
    activities: list[Activity] = field(default_factory=list)
    agents: list[Agent] = field(default_factory=list)
    relations: list[Relation] = field(default_factory=list)
    created_at: str = ""
    doc_id: str | None = None

    def __post_init__(self):
        if not self.created_at:
            self.created_at = clock.now_iso()

    # -- indexing helpers -------------------------------------------------

    def entity_map(self) -> dict[str, Entity]:
        return {e.local_id: e for e in self.entities}

    def activity_map(self) -> dict[str, Activity]:
        return {a.local_id: a for a in self.activities}

    def agent_map(self) -> dict[str, Agent]:
        return {a.local_id: a for a in self.agents}

    def relation_map(self) -> dict[tuple[str, str, str], Relation]:
        return {r.key(): r for r in self.relations}

    # -- serialization -----------------------------------------------------

    def to_canonical_dict(self) -> dict:
        """Stable content form: doc_id excluded, set-like lists sorted."""
        return {
            "entities": [e.to_dict() for e in sorted(self.entities, key=lambda e: e.local_id)],
            "activities": [a.to_dict() for a in self.activities],
            "agents": [a.to_dict() for a in sorted(self.agents, key=lambda a: a.local_id)],
            "relations": [r.to_dict() for r in sorted(self.relations, key=lambda r: r.key())],
            "created_at": self.created_at,
        }

    def canonical_bytes(self) -> bytes:
        return canonical_bytes(self.to_canonical_dict())

    def checksum(self) -> str:
        return sha256_hex(self.canonical_bytes())

    def to_dict(self) -> dict:
        data = self.to_canonical_dict()
        data["doc_id"] = self.doc_id
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProvDocument":
        return cls(
            entities=[
                Entity(
                    local_id=e["local_id"],
                    label=e.get("label", ""),
                    artifact_pid=e.get("artifact_pid"),
                    checksum=e.get("checksum"),
                    attributes=dict(e.get("attributes", {})),
                )
                for e in data.get("entities", [])
            ],
            activities=[
                Activity(
                    local_id=a["local_id"],
                    label=a.get("label", ""),
                    started=a.get("started"),
                    ended=a.get("ended"),
                    parent_activity=a.get("parent_activity"),
                    attributes=dict(a.get("attributes", {})),
                )
                for a in data.get("activities", [])
            ],
            agents=[
                Agent(
                    local_id=a["local_id"],
                    label=a.get("label", ""),
                    identity_ref=a.get("identity_ref"),
                )
                for a in data.get("agents", [])
            ],
            relations=[
                Relation(
                    kind=r["kind"],
                    source=r["source"],
                    target=r["target"],
                    attributes=dict(r.get("attributes", {})),
                )
                for r in data.get("relations", [])
            ],
            created_at=data.get("created_at", ""),
            doc_id=data.get("doc_id"),
        )

    def with_entity(self, entity: Entity) -> "ProvDocument":
        """Copy of the document with one entity replaced (matched by id)."""
        entities = [entity if e.local_id == entity.local_id else e for e in self.entities]
        return replace(self, entities=entities)


def validate_document(doc: ProvDocument) -> list[str]:
    """Structural invariant check; returns a list of violations (empty = valid).

    Resolvability of entity ``artifact_pid`` values against the registry is
    a deployment-level check done by publish/update flows, not here.
    """
    violations: list[str] = []
    types: dict[str, str] = {}
    for name, elements in (
        ("entity", doc.entities),
        ("activity", doc.activities),
        ("agent", doc.agents),
    ):
        for element in elements:
            if not element.local_id:
                violations.append(f"{name} with empty local_id")
                continue
            if element.local_id in types:
                violations.append(f"duplicate local_id: {element.local_id!r}")
            types[element.local_id] = name

    activity_map = doc.activity_map()
    for activity in doc.activities:
        if activity.parent_activity is not None:
            if activity.parent_activity not in activity_map:
                violations.append(
                    f"activity {activity.local_id!r} has unknown parent "
                    f"{activity.parent_activity!r}"
                )
        if activity.started and activity.ended:
            if clock.parse_iso(activity.ended) < clock.parse_iso(activity.started):
                violations.append(f"activity {activity.local_id!r} ends before it starts")
    violations.extend(_parent_cycles(doc.activities))

    seen_relations: set[tuple[str, str, str]] = set()
    for relation in doc.relations:
        if relation.kind not in RELATION_ENDPOINTS:
            violations.append(f"unknown relation kind: {relation.kind!r}")
            continue
        key = relation.key()
        if key in seen_relations:
            violations.append(f"duplicate relation: {key}")
        seen_relations.add(key)
        want_source, want_target = RELATION_ENDPOINTS[relation.kind]
        for endpoint, want in ((relation.source, want_source), (relation.target, want_target)):
            have = types.get(endpoint)
            if have is None:
                violations.append(
                    f"relation {relation.kind} references undeclared element {endpoint!r}"
                )
            elif have != want:
                violations.append(
                    f"relation {relation.kind} expects a {want} endpoint, "
                    f"{endpoint!r} is a {have}"
                )
    return violations


def require_valid(doc: ProvDocument) -> None:
    violations = validate_document(doc)
    if violations:
        raise InvalidDocumentError(violations)


def _parent_cycles(activities: Iterable[Activity]) -> list[str]:
    parents = {a.local_id: a.parent_activity for a in activities}
    violations = []
    for start in parents:
        seen = {start}
        current = parents.get(start)
        while current is not None:
            if current in seen:
                violations.append(f"activity parent cycle through {start!r}")
                break
            seen.add(current)
            current = parents.get(current)
    return violations


def parent_chain(doc: ProvDocument, local_id: str) -> list[str]:
    """Ancestor activity ids of *local_id*, nearest first."""
    parents = {a.local_id: a.parent_activity for a in doc.activities}
    chain: list[str] = []
    current = parents.get(local_id)
    while current is not None and current not in chain:
        chain.append(current)
        current = parents.get(current)
    return chain
