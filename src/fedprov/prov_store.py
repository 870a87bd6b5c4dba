"""Immutable, content-addressed storage of provenance documents, plus the
classifier that decides whether a proposed revision is a legal enrichment,
an activity decomposition, a general additive revision, or illegal.

Storage layout: ``<root>/<first 2 hex chars>/<remaining 62>`` holding the
canonical document bytes; the URI form is ``cas://<checksum>``. Intact blobs
are never rewritten, so every historical version stays fetchable byte-exact.
"""

from __future__ import annotations

import os
import re
import uuid
from dataclasses import dataclass
from pathlib import Path

from .canonical import sha256_hex
from .errors import ChecksumMismatchError, DocumentNotFoundError
from .prov import (
    RELATION_ENDPOINTS,
    ProvDocument,
    parent_chain,
    require_valid,
)

URI_SCHEME = "cas://"
_CHECKSUM = re.compile(r"[0-9a-f]{64}")

ENRICHMENT = "enrichment"
DECOMPOSITION = "decomposition"
GENERAL_REVISION = "general-revision"
ILLEGAL = "illegal"


class ProvStore:
    """Content-addressed blob store for canonical provenance documents."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def store_document(self, doc: ProvDocument) -> tuple[str, str, bool]:
        """Write the canonical bytes; returns (uri, checksum, created).

        ``created`` is False when an identical document was already stored,
        which makes the operation idempotent.
        """
        require_valid(doc)
        return self._put(doc.canonical_bytes())

    def store_bytes(self, payload: bytes) -> tuple[str, str, bool]:
        """Store an opaque artifact blob under its own checksum."""
        return self._put(payload)

    def _put(self, payload: bytes) -> tuple[str, str, bool]:
        """Store *payload* unless a blob that hashes to its name holds it; one
        cut short or altered is rewritten. The bytes are renamed into place
        from a temporary file in the root, which ``list_checksums`` never lists."""
        checksum = sha256_hex(payload)
        uri, path = f"{URI_SCHEME}{checksum}", self._blob_file(checksum)
        try:
            with open(path, "rb") as fh:
                if sha256_hex(fh.read()) == checksum:
                    return uri, checksum, False
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        temporary = f"{self.root}/.put-{uuid.uuid4().hex}"
        try:
            with open(temporary, "xb") as fh:
                fh.write(payload)
            os.replace(temporary, path)
        except BaseException:
            Path(temporary).unlink(missing_ok=True)
            raise
        return uri, checksum, True

    def fetch_bytes(self, uri: str, expected_checksum: str) -> bytes:
        """Fetch and integrity-check raw bytes; mismatch means tampering."""
        try:
            with open(self._blob_file(self._checksum_of(uri)), "rb") as fh:
                payload = fh.read()
        except FileNotFoundError:
            raise DocumentNotFoundError(f"no stored content for {uri!r}") from None
        actual = sha256_hex(payload)
        if actual != expected_checksum:
            raise ChecksumMismatchError(
                f"{uri}: expected {expected_checksum}, content hashes to {actual}"
            )
        return payload

    def fetch_document(self, uri: str, expected_checksum: str) -> ProvDocument:
        import json

        payload = self.fetch_bytes(uri, expected_checksum)
        return ProvDocument.from_dict(json.loads(payload.decode("utf-8")))

    def blob_path(self, checksum: str) -> Path:
        return Path(self._blob_file(checksum))

    def _blob_file(self, checksum: str) -> str:
        """The blob's path; anything but 64 lowercase hex digits is refused,
        so no URI can name a file outside the store."""
        if not _CHECKSUM.fullmatch(checksum):
            raise DocumentNotFoundError(f"not a content checksum: {checksum!r}")
        return f"{self.root}/{checksum[:2]}/{checksum[2:]}"

    def list_checksums(self) -> list[str]:
        out = []
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                for blob in sorted(shard.iterdir()):
                    out.append(shard.name + blob.name)
        return out

    def state_digest(self) -> str:
        from .canonical import digest

        return digest(self.list_checksums())

    @staticmethod
    def _checksum_of(uri: str) -> str:
        if not uri.startswith(URI_SCHEME):
            raise DocumentNotFoundError(f"unsupported URI: {uri!r}")
        return uri[len(URI_SCHEME):]


# ---------------------------------------------------------------------------
# Update classification
# ---------------------------------------------------------------------------


@dataclass
class _Diff:
    illegal: list[str]
    enrichment_only: bool
    removed_relations: list
    added_entities: list
    added_activities: list
    added_agents: list
    added_relations: list


def classify_update(old: ProvDocument, new: ProvDocument) -> str:
    """Classify a proposed revision of a provenance document.

    * ``enrichment``: only attribute additions or fills of empty
      artifact-pid/checksum fields on existing elements; nothing removed,
      nothing re-ordered (the no-op diff counts as enrichment).
    * ``decomposition``: existing activities gain child sub-activities, with
      relations re-attached from an original activity to its new children
      and optional new intermediate entities; originals all retained.
    * ``general-revision``: any other purely additive change.
    * ``illegal``: any original element or relation removed, or any original
      value changed -- the recorded sequence of events must survive intact.
    """
    diff = _diff_documents(old, new)
    if diff.illegal:
        return ILLEGAL
    if diff.removed_relations:
        # Removals are only tolerated as decomposition re-attachments, and
        # _diff_documents has already vetted each one; the rest of the diff
        # must fit the decomposition pattern exactly.
        if _is_decomposition(old, new, diff):
            return DECOMPOSITION
        return ILLEGAL
    if diff.enrichment_only:
        return ENRICHMENT
    if _is_decomposition(old, new, diff):
        return DECOMPOSITION
    return GENERAL_REVISION


def _diff_documents(old: ProvDocument, new: ProvDocument) -> _Diff:
    illegal: list[str] = []
    non_enrichment_addition = False

    old_entities, new_entities = old.entity_map(), new.entity_map()
    old_activities, new_activities = old.activity_map(), new.activity_map()
    old_agents, new_agents = old.agent_map(), new.agent_map()

    for local_id in old_entities.keys() - new_entities.keys():
        illegal.append(f"entity removed: {local_id}")
    for local_id in old_activities.keys() - new_activities.keys():
        illegal.append(f"activity removed: {local_id}")
    for local_id in old_agents.keys() - new_agents.keys():
        illegal.append(f"agent removed: {local_id}")

    for local_id, before in old_entities.items():
        after = new_entities.get(local_id)
        if after is None:
            continue
        if after.label != before.label:
            illegal.append(f"entity label changed: {local_id}")
        for field_name in ("artifact_pid", "checksum"):
            was, now = getattr(before, field_name), getattr(after, field_name)
            if was is not None and now != was:
                illegal.append(f"entity {field_name} changed: {local_id}")
        illegal.extend(_attribute_violations("entity", local_id, before.attributes, after.attributes))

    for local_id, before in old_activities.items():
        after = new_activities.get(local_id)
        if after is None:
            continue
        if after.label != before.label:
            illegal.append(f"activity label changed: {local_id}")
        if after.parent_activity != before.parent_activity:
            illegal.append(f"activity re-parented: {local_id}")
        for field_name in ("started", "ended"):
            was, now = getattr(before, field_name), getattr(after, field_name)
            if was is not None and now != was:
                illegal.append(f"activity {field_name} changed: {local_id}")
            if was is None and now is not None:
                non_enrichment_addition = True
        illegal.extend(
            _attribute_violations("activity", local_id, before.attributes, after.attributes)
        )

    for local_id, before in old_agents.items():
        after = new_agents.get(local_id)
        if after is None:
            continue
        if after.label != before.label:
            illegal.append(f"agent label changed: {local_id}")
        if before.identity_ref is not None and after.identity_ref != before.identity_ref:
            illegal.append(f"agent identity_ref changed: {local_id}")
        if before.identity_ref is None and after.identity_ref is not None:
            non_enrichment_addition = True

    # The activity list is the recorded sequence of events: the original
    # activities must appear in the new document in their original order.
    old_order = [a.local_id for a in old.activities]
    new_order = [a.local_id for a in new.activities if a.local_id in old_activities]
    if new_order != old_order:
        illegal.append("original activity order changed")

    old_relations, new_relations = old.relation_map(), new.relation_map()
    removed_relations = []
    for key, before in old_relations.items():
        after = new_relations.get(key)
        if after is None:
            removed_relations.append(before)
            continue
        illegal.extend(
            _attribute_violations(f"relation {key[0]}", f"{key[1]}->{key[2]}",
                                  before.attributes, after.attributes)
        )

    for relation in removed_relations:
        reason = _reattachment_violation(relation, old, new)
        if reason:
            illegal.append(reason)

    added_entities = [e for e in new.entities if e.local_id not in old_entities]
    added_activities = [a for a in new.activities if a.local_id not in old_activities]
    added_agents = [a for a in new.agents if a.local_id not in old_agents]
    added_relations = [r for r in new.relations if r.key() not in old_relations]
    if added_entities or added_activities or added_agents or added_relations:
        non_enrichment_addition = True

    return _Diff(
        illegal=illegal,
        enrichment_only=not non_enrichment_addition,
        removed_relations=removed_relations,
        added_entities=added_entities,
        added_activities=added_activities,
        added_agents=added_agents,
        added_relations=added_relations,
    )


def _attribute_violations(kind: str, name: str, before: dict, after: dict) -> list[str]:
    out = []
    for key, value in before.items():
        if key not in after:
            out.append(f"{kind} {name}: attribute {key!r} removed")
        elif after[key] != value:
            out.append(f"{kind} {name}: attribute {key!r} changed")
    return out


def _reattachment_violation(relation, old: ProvDocument, new: ProvDocument) -> str | None:
    """A removed relation is legal only if re-attached to a child activity."""
    want_source, want_target = RELATION_ENDPOINTS[relation.kind]
    if want_source == "activity":
        activity_id, fixed_endpoint, activity_is_source = relation.source, relation.target, True
    elif want_target == "activity":
        activity_id, fixed_endpoint, activity_is_source = relation.target, relation.source, False
    else:
        return f"relation removed: {relation.key()}"
    old_activity_ids = set(old.activity_map())
    for candidate in new.relations:
        if candidate.kind != relation.kind:
            continue
        cand_activity = candidate.source if activity_is_source else candidate.target
        cand_fixed = candidate.target if activity_is_source else candidate.source
        if cand_fixed != fixed_endpoint:
            continue
        if cand_activity in old_activity_ids:
            continue
        if activity_id in parent_chain(new, cand_activity):
            return None
    return f"relation removed without re-attachment: {relation.key()}"


def _is_decomposition(old: ProvDocument, new: ProvDocument, diff: _Diff) -> bool:
    if not diff.added_activities:
        return False
    if diff.added_agents:
        return False
    old_activity_ids = set(old.activity_map())
    for activity in diff.added_activities:
        chain = parent_chain(new, activity.local_id)
        if not any(ancestor in old_activity_ids for ancestor in chain):
            return False
    # New entities are only admissible as intermediates of the expanded
    # structure: they must participate in added relations exclusively, and
    # every added relation must involve at least one added element.
    added_ids = {e.local_id for e in diff.added_entities} | {
        a.local_id for a in diff.added_activities
    }
    for relation in diff.added_relations:
        if relation.source not in added_ids and relation.target not in added_ids:
            return False
    for entity in diff.added_entities:
        used_somewhere = any(
            entity.local_id in (r.source, r.target) for r in diff.added_relations
        )
        if not used_somewhere:
            return False
    return True
