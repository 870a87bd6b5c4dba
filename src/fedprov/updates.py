"""The write coordinator: every write that spans store, registry and ledger.

Both writing verbs store their blobs, reserve their PIDs, then submit one
ledger transaction, and that transaction is the only commit point.
``publish`` stores the file, reserves its artifact PID, stores the
provenance document and reserves its PID, then submits one ``publish``
transaction that creates both ledger records. ``update`` checks the chain's
kind, newest version and write rule early, classifies the revision, stores
the new document, reserves a PID, then submits an ``update-prov`` that
states the version it writes and names that PID, so the ledger orders
concurrent updates and records which PID each version has.

Nothing is ever undone. A run that fails before its transaction commits
leaves blobs that no ledger value names and reserved PIDs that never
resolve: the registry answers committed PIDs only. A retried update
reserves a fresh PID. A lost ORDER reply is settled by reading the ledger
history: if the write committed, the verb returns its receipt. The old
version's blob and PID are never touched, so historical versions stay
resolvable and fetchable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from . import identity as identity_mod
from .errors import (
    IllegalUpdateError,
    InvalidDocumentError,
    KindMismatchError,
    SuccessorExistsError,
    TransportError,
    UnauthorizedError,
    UnknownPIDError,
)
from .ledger.blocks import VALID
from .ledger.client import (
    LedgerClient,
    Receipt,
    publish_operation,
    require_committed,
    update_operation,
)
from .ledger.values import KIND_ARTIFACT, KIND_PROVENANCE
from .prov import REL_GENERATED, ProvDocument, validate_document
from .prov_store import ILLEGAL, ProvStore, classify_update


@dataclass
class UpdateResult:
    old_pid: str
    new_pid: str
    classification: str
    uri: str
    checksum: str
    receipt: dict

    def to_dict(self) -> dict:
        return asdict(self)


class AtomicUpdater:
    """The write coordinator for ``publish`` and ``update``.

    ``ledger`` is a LedgerClient (any transport), which also reserves and
    resolves PIDs; ``store`` is the shared provenance store.
    """

    def __init__(self, store: ProvStore, ledger: LedgerClient):
        self.store = store
        self.ledger = ledger

    def publish(
        self,
        payload: bytes,
        doc: ProvDocument,
        caller: identity_mod.Identity,
        entity_id: str | None = None,
    ) -> dict:
        """Publish a file plus its provenance document; returns both PIDs.

        The entity standing for the file gets the artifact PID (see
        ``_attach_artifact``). One ledger transaction creates both records.
        """
        violations = unresolvable_artifact_pids(doc, self.ledger)
        if violations:
            raise InvalidDocumentError(violations)
        artifact_uri, artifact_checksum = self._step_store(payload)
        artifact_pid = self._step_mint()
        doc = _attach_artifact(doc, artifact_pid, artifact_checksum, entity_id)
        doc_uri, doc_checksum = self._step_store(doc.canonical_bytes())
        prov_pid = self._step_mint()
        operation = publish_operation(
            artifact_pid, artifact_uri, artifact_checksum, [caller.user_id],
            prov_pid, doc_uri, doc_checksum,
        )
        receipt = self._ledger_write(operation, 1, artifact_checksum)
        return {
            "artifact_pid": artifact_pid,
            "prov_pid": prov_pid,
            "artifact_checksum": artifact_checksum,
            "doc_checksum": doc_checksum,
            # One transaction created both records; each keeps its receipt key.
            "receipts": {"artifact": receipt, "provenance": receipt},
        }

    def update(
        self,
        old_pid: str,
        new_doc: ProvDocument,
        caller: identity_mod.Identity,
        permission: identity_mod.Permission | None = None,
        timestamp: str | None = None,
    ) -> UpdateResult:
        chain = self.ledger.version_history(old_pid)
        old_record = next(record for record in chain if record["pid"] == old_pid)
        if old_record["object_kind"] != KIND_PROVENANCE:
            raise KindMismatchError(f"{old_pid} is not a provenance record")
        if old_record["successor"]:
            raise SuccessorExistsError(
                f"{old_pid} already superseded by {old_record['successor']}"
            )
        # The ledger keys a version chain by its first PID, owned by its
        # minter: that is what the chaincode checks, so check it here too.
        base = chain[0]
        owner = base.get("metadata", {}).get("owner")
        if not identity_mod.check_auth(
            base["pid"], identity_mod.CAP_UPDATE_PROVENANCE, caller,
            [owner] if owner else [], self.ledger.orgs, permission,
        ):
            raise UnauthorizedError(f"{caller.user_id!r} may not update {old_pid}")

        old_doc = self.store.fetch_document(
            old_record["target_uri"], old_record["checksum"]
        )
        # A committed PID stays committed, so one the old version cites
        # still resolves.
        cited = {entity.artifact_pid for entity in old_doc.entities}
        violations = validate_document(new_doc)
        violations.extend(unresolvable_artifact_pids(new_doc, self.ledger, cited))
        if violations:
            raise InvalidDocumentError(violations)
        classification = classify_update(old_doc, new_doc)
        if classification == ILLEGAL:
            raise IllegalUpdateError(
                f"revision of {old_pid} removes or alters original content"
            )

        uri, checksum = self._step_store(new_doc.canonical_bytes())
        new_pid = self._step_mint()
        version = old_record["version_number"] + 1
        operation = update_operation(base["pid"], uri, checksum, version, new_pid, permission)
        receipt = self._ledger_write(operation, version, checksum, timestamp)
        return UpdateResult(
            old_pid=old_pid,
            new_pid=new_pid,
            classification=classification,
            uri=uri,
            checksum=checksum,
            receipt=receipt,
        )

    def _ledger_write(
        self,
        operation: tuple[str, str, dict],
        version: int,
        checksum: str,
        timestamp: str | None = None,
    ) -> dict:
        """Commit the run's one ledger transaction; its receipt.

        The ledger key of *operation* holds *version* with *checksum* once
        it commits. A lost reply leaves that unknown, so the ledger history
        settles it: a write that committed returns the receipt read back.
        """
        kind, pid, args = operation
        try:
            return self._step_ledger(kind, pid, args, timestamp)
        except TransportError:
            entry = next(
                (
                    entry for entry in self.ledger.get_history(pid)
                    if entry["value"]["version"] == version
                    and entry["value"]["checksum"] == checksum
                ),
                None,
            )
            if entry is None:
                raise
            return Receipt(entry["tx_id"], entry["height"], VALID, entry["message"]).to_dict()

    # -- protocol steps (one method per step so tests can inject failures) ---

    def _step_store(self, payload: bytes) -> tuple[str, str]:
        uri, checksum, _ = self.store.store_bytes(payload)
        return uri, checksum

    def _step_mint(self) -> str:
        return self.ledger.mint()["pid"]

    def _step_ledger(self, kind: str, pid: str, args: dict, timestamp: str | None) -> dict:
        return require_committed(self.ledger.submit(kind, pid, args, timestamp)).to_dict()


def _attach_artifact(
    doc: ProvDocument,
    artifact_pid: str,
    checksum: str,
    entity_id: str | None = None,
) -> ProvDocument:
    """Fill the entity standing for the published file with its PID.

    Preference order: an explicitly named entity, an entity already carrying
    the file's checksum, the only unset entity, or the only unset entity
    that the document declares as generated.
    """
    if entity_id is not None:
        named = [e for e in doc.entities if e.local_id == entity_id]
        if not named:
            raise InvalidDocumentError([f"no entity with local_id {entity_id!r}"])
        target = named[0]
    else:
        by_checksum = [e for e in doc.entities if e.checksum == checksum]
        unset = [e for e in doc.entities if e.artifact_pid is None and e.checksum is None]
        generated_ids = {
            r.source for r in doc.relations if r.kind == REL_GENERATED
        }
        unset_generated = [e for e in unset if e.local_id in generated_ids]
        if by_checksum:
            target = by_checksum[0]
        elif len(unset) == 1:
            target = unset[0]
        elif len(unset_generated) == 1:
            target = unset_generated[0]
        else:
            raise InvalidDocumentError(
                [
                    "cannot determine which entity stands for the published file; "
                    "pass --entity <local-id>"
                ]
            )
    if target.artifact_pid is not None:
        raise InvalidDocumentError(
            [f"entity {target.local_id!r} already references {target.artifact_pid!r}"]
        )
    filled = replace(target, artifact_pid=artifact_pid, checksum=checksum)
    return doc.with_entity(filled)


def unresolvable_artifact_pids(
    doc: ProvDocument, ledger: LedgerClient, known: set[str] = frozenset()
) -> list[str]:
    """A violation for each entity whose artifact PID *ledger* cannot
    resolve to an artifact; PIDs in *known* are taken as resolving without
    asking. Lineage reads every cited PID as an artifact on the ledger, so
    citing a provenance record's PID would break every trace."""
    violations = []
    for entity in doc.entities:
        if entity.artifact_pid is None or entity.artifact_pid in known:
            continue
        try:
            kind = ledger.resolve(entity.artifact_pid)["object_kind"]
        except UnknownPIDError:
            kind = None
        if kind != KIND_ARTIFACT:
            problem = "does not resolve" if kind is None else f"names a {kind}, not an artifact"
            violations.append(
                f"entity {entity.local_id!r}: artifact PID {entity.artifact_pid!r} {problem}"
            )
    return violations
