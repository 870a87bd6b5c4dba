"""The write coordinator: every write that spans store, registry and ledger.

Both writing verbs run here as a saga of local steps followed by one ledger
transaction. ``publish`` stores the file, mints its artifact PID, stores the
provenance document and mints its PID, then commits one ``publish``
transaction that creates both ledger records. ``update`` classifies the
revision, stores the new document, mints the new version's PID already
linked into the version chain, then commits the ledger update. Each local
step is appended to an intent journal as it completes and has one
compensation -- discard the blob it created, discard the PID record it
minted -- so a failure before the ledger commits rolls every prior step
back and no partial state is observable, and ``repair()`` does the same for
a run that a crash cut short. A new version's MINT is also journaled before
it is sent: one whose reply never came may still have linked the record,
and the rollback finds it as the predecessor's successor.

The ledger write is journaled before it is sent, as the (key, version,
checksum) the ledger holds once it commits. Whether it committed is then
never guessed: before undoing anything, the rollback reads the ledger, and
a run whose write committed is rolled forward and journaled ``commit``. A
lost ORDER reply is settled the same way, and the verb returns the receipt
read back from the ledger history. The old version's blob and PID record
are never touched, so historical versions stay resolvable and fetchable.
"""

from __future__ import annotations

import json
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import clock, identity as identity_mod
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
    Receipt,
    publish_operation,
    require_committed,
    update_operation,
)
from .pid_registry import KIND_ARTIFACT, KIND_PROVENANCE
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


class UpdateJournal:
    """Append-only intent journal enabling rollback and crash repair."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(self, update_id: str, event: str, data: dict | None = None) -> None:
        entry = {
            "update_id": update_id,
            "event": event,
            "data": data or {},
            "at": clock.now_iso(),
        }
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def entries(self) -> list[dict]:
        if not self.path.exists():
            return []
        with open(self.path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def pending(self) -> dict[str, list[dict]]:
        """Updates that began but neither committed nor aborted."""
        grouped: dict[str, list[dict]] = {}
        finished: set[str] = set()
        for entry in self.entries():
            grouped.setdefault(entry["update_id"], []).append(entry)
            if entry["event"] in ("commit", "abort"):
                finished.add(entry["update_id"])
        return {uid: steps for uid, steps in grouped.items() if uid not in finished}


class AtomicUpdater:
    """The write coordinator for ``publish`` and ``update``.

    ``registry`` is a RegistryClient (any transport), ``ledger`` a
    LedgerClient, ``store`` the shared provenance store. The journal file is
    metadata, not system state: state digests used by the rollback tests
    deliberately exclude it.
    """

    def __init__(self, store: ProvStore, registry, ledger, journal_path: Path):
        self.store = store
        self.registry = registry
        self.ledger = ledger
        self.journal = UpdateJournal(journal_path)

    def publish(
        self,
        payload: bytes,
        doc: ProvDocument,
        caller: identity_mod.Identity,
        entity_id: str | None = None,
    ) -> dict:
        """Publish a file plus its provenance document; returns both PIDs.

        The entity standing for the file gets the artifact PID (see
        ``_attach_artifact``). One ledger transaction creates both records,
        so a refused publish rolls back every blob and PID record it wrote.
        """
        violations = unresolvable_artifact_pids(doc, self.registry)
        if violations:
            raise InvalidDocumentError(violations)
        owners = [caller.user_id]
        with self._journaled({"verb": "publish"}) as done:
            artifact_uri, artifact_checksum = self._stored(done, payload)
            artifact_pid = self._minted(done, KIND_ARTIFACT, artifact_uri, artifact_checksum)
            doc = _attach_artifact(doc, artifact_pid, artifact_checksum, entity_id)
            doc_uri, doc_checksum = self._stored(done, doc.canonical_bytes())
            prov_pid = self._minted(done, KIND_PROVENANCE, doc_uri, doc_checksum)
            operation = publish_operation(
                artifact_pid, artifact_uri, artifact_checksum, owners,
                prov_pid, doc_uri, doc_checksum,
            )
            receipt = self._ledger_write(done, operation, 1, artifact_checksum)
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
        chain = self.registry.version_history(old_pid)
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

        violations = validate_document(new_doc)
        violations.extend(unresolvable_artifact_pids(new_doc, self.registry))
        if violations:
            raise InvalidDocumentError(violations)

        old_doc = self.store.fetch_document(
            old_record["target_uri"], old_record["checksum"]
        )
        classification = classify_update(old_doc, new_doc)
        if classification == ILLEGAL:
            raise IllegalUpdateError(
                f"revision of {old_pid} removes or alters original content"
            )

        with self._journaled({"old_pid": old_pid}) as done:
            uri, checksum = self._stored(done, new_doc.canonical_bytes())
            # Discarding the new record (the mint's compensation) also
            # clears its predecessor's link to it.
            new_pid = self._minted(done, KIND_PROVENANCE, uri, checksum, old_pid, permission)
            # The ledger value's version follows the registry's version number.
            operation = update_operation(base["pid"], uri, checksum, permission)
            receipt = self._ledger_write(
                done, operation, old_record["version_number"] + 1, checksum, timestamp
            )
        return UpdateResult(
            old_pid=old_pid,
            new_pid=new_pid,
            classification=classification,
            uri=uri,
            checksum=checksum,
            receipt=receipt,
        )

    # -- the journaled run ------------------------------------------------------

    @contextmanager
    def _journaled(self, begin: dict):
        """Run the body's steps under one journal id; yields ``done(step, data)``.

        ``done`` journals a completed step. If the body raises, the run is
        settled by ``_rollback`` and the error propagates; otherwise it is
        journaled ``commit``.
        """
        update_id = uuid.uuid4().hex
        self.journal.record(update_id, "begin", begin)
        steps_done: list[tuple[str, dict]] = []

        def done(step: str, data: dict) -> None:
            steps_done.append((step, data))
            self.journal.record(update_id, step, data)

        try:
            yield done
        except Exception:
            self.journal.record(update_id, self._rollback(steps_done))
            raise
        self.journal.record(update_id, "commit")

    def _stored(self, done, payload: bytes) -> tuple[str, str]:
        uri, checksum, created = self._step_store(payload)
        done("store", {"checksum": checksum, "created": created})
        return uri, checksum

    def _minted(self, done, object_kind: str, uri: str, checksum: str,
                predecessor: str | None = None,
                permission: identity_mod.Permission | None = None) -> str:
        if predecessor is not None:  # so that a lost reply can be undone, see ``_rollback``
            done("version", {"predecessor": predecessor, "checksum": checksum,
                             "owner": getattr(self.registry.identity, "user_id", None)})
        pid = self._step_mint(object_kind, uri, checksum, predecessor, permission)["pid"]
        done("mint", {"new_pid": pid})
        return pid

    def _ledger_write(
        self,
        done,
        operation: tuple[str, str, dict],
        version: int,
        checksum: str,
        timestamp: str | None = None,
    ) -> dict:
        """Commit the run's one ledger transaction; its receipt.

        The ledger key of *operation* holds *version* with *checksum* once
        it commits, which is journaled first. A lost reply leaves that
        unknown, so the ledger history settles it.
        """
        kind, pid, args = operation
        done("ledger", {"pid": pid, "version": version, "checksum": checksum})
        try:
            return self._step_ledger(kind, pid, args, timestamp)
        except TransportError:
            entry = self._ledger_entry(pid, version, checksum)
            if entry is None:
                raise
            return Receipt(entry["tx_id"], entry["height"], VALID, entry["message"]).to_dict()

    # -- protocol steps (one method per step so tests can inject failures) ---

    def _step_store(self, payload: bytes) -> tuple[str, str, bool]:
        return self.store.store_bytes(payload)

    def _step_mint(self, object_kind: str, uri: str, checksum: str, predecessor: str | None,
                   permission: identity_mod.Permission | None) -> dict:
        grant = permission.to_dict() if permission else None
        return self.registry.mint(object_kind, uri, checksum, None, predecessor, grant)

    def _step_ledger(self, kind: str, pid: str, args: dict, timestamp: str | None) -> dict:
        return require_committed(self.ledger.submit(kind, pid, args, timestamp)).to_dict()

    # -- rollback ---------------------------------------------------------------

    def _rollback(self, steps_done: list[tuple[str, dict]]) -> str:
        """Settle an unfinished run; the journal event that ends it.

        If the run's ledger write committed, nothing is undone and the run is
        rolled forward (``commit``). Otherwise every completed step is
        compensated, newest first (``abort``); a new version whose MINT was
        sent but whose PID was never journaled is found through its
        predecessor.
        """
        steps = dict(steps_done)
        ledger_write = steps.get("ledger")
        if ledger_write is not None and self._ledger_entry(**ledger_write) is not None:
            return "commit"
        for step, data in reversed(steps_done):
            if step == "mint":
                self.registry.unlink(data["new_pid"])
            elif step == "version" and "mint" not in steps:
                self._unlink_unjournaled_version(**data)
            elif step == "store" and data["created"]:
                # A blob that predates this run (created=False) is someone else's.
                self.store.discard(data["checksum"])
        return "abort"

    def _unlink_unjournaled_version(self, predecessor: str, checksum: str,
                                    owner: str | None) -> None:
        """UNLINK the version a MINT linked before its PID was journaled: the
        predecessor's successor, if it has this run's checksum and owner."""
        chain = self.registry.version_history(predecessor)
        newer = [r for r in chain if r["predecessor"] == predecessor]
        if newer and (newer[0]["checksum"], newer[0]["metadata"].get("owner")) == (checksum, owner):
            self.registry.unlink(newer[0]["pid"])

    def repair(self) -> int:
        """Settle runs left incomplete by a crash; returns the count.

        A run whose ledger write committed is rolled forward; any other is
        rolled back. A run's PID records are discarded through UNLINK, which
        only the identity that minted them may send: repair by any other
        identity raises ``UnauthorizedError`` at that run, which stays
        pending, and never silently deletes its records.
        """
        settled = 0
        for update_id, entries in self.journal.pending().items():
            event = self._rollback([(e["event"], e["data"]) for e in entries])
            self.journal.record(update_id, event, {"repair": True})
            settled += 1
        return settled

    def _ledger_entry(self, pid: str, version: int, checksum: str) -> dict | None:
        """The committed ledger history entry that wrote *version* with *checksum*.

        Versions only rise and the current value is the last history entry,
        so the history alone settles whether a write committed.
        """
        return next(
            (
                entry for entry in self.ledger.get_history(pid)
                if entry["value"]["version"] == version
                and entry["value"]["checksum"] == checksum
            ),
            None,
        )


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


def unresolvable_artifact_pids(doc: ProvDocument, registry) -> list[str]:
    """A violation for each entity whose artifact PID *registry* cannot resolve."""
    violations = []
    for entity in doc.entities:
        if entity.artifact_pid is None:
            continue
        try:
            registry.resolve(entity.artifact_pid)
        except UnknownPIDError:
            violations.append(
                f"entity {entity.local_id!r}: artifact PID "
                f"{entity.artifact_pid!r} does not resolve"
            )
    return violations
