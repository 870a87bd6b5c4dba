"""Atomic provenance-record updates.

The coordinator realizes the trusted update sequence: classify the revision,
store the new document, mint a PID for the new version, link it into the
version chain, then commit the ledger update -- in that order, with a
write-ahead intent journal so that any failure rolls every prior step back
and no partial state is observable. The old version's blob and PID record
are never touched, so historical versions stay resolvable and fetchable.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass
from pathlib import Path

from . import clock, identity as identity_mod
from .errors import (
    IllegalUpdateError,
    InvalidDocumentError,
    KindMismatchError,
    LedgerRejectedError,
    SuccessorExistsError,
    UnauthorizedError,
    UnknownPIDError,
)
from .ledger.chaincode import MSG_NOT_FOUND, MSG_UNAUTHORIZED
from .prov import ProvDocument, validate_document
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
        return {
            "old_pid": self.old_pid,
            "new_pid": self.new_pid,
            "classification": self.classification,
            "uri": self.uri,
            "checksum": self.checksum,
            "receipt": self.receipt,
        }


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
        out = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

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
    """Coordinator for the update protocol.

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

    def update(
        self,
        old_pid: str,
        new_doc: ProvDocument,
        caller: identity_mod.Identity,
        permission: identity_mod.Permission | None = None,
        timestamp: str | None = None,
    ) -> UpdateResult:
        old_record = self._resolve_provenance(old_pid)
        if old_record.get("successor"):
            raise SuccessorExistsError(
                f"{old_pid} already superseded by {old_record['successor']}"
            )
        owner = old_record.get("metadata", {}).get("owner")
        if owner and owner != caller.user_id and permission is None:
            raise UnauthorizedError(
                f"{caller.user_id!r} does not own {old_pid} and presents no grant"
            )

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

        ledger_pid = self._chain_base(old_pid)
        update_id = uuid.uuid4().hex
        self.journal.record(update_id, "begin", {"old_pid": old_pid})
        steps_done: list[tuple[str, dict]] = []
        try:
            uri, checksum, created = self._step_store(new_doc)
            steps_done.append(("store", {"checksum": checksum, "created": created}))
            self.journal.record(update_id, "store", {"checksum": checksum, "created": created})

            new_record = self._step_mint(uri, checksum)
            new_pid = new_record["pid"]
            steps_done.append(("mint", {"new_pid": new_pid}))
            self.journal.record(update_id, "mint", {"new_pid": new_pid})

            self._step_link(old_pid, new_pid, permission)
            steps_done.append(("link", {"old_pid": old_pid, "new_pid": new_pid}))
            self.journal.record(update_id, "link", {"old_pid": old_pid, "new_pid": new_pid})

            receipt = self._step_ledger(ledger_pid, uri, checksum, permission, timestamp)
            self.journal.record(update_id, "commit", {"tx_id": receipt.get("tx_id")})
            return UpdateResult(
                old_pid=old_pid,
                new_pid=new_pid,
                classification=classification,
                uri=uri,
                checksum=checksum,
                receipt=receipt,
            )
        except Exception:
            self._rollback(steps_done)
            self.journal.record(update_id, "abort")
            raise

    # -- protocol steps (one method per step so tests can inject failures) ---

    def _step_store(self, doc: ProvDocument) -> tuple[str, str, bool]:
        return self.store.store_document(doc)

    def _step_mint(self, uri: str, checksum: str) -> dict:
        return self.registry.mint("provenance-record", uri, checksum)

    def _step_link(
        self, old_pid: str, new_pid: str, permission: identity_mod.Permission | None
    ) -> None:
        self.registry.link_new_version(
            old_pid, new_pid, permission.to_dict() if permission else None
        )

    def _step_ledger(
        self,
        ledger_pid: str,
        uri: str,
        checksum: str,
        permission: identity_mod.Permission | None,
        timestamp: str | None,
    ) -> dict:
        receipt = self.ledger.hlf_update_prov(
            ledger_pid, uri, checksum, timestamp=timestamp, permission=permission
        )
        if not receipt.ok:
            if receipt.message == MSG_UNAUTHORIZED:
                raise UnauthorizedError(receipt.message)
            if receipt.message == MSG_NOT_FOUND:
                raise UnknownPIDError(receipt.message)
            raise LedgerRejectedError(receipt.message, receipt.to_dict())
        return receipt.to_dict()

    # -- rollback ---------------------------------------------------------------

    def _rollback(self, steps_done: list[tuple[str, dict]]) -> None:
        for step, data in reversed(steps_done):
            if step == "link":
                self.registry.unlink(data["new_pid"], data["old_pid"])
            elif step == "mint":
                if not any(s == "link" for s, _ in steps_done):
                    self.registry.unlink(data["new_pid"])
            elif step == "store":
                # The mint rollback removed the only reference; a blob that
                # predates this update (created=False) is someone else's.
                if data["created"]:
                    self.store.discard(data["checksum"])

    def repair(self) -> int:
        """Roll back updates left incomplete by a crash; returns the count."""
        rolled_back = 0
        for update_id, entries in self.journal.pending().items():
            steps_done = [
                (e["event"], e["data"])
                for e in entries
                if e["event"] in ("store", "mint", "link")
            ]
            self._rollback(steps_done)
            self.journal.record(update_id, "abort", {"repair": True})
            rolled_back += 1
        return rolled_back

    # -- helpers -----------------------------------------------------------------

    def _resolve_provenance(self, pid: str) -> dict:
        record = self.registry.resolve(pid)
        if record.get("object_kind") != "provenance-record":
            raise KindMismatchError(f"{pid} is not a provenance record")
        return record

    def _chain_base(self, pid: str) -> str:
        history = self.registry.version_history(pid)
        return history[0]["pid"]


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
