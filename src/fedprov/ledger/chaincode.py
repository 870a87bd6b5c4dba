"""Chaincode: deterministic simulation of ledger operations.

Each operation runs against a read-only state view and produces a
read/write set plus a status message. Endorsing peers on every organization
run the same simulation; commit-time validation re-checks the read versions,
so divergent or stale simulations never mutate replicated state.

The CRUD asymmetry is enforced here: artifacts can be created, read, and
invalidated but never updated; provenance records can be created, read, and
updated but never invalidated. "Deletion" does not exist -- invalidation
retains the value and flips its status so referential integrity survives.

``publish`` is the only create: its ``pid`` is the artifact PID, ``args``
carries the artifact's ``uri``, ``checksum`` and ``owners`` plus
``provenance: {pid, uri, checksum}``. Both keys are read, so racing publishes
that claim either PID are ordered by the read-set check, and both are written
or neither is. ``owners`` is absent, making the caller the owner, or a
non-empty list of user ids; anything else is malformed.

``update-prov`` states ``version``, the version it writes, with ``new_uri``
and ``new_checksum``: the update is refused unless that is the current
version plus one, so of two updates prepared from the same version at most
one commits.

Older ledgers also hold ``create-artifact`` and ``create-prov`` (one record
each) and ``update-prov`` without ``version``. Commit, replay and chain
verification apply a transaction's recorded write set and never simulate it
again, so such chains keep loading; a new submission of either is malformed.

``flag-affected`` records an invalidation's consequences: its ``pid`` is the
invalidated source and ``args.targets`` the artifacts derived from it. One
transaction flags a whole cascade, so every status change lands in the same
block or none does; targets already invalidated or affected are read but not
rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .. import identity as identity_mod
from ..canonical import digest
from .values import (
    STATUS_AFFECTED,
    STATUS_INVALIDATED,
    STATUS_VALID,
    LedgerValue,
)

TX_PUBLISH = "publish"
TX_UPDATE_PROV = "update-prov"
TX_INVALIDATE = "invalidate-artifact"
TX_FLAG_AFFECTED = "flag-affected"

TX_KINDS = (TX_PUBLISH, TX_UPDATE_PROV, TX_INVALIDATE, TX_FLAG_AFFECTED)

MSG_UNAUTHORIZED = "Error: Unauthorized user"
MSG_NOT_FOUND = "Error: Resource not found"
MSG_EXISTS = "Error: Resource already exists"
MSG_ARTIFACT_UPDATE = "Error: Artifact records cannot be updated"
MSG_PROV_INVALIDATE = "Error: Provenance records cannot be invalidated"
MSG_SOURCE_NOT_INVALIDATED = "Error: Source artifact is not invalidated"
MSG_BAD_REQUEST = "Error: Malformed transaction"
MSG_VERSION_CONFLICT = "Error: Version conflict"

MSG_CREATED = "Success: Resource created successfully"
MSG_UPDATED = "Success: Resource updated successfully"
MSG_INVALIDATED = "Success: Resource invalidated"
MSG_ALREADY_INVALIDATED = "Success: Resource already invalidated"
MSG_FLAGGED = "Success: Resource flagged as affected"
MSG_ALREADY_FLAGGED = "Success: Resource already flagged"

KIND_ARTIFACT = "artifact"
KIND_PROVENANCE = "provenance-record"


@dataclass
class SimulationResult:
    """Outcome of simulating one transaction: message + read/write sets."""

    message: str
    reads: dict[str, int | None] = field(default_factory=dict)
    writes: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.message.startswith("Error:")

    def to_dict(self) -> dict:
        return {"message": self.message, "reads": self.reads, "writes": self.writes}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimulationResult":
        return cls(
            message=data["message"],
            reads={k: v for k, v in data.get("reads", {}).items()},
            writes={k: dict(v) for k, v in data.get("writes", {}).items()},
        )

    def result_digest(self) -> str:
        return digest(self.to_dict())


def _owners_valid(args: Mapping) -> bool:
    """A publish's ``owners`` is absent (the caller owns it) or a non-empty list of user ids."""
    if "owners" not in args:
        return True
    owners = args["owners"]
    return (
        isinstance(owners, list)
        and bool(owners)
        and all(isinstance(owner, str) for owner in owners)
    )


def _strings(mapping: Mapping, *keys: str) -> bool:
    return all(isinstance(mapping.get(key), str) for key in keys)


def simulate(
    body: Mapping,
    orgs: Mapping[str, identity_mod.Organization],
    get_state: Callable[[str], LedgerValue | None],
) -> SimulationResult:
    """Run one transaction body against a state view."""
    result = SimulationResult(message=MSG_BAD_REQUEST)

    def read(pid: str) -> LedgerValue | None:
        value = get_state(pid)
        result.reads[pid] = value.version if value else None
        return value

    kind = body.get("kind")
    pid = body.get("pid")
    args = body.get("args", {})
    timestamp = body.get("timestamp")
    if not isinstance(pid, str) or kind not in TX_KINDS or not isinstance(args, Mapping):
        return result
    caller = identity_mod.Identity.from_creator(body.get("creator", {}))
    permission = None
    if args.get("permission"):
        try:
            permission = identity_mod.Permission.from_dict(args["permission"])
        except (AttributeError, KeyError, TypeError):
            return result

    if kind == TX_PUBLISH:
        provenance = args.get("provenance")
        if (
            not _owners_valid(args)
            or not _strings(args, "uri", "checksum")
            or not isinstance(provenance, Mapping)
            or not _strings(provenance, "pid", "uri", "checksum")
            or provenance["pid"] == pid
        ):
            return result
        if not identity_mod.may_write(caller, orgs):
            result.message = MSG_UNAUTHORIZED
            return result
        existing = [read(pid), read(provenance["pid"])]  # both in the read set
        if any(value is not None for value in existing):
            result.message = MSG_EXISTS
            return result
        owners = tuple(args.get("owners") or [caller.user_id])
        for key, object_kind, record in (
            (pid, KIND_ARTIFACT, args),
            (provenance["pid"], KIND_PROVENANCE, provenance),
        ):
            result.writes[key] = LedgerValue(
                uri=record["uri"],
                checksum=record["checksum"],
                version=1,
                owners=owners,
                timestamp=timestamp,
                kind=object_kind,
                status=STATUS_VALID,
            ).to_dict()
        result.message = MSG_CREATED
        return result

    if kind == TX_UPDATE_PROV:
        version = args.get("version")
        if type(version) is not int or not _strings(args, "new_uri", "new_checksum"):
            return result
        value = read(pid)
        authorized = identity_mod.check_auth(
            pid,
            identity_mod.CAP_UPDATE_PROVENANCE,
            caller,
            list(value.owners) if value else None,
            orgs,
            permission,
        )
        if not authorized:
            result.message = MSG_UNAUTHORIZED
            return result
        if value is None:
            result.message = MSG_NOT_FOUND
            return result
        if value.kind == KIND_ARTIFACT:
            result.message = MSG_ARTIFACT_UPDATE
            return result
        if version != value.version + 1:
            result.message = MSG_VERSION_CONFLICT
            return result
        updated = value.evolved(
            uri=args["new_uri"],
            checksum=args["new_checksum"],
            version=version,
            timestamp=timestamp,
        )
        result.writes[pid] = updated.to_dict()
        result.message = MSG_UPDATED
        return result

    if kind == TX_INVALIDATE:
        value = read(pid)
        authorized = identity_mod.check_auth(
            pid,
            identity_mod.CAP_INVALIDATE_ARTIFACT,
            caller,
            list(value.owners) if value else None,
            orgs,
            permission,
        )
        if not authorized:
            result.message = MSG_UNAUTHORIZED
            return result
        if value is None:
            result.message = MSG_NOT_FOUND
            return result
        if value.kind == KIND_PROVENANCE:
            result.message = MSG_PROV_INVALIDATE
            return result
        if value.status == STATUS_INVALIDATED:
            result.message = MSG_ALREADY_INVALIDATED
            return result
        updated = value.evolved(
            version=value.version + 1,
            timestamp=timestamp,
            status=STATUS_INVALIDATED,
            status_source=pid,
        )
        result.writes[pid] = updated.to_dict()
        result.message = MSG_INVALIDATED
        return result

    if kind == TX_FLAG_AFFECTED:
        # Flagging downstream artifacts does not require ownership: anyone
        # who may write may record the consequence of an invalidation, but only
        # when the cited source (*pid*) really is invalidated on this ledger.
        # One transaction flags a whole cascade, all targets or none.
        targets = args.get("targets")
        if (
            not isinstance(targets, list)
            or not targets
            or not all(isinstance(t, str) for t in targets)
            or len(set(targets)) != len(targets)
            or pid in targets
        ):
            return result
        if not identity_mod.may_write(caller, orgs):
            result.message = MSG_UNAUTHORIZED
            return result
        source = read(pid)
        if source is None or source.status != STATUS_INVALIDATED:
            result.message = MSG_SOURCE_NOT_INVALIDATED
            return result
        values = {target: read(target) for target in sorted(targets)}
        for value in values.values():
            if value is None:
                result.message = MSG_NOT_FOUND
                return result
            if value.kind == KIND_PROVENANCE:
                result.message = MSG_PROV_INVALIDATE
                return result
        for target, value in values.items():
            if value.status in (STATUS_INVALIDATED, STATUS_AFFECTED):
                continue  # in the read set, so a concurrent change still conflicts
            result.writes[target] = value.evolved(
                version=value.version + 1,
                timestamp=timestamp,
                status=STATUS_AFFECTED,
                status_source=pid,
            ).to_dict()
        result.message = MSG_FLAGGED if result.writes else MSG_ALREADY_FLAGGED
        return result

    return result
