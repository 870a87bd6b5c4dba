"""Ledger values: what the world state maps each PID to.

A value carries the five core fields (URI, checksum, version, owners,
timestamp) plus two metadata fields this system needs to enforce the
asymmetric CRUD rules and invalidation semantics: the object kind fixed at
create time, and the validity status with its provoking source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

KIND_ARTIFACT = "artifact"
KIND_PROVENANCE = "provenance-record"

STATUS_VALID = "valid"
STATUS_INVALIDATED = "invalidated"
STATUS_AFFECTED = "affected"


@dataclass(frozen=True)
class LedgerValue:
    uri: str
    checksum: str
    version: int
    owners: tuple[str, ...]
    timestamp: str
    kind: str
    status: str = STATUS_VALID
    status_source: str | None = None

    def to_dict(self) -> dict:
        return {
            "uri": self.uri,
            "checksum": self.checksum,
            "version": self.version,
            "owners": list(self.owners),
            "timestamp": self.timestamp,
            "kind": self.kind,
            "status": self.status,
            "status_source": self.status_source,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LedgerValue":
        return cls(
            uri=data["uri"],
            checksum=data["checksum"],
            version=int(data["version"]),
            owners=tuple(data["owners"]),
            timestamp=data["timestamp"],
            kind=data["kind"],
            status=data.get("status", STATUS_VALID),
            status_source=data.get("status_source"),
        )

    def evolved(self, **changes) -> "LedgerValue":
        return replace(self, **changes)
