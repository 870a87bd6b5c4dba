"""Handle-style persistent identifier registry with linear version chains.

One registry serves a federation under a single prefix. Records persist as
one JSON file per suffix under the registry root, so the registry can be
reopened from disk at any time. The suffix counter only ever rises: it is
seeded at open from the highest suffix on disk or the high-water mark that
``discard`` persists, whichever is higher, so a suffix whose record was
discarded is never handed out again, not even after a restart. Mint and
discard are serialized through a single writer lock; resolution is
read-only. Only a suffix of ASCII digits ever becomes a file path.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping

from . import clock, identity as identity_mod
from .errors import (
    BrokenChainError,
    KindMismatchError,
    RegistryUnavailableError,
    SuccessorExistsError,
    UnauthorizedError,
    UnknownPIDError,
)

KIND_ARTIFACT = "artifact"
KIND_PROVENANCE = "provenance-record"
OBJECT_KINDS = (KIND_ARTIFACT, KIND_PROVENANCE)

_SUFFIX_WIDTH = 6
_SUFFIX_RE = re.compile(r"[0-9]{%d,}" % _SUFFIX_WIDTH)


@dataclass(frozen=True)
class PID:
    """Persistent identifier; canonical text form is ``prefix/suffix``."""

    prefix: str
    suffix: str

    def __str__(self) -> str:
        return f"{self.prefix}/{self.suffix}"

    @classmethod
    def parse(cls, text: str) -> "PID":
        if not isinstance(text, str) or "/" not in text:
            raise UnknownPIDError(f"malformed PID: {text!r}")
        prefix, _, suffix = text.partition("/")
        if not prefix or not suffix:
            raise UnknownPIDError(f"malformed PID: {text!r}")
        return cls(prefix=prefix, suffix=suffix)


@dataclass(frozen=True)
class PIDRecord:
    pid: str
    target_uri: str
    checksum: str
    object_kind: str
    version_number: int
    predecessor: str | None = None
    successor: str | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PIDRecord":
        return cls(
            pid=data["pid"],
            target_uri=data["target_uri"],
            checksum=data["checksum"],
            object_kind=data["object_kind"],
            version_number=int(data["version_number"]),
            predecessor=data.get("predecessor"),
            successor=data.get("successor"),
            metadata=dict(data.get("metadata", {})),
        )


class PIDRegistry:
    """Filesystem-backed registry for a single prefix."""

    def __init__(self, root: Path, prefix: str):
        self.root = Path(root)
        self.prefix = prefix
        self.records_dir = self.root / "records"
        self._write_lock = threading.Lock()
        try:
            self.records_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RegistryUnavailableError(f"cannot open registry at {root}: {exc}") from exc
        self._high_water_path = self.root / "high_water"
        try:
            high_water = int(self._high_water_path.read_text(encoding="utf-8"))
        except FileNotFoundError:  # nothing was ever discarded
            high_water = 0
        stems = (path.stem for path in self.records_dir.glob("*.json"))
        self._last_suffix = max(
            [high_water, *(int(stem) for stem in stems if _SUFFIX_RE.fullmatch(stem))]
        )

    # -- core operations ---------------------------------------------------

    def mint(
        self,
        object_kind: str,
        target_uri: str,
        checksum: str,
        owner: str,
        metadata: Mapping | None = None,
        predecessor: str | None = None,
        caller: identity_mod.Identity | None = None,
        orgs: Mapping[str, identity_mod.Organization] | None = None,
        permission: identity_mod.Permission | None = None,
    ) -> PIDRecord:
        """Assign a fresh suffix and store a record owned by *owner*.

        Without *predecessor* the record is version 1 of a chain of its own.
        With one, it is stored as the next version after *predecessor*,
        already chained both ways. Both must be provenance records, the
        predecessor must be the newest version (null successor), and
        ``identity.check_auth`` must pass *caller* for the chain's first
        record, whose minter is the chain's one owner: the ledger keys the
        chain by that PID and checks the same owner and grant.
        """
        if object_kind not in OBJECT_KINDS:
            raise KindMismatchError(f"unknown object kind: {object_kind!r}")
        with self._write_lock:
            previous = None
            if predecessor is not None:
                previous = self.resolve(predecessor)
                if previous.object_kind != KIND_PROVENANCE or object_kind != KIND_PROVENANCE:
                    raise KindMismatchError("version chains link provenance records only")
                if previous.successor is not None:
                    raise SuccessorExistsError(
                        f"{predecessor} already superseded by {previous.successor}"
                    )
                base = (self._follow(previous, "predecessor", {predecessor}) or [previous])[-1]
                chain_owner = base.metadata.get("owner")
                if caller is None or not identity_mod.check_auth(
                    base.pid, identity_mod.CAP_UPDATE_PROVENANCE, caller,
                    [chain_owner] if chain_owner else [], orgs or {}, permission,
                ):
                    raise UnauthorizedError(f"{owner!r} may not supersede {predecessor}")
            suffix = self._next_suffix()
            self._last_suffix = int(suffix)
            record = PIDRecord(
                pid=f"{self.prefix}/{suffix}",
                target_uri=target_uri,
                checksum=checksum,
                object_kind=object_kind,
                version_number=previous.version_number + 1 if previous else 1,
                predecessor=predecessor,
                metadata={**(metadata or {}), "owner": owner, "created_at": clock.now_iso()},
            )
            # Write the new record first: a crash between the two writes
            # leaves a record pointing back at a consistent chain rather
            # than a dangling successor.
            self._store(record)
            if previous is not None:
                self._store(replace(previous, successor=record.pid))
            return record

    def resolve(self, pid: str) -> PIDRecord:
        parsed = PID.parse(pid)
        if parsed.prefix != self.prefix:
            raise UnknownPIDError(f"PID {pid!r} is outside prefix {self.prefix!r}")
        path = self._record_path(parsed.suffix)
        if not path.exists():
            raise UnknownPIDError(f"unknown PID: {pid!r}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return PIDRecord.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            raise BrokenChainError(f"unreadable record for {pid!r}: {exc}") from exc

    def version_history(self, pid: str) -> list[PIDRecord]:
        """Full chain from version 1 to newest, from any member."""
        record = self.resolve(pid)
        seen = {record.pid}
        older = self._follow(record, "predecessor", seen)
        newer = self._follow(record, "successor", seen)
        return older[::-1] + [record] + newer

    def _follow(self, record: PIDRecord, link: str, seen: set[str]) -> list[PIDRecord]:
        """The records reached through *link* ("predecessor" or "successor")."""
        reached = []
        current = record
        while getattr(current, link) is not None:
            try:
                current = self.resolve(getattr(current, link))
            except UnknownPIDError as exc:
                raise BrokenChainError(
                    f"{link} {getattr(current, link)!r} of {current.pid} missing"
                ) from exc
            if current.pid in seen:
                raise BrokenChainError(f"version chain cycle at {current.pid}")
            seen.add(current.pid)
            reached.append(current)
        return reached

    # -- rollback ------------------------------------------------------------

    def discard(self, pid: str, caller: identity_mod.Identity) -> None:
        """Remove a record that no committed ledger write refers to.

        The one compensation step of the write coordinator's rollback. Only
        the record's owner, the identity that minted it, may discard it, and
        never once a newer version links to it. If the predecessor's
        successor points at the record, that link is cleared first, so the
        registry returns to its state before the record was minted. The
        counter's high-water mark is persisted first, so the suffix is not
        handed out again after a restart either.
        """
        with self._write_lock:
            record = self.resolve(pid)
            if record.metadata.get("owner") != caller.user_id:
                raise UnauthorizedError(f"{caller.user_id!r} did not mint {pid}")
            if record.successor is not None:
                raise SuccessorExistsError(f"{pid} has a successor; cannot discard")
            if record.predecessor is not None:
                predecessor = self.resolve(record.predecessor)
                if predecessor.successor == pid:
                    self._store(replace(predecessor, successor=None))
            self._persist_high_water()
            self._record_path(PID.parse(pid).suffix).unlink()

    def list_records(self) -> list[PIDRecord]:
        records = []
        for path in sorted(self.records_dir.glob("*.json")):
            with open(path, "r", encoding="utf-8") as fh:
                records.append(PIDRecord.from_dict(json.load(fh)))
        return records

    def state_digest(self) -> str:
        from .canonical import digest

        return digest([r.to_dict() for r in self.list_records()])

    # -- internals -----------------------------------------------------------

    def _persist_high_water(self) -> None:
        """Write the counter atomically: a temporary file, fsynced, renamed
        over the mark, then the directory fsynced."""
        temporary = self._high_water_path.with_suffix(".tmp")
        with open(temporary, "w", encoding="utf-8") as fh:
            fh.write(f"{self._last_suffix}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temporary, self._high_water_path)
        directory = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    def _next_suffix(self) -> str:
        return str(self._last_suffix + 1).zfill(_SUFFIX_WIDTH)

    def _record_path(self, suffix: str) -> Path:
        if not _SUFFIX_RE.fullmatch(suffix):
            raise UnknownPIDError(f"malformed PID suffix: {suffix!r}")
        return self.records_dir / f"{suffix}.json"

    def _store(self, record: PIDRecord) -> None:
        path = self._record_path(PID.parse(record.pid).suffix)
        try:
            path.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        except OSError as exc:
            raise RegistryUnavailableError(f"cannot persist {record.pid}: {exc}") from exc
