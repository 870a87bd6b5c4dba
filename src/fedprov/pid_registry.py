"""Handle-style persistent identifier registry with linear version chains.

One registry serves a federation under a single prefix. It holds
reservations plus a view of the committed ledger. A MINT reserves a PID: it
steps the suffix counter and writes the record file once, under
``records/<suffix>.json``. Nothing ever deletes or rewrites a record.

A record counts as committed when the ledger key of its chain holds the
record's ``version_number`` with the record's ``checksum``. That key is the
record's own PID at version 1, and otherwise the chain's first PID.
RESOLVE and HISTORY answer committed records only, so a reserved PID whose
ledger write never committed is unknown. A record's ``successor`` is
derived, never stored: it is the committed record whose ``predecessor`` it
is.

The view is a map from (ledger key, version) to checksum, built from the
committed VALID writes of the host node's ``blocks``. It advances from a
block watermark at each request, so no request scans the chain.

The suffix counter only ever rises: it is seeded at open from the highest
suffix on disk, or from a ``high_water`` file that older releases wrote,
whichever is higher. Only a suffix of ASCII digits ever becomes a file path.
"""

from __future__ import annotations

import json
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
from .ledger.blocks import VALID

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
            metadata=dict(data.get("metadata", {})),
        )


class PIDRegistry:
    """Filesystem-backed reservations for a single prefix, answered through
    the committed blocks of *ledger* (an ``OrgNode``, or anything with a
    ``blocks`` list of committed blocks)."""

    def __init__(self, root: Path, prefix: str, ledger):
        self.root = Path(root)
        self.prefix = prefix
        self.ledger = ledger
        self.records_dir = self.root / "records"
        self._write_lock = threading.Lock()
        self._view_lock = threading.Lock()
        self._committed: dict[tuple[str, int], str] = {}  # (ledger key, version) -> checksum
        self._blocks_seen = 0
        self._predecessor: dict[str, str] = {}  # pid -> predecessor, for versions after the first
        self._reserved: dict[tuple[str, str], str] = {}  # (predecessor, checksum) -> pid
        try:
            self.records_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RegistryUnavailableError(f"cannot open registry at {root}: {exc}") from exc
        try:  # written by releases that could discard a record
            high_water = int((self.root / "high_water").read_text(encoding="utf-8"))
        except FileNotFoundError:
            high_water = 0
        self._last_suffix = high_water
        for path in sorted(self.records_dir.glob("*.json")):
            if not _SUFFIX_RE.fullmatch(path.stem):
                continue
            self._last_suffix = max(self._last_suffix, int(path.stem))
            try:
                record = self._load(path)
            except BrokenChainError:
                continue  # unindexed; resolving it reports the damage
            if record.predecessor is not None:
                self._index(record)

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
        """Reserve a fresh suffix for a record owned by *owner*.

        Without *predecessor* the record is version 1 of a chain of its own.
        With one, it is the next version after *predecessor*. Both must be
        provenance records, the predecessor must be committed and newest,
        and ``identity.check_auth`` must pass *caller* for the chain's first
        record, whose minter is the chain's one owner: the ledger keys the
        chain by that PID and checks the same owner and grant. A next
        version whose predecessor and checksum match an existing reservation
        is that reservation, still owned by its first reserver, so a retried
        update names one PID.
        """
        if object_kind not in OBJECT_KINDS:
            raise KindMismatchError(f"unknown object kind: {object_kind!r}")
        with self._write_lock:
            previous = None
            if predecessor is not None:
                previous = self.resolve(predecessor)
                if previous.object_kind != KIND_PROVENANCE or object_kind != KIND_PROVENANCE:
                    raise KindMismatchError("version chains link provenance records only")
                key = self._chain_key(previous.pid)
                if (key, previous.version_number + 1) in self._committed:
                    raise SuccessorExistsError(
                        f"{predecessor} already superseded by version "
                        f"{previous.version_number + 1}"
                    )
                chain_owner = self._read(key).metadata.get("owner")
                if caller is None or not identity_mod.check_auth(
                    key, identity_mod.CAP_UPDATE_PROVENANCE, caller,
                    [chain_owner] if chain_owner else [], orgs or {}, permission,
                ):
                    raise UnauthorizedError(f"{owner!r} may not supersede {predecessor}")
                reserved = self._reserved.get((predecessor, checksum))
                if reserved is not None:
                    return self._read(reserved)
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
            self._store(record)
            if predecessor is not None:
                self._index(record)
            return record

    def resolve(self, pid: str) -> PIDRecord:
        """The committed record *pid*, its successor derived."""
        record = self._read(pid)
        key = self._chain_key(record.pid)
        self._advance()
        if self._committed.get((key, record.version_number)) != record.checksum:
            raise UnknownPIDError(f"unknown PID: {pid!r} (no committed ledger write)")
        return replace(record, successor=self._successor(record, key))

    def version_history(self, pid: str) -> list[PIDRecord]:
        """Full committed chain from version 1 to newest, from any member."""
        record = self.resolve(pid)
        key = self._chain_key(record.pid)
        chain = [record]
        while chain[0].predecessor is not None:
            chain.insert(0, self._linked(chain[0].predecessor, "predecessor", chain[0].pid))
        while chain[-1].successor is not None:
            newer = self._linked(chain[-1].successor, "successor", chain[-1].pid)
            chain.append(replace(newer, successor=self._successor(newer, key)))
        return [
            replace(older, successor=newer.pid) for older, newer in zip(chain, chain[1:])
        ] + [chain[-1]]

    def list_records(self) -> list[PIDRecord]:
        """Every committed record, in suffix order."""
        records = []
        for path in sorted(self.records_dir.glob("*.json")):
            try:
                records.append(self.resolve(f"{self.prefix}/{path.stem}"))
            except UnknownPIDError:
                continue  # a reservation that never committed
        return records

    def state_digest(self) -> str:
        from .canonical import digest

        return digest([r.to_dict() for r in self.list_records()])

    # -- the committed view ----------------------------------------------------

    def _advance(self) -> None:
        """Take in the writes of the blocks committed since the last request."""
        with self._view_lock:
            new_blocks = self.ledger.blocks[self._blocks_seen:]
            for block in new_blocks:
                for tx in block.transactions:
                    if tx.get("validation") != VALID:
                        continue
                    for key, value in tx["result"]["writes"].items():
                        self._committed[(key, value["version"])] = value["checksum"]
            self._blocks_seen += len(new_blocks)

    def _chain_key(self, pid: str) -> str:
        """The ledger key of *pid*'s chain: the chain's first PID."""
        seen = {pid}
        while pid in self._predecessor:
            pid = self._predecessor[pid]
            if pid in seen:
                raise BrokenChainError(f"version chain cycle at {pid}")
            seen.add(pid)
        return pid

    def _successor(self, record: PIDRecord, key: str) -> str | None:
        checksum = self._committed.get((key, record.version_number + 1))
        return None if checksum is None else self._reserved.get((record.pid, checksum))

    def _linked(self, pid: str, link: str, holder: str) -> PIDRecord:
        try:
            return self._read(pid)
        except UnknownPIDError as exc:
            raise BrokenChainError(f"{link} {pid!r} of {holder} missing") from exc

    # -- record files ----------------------------------------------------------

    def _index(self, record: PIDRecord) -> None:
        self._predecessor[record.pid] = record.predecessor
        self._reserved.setdefault((record.predecessor, record.checksum), record.pid)

    def _read(self, pid: str) -> PIDRecord:
        parsed = PID.parse(pid)
        if parsed.prefix != self.prefix:
            raise UnknownPIDError(f"PID {pid!r} is outside prefix {self.prefix!r}")
        path = self._record_path(parsed.suffix)
        if not path.exists():
            raise UnknownPIDError(f"unknown PID: {pid!r}")
        return self._load(path)

    @staticmethod
    def _load(path: Path) -> PIDRecord:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return PIDRecord.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            raise BrokenChainError(f"unreadable record {path.name}: {exc}") from exc

    def _next_suffix(self) -> str:
        return str(self._last_suffix + 1).zfill(_SUFFIX_WIDTH)

    def _record_path(self, suffix: str) -> Path:
        if not _SUFFIX_RE.fullmatch(suffix):
            raise UnknownPIDError(f"malformed PID suffix: {suffix!r}")
        return self.records_dir / f"{suffix}.json"

    def _store(self, record: PIDRecord) -> None:
        path = self._record_path(PID.parse(record.pid).suffix)
        data = record.to_dict()
        del data["successor"]  # derived from the ledger, never stored
        try:
            path.write_text(json.dumps(data, indent=2, sort_keys=True))
        except OSError as exc:
            raise RegistryUnavailableError(f"cannot persist {record.pid}: {exc}") from exc
