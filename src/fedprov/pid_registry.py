"""Handle-style persistent identifier registry: a suffix counter plus an
index of committed transactions.

One registry serves a federation under a single prefix. A MINT reserves a
PID: it steps the suffix counter and writes ``records/<suffix>.json`` once,
holding the PID and its minter (``metadata: {owner, created_at}``). A
suffix that the ledger named before it was reserved is skipped, and gets a
record without an owner, so it never resolves. Nothing ever deletes or
rewrites a record: when the ledger names a suffix at or below the counter
whose record file is missing, RESOLVE and HISTORY of its chain raise
``BrokenChainError``.

The ledger names every PID. The index takes in the committed VALID
transactions of the host node, read through its ``committed_since``: a
version-1 write names its own key, and an ``update-prov`` names
``args.new_pid`` at its key and version.
A naming counts only when the committing transaction's creator is the PID's
minter, and the first such naming of a PID is its place. A chain's versions
count from version 1 up to the first version that names no PID placed
there. RESOLVE and HISTORY answer counted PIDs only, so a reservation whose
write never committed is unknown. They take URI, checksum, kind, version,
predecessor and successor from the index, and the metadata from the record
file, read once. The index advances from a block watermark at each request,
so no request scans the chain, and opening reads no record file.

Ledgers written before ``update-prov`` carried ``new_pid`` hold updates that
name no PID. Such a version names the record file whose ``predecessor`` is
the previous version's PID and whose ``checksum`` is the written one, lowest
suffix first, found in one scan of the record files made the first time such
an update is met; its minter is not checked.

The suffix counter only ever rises: it is seeded at open from the highest
suffix among the record file names, or from a ``high_water`` file that older
releases wrote, whichever is higher. Only a suffix of ASCII digits ever
becomes a file path.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import clock
from .errors import BrokenChainError, RegistryUnavailableError, UnknownPIDError
from .ledger.blocks import VALID
from .ledger.chaincode import TX_UPDATE_PROV

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


class PIDRegistry:
    """Filesystem-backed reservations for a single prefix, answered through
    the committed blocks of *ledger* (an ``OrgNode``, or anything whose
    ``committed_since(height)`` lists its committed blocks from *height*)."""

    def __init__(self, root: Path, prefix: str, ledger):
        self.root = Path(root)
        self.prefix = prefix
        self.ledger = ledger
        self.records_dir = self.root / "records"
        self._lock = threading.Lock()
        self._blocks_seen = 0
        # (ledger key, version) -> (the PID it names, the written uri, checksum, kind)
        self._versions: dict[tuple[str, int], tuple[str | None, str, str, str]] = {}
        # pid -> (ledger key, version, creator) of each naming, in commit order
        self._namings: dict[str, list[tuple[str, int, str | None]]] = {}
        self._metadata: dict[str, dict] = {}  # pid -> its record file's metadata
        self._legacy: dict[tuple[str, str], str] | None = None  # (predecessor, checksum) -> pid
        try:
            self.records_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RegistryUnavailableError(f"cannot open registry at {root}: {exc}") from exc
        try:  # written by releases that could discard a record
            high_water = int((self.root / "high_water").read_text(encoding="utf-8"))
        except FileNotFoundError:
            high_water = 0
        suffixes = [int(p.stem) for p in self.records_dir.glob("*.json")
                    if _SUFFIX_RE.fullmatch(p.stem)]
        self._last_suffix = max([high_water, *suffixes])

    # -- core operations ---------------------------------------------------

    def mint(self, owner: str) -> dict:
        """Reserve a fresh suffix for *owner*; the reservation's record.

        A suffix that a committed transaction already names is skipped, so
        every naming of a PID was committed after the PID was reserved. Each
        skipped suffix gets a record without an owner: it never resolves,
        and it is told apart from a record file that went missing.
        """
        with self._lock:
            self._advance()
            while f"{self.prefix}/{self._next_suffix()}" in self._namings:
                self._write_record({})
            return self._write_record({"owner": owner, "created_at": clock.now_iso()})

    def resolve(self, pid: str) -> PIDRecord:
        """The committed record *pid*."""
        with self._lock:
            key, version, chain = self._counted(pid)
            return self._record(key, chain, version - 1)

    def version_history(self, pid: str) -> list[PIDRecord]:
        """Full committed chain from version 1 to newest, from any member."""
        with self._lock:
            key, _, chain = self._counted(pid)
            return [self._record(key, chain, index) for index in range(len(chain))]

    def list_records(self) -> list[PIDRecord]:
        """Every committed record, in PID order."""
        with self._lock:
            self._advance()
            pids = sorted(self._namings)
        records = []
        for pid in pids:
            try:
                records.append(self.resolve(pid))
            except UnknownPIDError:
                continue  # named, but not by its minter
        return records

    def state_digest(self) -> str:
        from .canonical import digest

        return digest([r.to_dict() for r in self.list_records()])

    # -- the index of committed transactions --------------------------------------

    def _advance(self) -> None:
        """Take in the transactions of the blocks committed since the last request."""
        new_blocks = self.ledger.committed_since(self._blocks_seen)
        for block in new_blocks:
            for tx in block.transactions:
                if tx.get("validation") != VALID:
                    continue
                body = tx["body"]
                creator = body["creator"]["user_id"]
                for key, value in tx["result"]["writes"].items():
                    version = value["version"]
                    if version == 1:
                        self._name(key, key, version, value, creator)
                    elif body["kind"] == TX_UPDATE_PROV:
                        pid = body["args"].get("new_pid")
                        if pid is None:
                            pid, creator = self._legacy_pid(key, version, value), None
                        self._name(pid, key, version, value, creator)
        self._blocks_seen += len(new_blocks)

    def _name(self, pid: str | None, key: str, version: int, value: dict,
              creator: str | None) -> None:
        self._versions[(key, version)] = (pid, value["uri"], value["checksum"], value["kind"])
        if pid is not None:
            self._namings.setdefault(pid, []).append((key, version, creator))

    def _counted(self, pid: str) -> tuple[str, int, list[str]]:
        """*pid*'s (ledger key, version) and its chain's counted PIDs."""
        PID.parse(pid)
        self._advance()
        place = self._place(pid)
        chain = self._chain(place[0]) if place else []
        if not place or len(chain) < place[1]:
            raise UnknownPIDError(f"unknown PID: {pid!r} (no committed ledger write)")
        return place[0], place[1], chain

    def _place(self, pid: str) -> tuple[str, int] | None:
        """Where *pid* is placed: its first naming by its minter."""
        namings = self._namings.get(pid)
        minter = self._minter(pid) if namings else None
        if minter is None:
            return None
        return next(
            ((key, version) for key, version, creator in namings
             if creator in (minter, None)),
            None,
        )

    def _chain(self, key: str) -> list[str]:
        """The PIDs of *key*'s versions, from version 1 up to the first
        version that names no PID placed there."""
        chain: list[str] = []
        while (key, len(chain) + 1) in self._versions:
            pid = self._versions[(key, len(chain) + 1)][0]
            if pid is None or self._place(pid) != (key, len(chain) + 1):
                break
            chain.append(pid)
        return chain

    def _record(self, key: str, chain: list[str], index: int) -> PIDRecord:
        _, uri, checksum, kind = self._versions[(key, index + 1)]
        return PIDRecord(
            pid=chain[index],
            target_uri=uri,
            checksum=checksum,
            object_kind=kind,
            version_number=index + 1,
            predecessor=chain[index - 1] if index else None,
            successor=chain[index + 1] if index + 1 < len(chain) else None,
            metadata=dict(self._metadata[chain[index]]),
        )

    def _legacy_pid(self, key: str, version: int, value: dict) -> str | None:
        """The PID of a version an update without ``new_pid`` wrote."""
        if self._legacy is None:
            self._legacy = {}
            paths = [p for p in self.records_dir.glob("*.json") if _SUFFIX_RE.fullmatch(p.stem)]
            for path in sorted(paths, key=lambda p: int(p.stem)):
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    link = (data["predecessor"], data["checksum"])
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # a record of this release, or an unreadable one
                if link[0] is not None:
                    self._legacy.setdefault(link, f"{self.prefix}/{path.stem}")
        previous = self._versions.get((key, version - 1), (None,))[0]
        return self._legacy.get((previous, value["checksum"]))

    # -- record files ----------------------------------------------------------

    def _write_record(self, metadata: dict) -> dict:
        """Write the record of the next suffix, then step the counter."""
        suffix = self._next_suffix()
        pid = f"{self.prefix}/{suffix}"
        record = {"pid": pid, "metadata": metadata}
        try:
            self._record_path(suffix).write_text(json.dumps(record, indent=2, sort_keys=True))
        except OSError as exc:
            raise RegistryUnavailableError(f"cannot persist {pid}: {exc}") from exc
        self._last_suffix = int(suffix)
        self._metadata[pid] = metadata
        return record

    def _minter(self, pid: str) -> str | None:
        """The owner in *pid*'s record file; None if the suffix was never
        handed out. A record file missing at or below the counter is damage."""
        if pid not in self._metadata:
            prefix, _, suffix = pid.partition("/")
            if prefix != self.prefix or not _SUFFIX_RE.fullmatch(suffix):
                return None
            path = self._record_path(suffix)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    self._metadata[pid] = dict(json.load(fh)["metadata"])
            except FileNotFoundError as exc:
                if int(suffix) > self._last_suffix:
                    return None
                raise BrokenChainError(f"record {path.name} of {pid} missing") from exc
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise BrokenChainError(f"unreadable record {path.name}: {exc}") from exc
        return self._metadata[pid].get("owner")

    def _next_suffix(self) -> str:
        return str(self._last_suffix + 1).zfill(_SUFFIX_WIDTH)

    def _record_path(self, suffix: str) -> Path:
        return self.records_dir / f"{suffix}.json"
