"""Hash-chained blocks, the append-only block file, and chain verification.

Every byte persisted for a block is covered by something recomputable:

* transaction bodies by the transaction id and the client signature,
* simulation results by the endorsers' signatures over the result digest,
* the transaction list and order by the data hash,
* the header by the block hash and the predecessor link,
* validation flags by deterministic replay of the whole chain.

``verify_chain_file`` therefore detects any single-bit mutation of a
persisted ledger and reports the first height at which evidence diverges.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .. import crypto, identity as identity_mod
from ..canonical import ZERO_DIGEST, canonical_bytes, digest
from .chaincode import SimulationResult
from .policy import policy_satisfied
from .values import LedgerValue

VALID = "VALID"
READ_WRITE_CONFLICT = "INVALID:read-write-conflict"

Verifier = Callable[[str, str, bytes], bool]

# What reading a wrongly typed JSON field raises (a list's ``.get``, a missing
# key, an unhashable dict key); a ledger file holding one gets a finding.
MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def tx_id_for(body: Mapping) -> str:
    return digest(body)


def compute_data_hash(tx_ids: Iterable[str]) -> str:
    return digest(list(tx_ids))


def compute_block_hash(height: int, prev_hash: str, data_hash: str) -> str:
    return digest({"data_hash": data_hash, "height": height, "prev_hash": prev_hash})


def endorsement_payload(tx_id: str, result_digest: str) -> bytes:
    return canonical_bytes({"result_digest": result_digest, "tx_id": tx_id})


@dataclass
class Block:
    height: int
    prev_hash: str
    data_hash: str
    block_hash: str
    transactions: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash,
            "data_hash": self.data_hash,
            "block_hash": self.block_hash,
            "transactions": self.transactions,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Block":
        return cls(
            height=int(data["height"]),
            prev_hash=data["prev_hash"],
            data_hash=data["data_hash"],
            block_hash=data["block_hash"],
            transactions=list(data["transactions"]),
        )


def genesis_block() -> Block:
    data_hash = compute_data_hash([])
    return Block(
        height=0,
        prev_hash=ZERO_DIGEST,
        data_hash=data_hash,
        block_hash=compute_block_hash(0, ZERO_DIGEST, data_hash),
        transactions=[],
    )


def make_block(height: int, prev_hash: str, transactions: list[dict]) -> Block:
    data_hash = compute_data_hash([tx["tx_id"] for tx in transactions])
    return Block(
        height=height,
        prev_hash=prev_hash,
        data_hash=data_hash,
        block_hash=compute_block_hash(height, prev_hash, data_hash),
        transactions=transactions,
    )


class BlockStore:
    """Append-only file of canonical JSON blocks, one per line."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, block: Block) -> None:
        with open(self.path, "ab") as fh:
            fh.write(canonical_bytes(block.to_dict()) + b"\n")

    def load(self) -> list[Block]:
        if not self.path.exists():
            return []
        blocks = []
        with open(self.path, "rb") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    blocks.append(Block.from_dict(json.loads(line.decode("utf-8"))))
        return blocks


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    height: int
    problem: str

    def to_dict(self) -> dict:
        return {"height": self.height, "problem": self.problem}


@dataclass
class VerificationReport:
    ok: bool
    first_divergent_height: int | None
    findings: list[Finding]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "first_divergent_height": self.first_divergent_height,
            "findings": [f.to_dict() for f in self.findings],
        }


def verify_chain_file(
    path: Path,
    orgs: Mapping[str, identity_mod.Organization],
    endorsement_policy: str,
) -> VerificationReport:
    """Re-verify a persisted ledger from its raw bytes."""
    verify = _memoized_verifier()
    findings: list[Finding] = []
    raw_lines: list[bytes] = []
    path = Path(path)
    if path.exists():
        payload = path.read_bytes()
        raw_lines = [line for line in payload.split(b"\n") if line.strip()]
    else:
        findings.append(Finding(0, "ledger file missing"))

    state: dict[str, LedgerValue] = {}
    prev_stored_hash: str | None = None
    for index, raw in enumerate(raw_lines):
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            findings.append(Finding(index, "unparseable block record"))
            prev_stored_hash = None
            continue
        if canonical_bytes(record) != raw:
            # The store only ever writes canonical JSON; anything else is a
            # byte-level mutation even if it parses.
            findings.append(Finding(index, "block encoding not canonical"))
        block_findings, block = _check_block(record, index, prev_stored_hash, orgs, verify)
        findings.extend(block_findings)
        if block is None:
            prev_stored_hash = None
            continue
        prev_stored_hash = record.get("block_hash")
        findings.extend(_replay_block(block, state, orgs, endorsement_policy, verify))

    first = min((f.height for f in findings), default=None)
    return VerificationReport(ok=not findings, first_divergent_height=first, findings=findings)


def _memoized_verifier() -> Verifier:
    """``crypto.verify`` that checks each distinct (key, signature, message) once.

    One chain verification checks the same few certificates on every
    transaction and each endorsement twice (signatures, then replay); those
    repeats become lookups. Results, failures included, are keyed on the
    exact inputs, so a signature reused over another message or a
    certificate claimed under another identity is checked afresh. The cache
    lives for one ``verify_chain_file`` call and holds at most one entry per
    signature in the file.
    """
    results: dict[tuple[str, str, bytes], bool] = {}

    def verify(public_hex: str, signature_hex: str, message: bytes) -> bool:
        if not isinstance(public_hex, str) or not isinstance(signature_hex, str):
            return False  # unhashable or non-hex JSON; crypto.verify refuses it too
        key = (public_hex, signature_hex, message)
        if key not in results:
            results[key] = crypto.verify(public_hex, signature_hex, message)
        return results[key]

    return verify


def _check_block(
    record: Mapping,
    index: int,
    prev_stored_hash: str | None,
    orgs: Mapping[str, identity_mod.Organization],
    verify: Verifier,
) -> tuple[list[Finding], Block | None]:
    findings: list[Finding] = []
    try:
        block = Block.from_dict(record)
    except MALFORMED:
        return [Finding(index, "malformed block structure")], None

    if block.height != index:
        findings.append(Finding(index, f"height field {block.height} at position {index}"))
    if index == 0:
        if block.prev_hash != ZERO_DIGEST:
            findings.append(Finding(index, "genesis prev_hash is not the zero digest"))
    elif prev_stored_hash is not None and block.prev_hash != prev_stored_hash:
        findings.append(Finding(index, "prev_hash does not match predecessor block hash"))

    tx_ids = []
    for position, tx in enumerate(block.transactions):
        try:
            body = tx.get("body", {})
            recomputed = tx_id_for(body)
            stored = tx.get("tx_id")
            if stored != recomputed:
                findings.append(Finding(index, f"tx {position}: tx_id does not match body"))
            tx_ids.append(stored)
            findings.extend(_check_tx_signatures(tx, index, position, orgs, verify))
        except MALFORMED:
            findings.append(Finding(index, f"tx {position}: malformed transaction"))

    data_hash = compute_data_hash(tx_ids)
    if data_hash != block.data_hash:
        findings.append(Finding(index, "data_hash does not match transaction ids"))
    block_hash = compute_block_hash(block.height, block.prev_hash, block.data_hash)
    if block_hash != block.block_hash:
        findings.append(Finding(index, "block_hash does not match header"))
    return findings, block


_LOWER_HEX = re.compile(r"^[0-9a-f]+$")


def _hex_finding(height: int, label: str, field: str, value: object) -> Finding | None:
    # bytes.fromhex is case-insensitive, so key material must additionally be
    # pinned to lowercase or a case-flipped byte would verify unnoticed.
    if not isinstance(value, str) or not _LOWER_HEX.match(value):
        return Finding(height, f"{label}: {field} is not lowercase hex")
    return None


def _check_tx_signatures(
    tx: Mapping,
    height: int,
    position: int,
    orgs: Mapping[str, identity_mod.Organization],
    verify: Verifier,
) -> list[Finding]:
    findings = []
    body = tx.get("body", {})
    label = f"tx {position}"
    identity = identity_mod.Identity.from_creator(body.get("creator", {}), orgs)
    if not identity_mod.verify_identity(identity, orgs, verify):
        findings.append(Finding(height, f"{label}: creator certificate invalid"))
    bad_hex = _hex_finding(height, label, "client signature", tx.get("signature"))
    if bad_hex:
        findings.append(bad_hex)
    if not verify(identity.public_key, tx.get("signature", ""), canonical_bytes(body)):
        findings.append(Finding(height, f"{label}: client signature invalid"))

    result = tx.get("result", {})
    result_digest = SimulationResult.from_dict(result).result_digest() if result else ""
    for endorsement in tx.get("endorsements", []):
        for field_name in ("signature", "node_public_key", "node_certificate"):
            bad_hex = _hex_finding(
                height, label, f"endorsement {field_name}", endorsement.get(field_name)
            )
            if bad_hex:
                findings.append(bad_hex)
        node_identity = _certified_endorser(endorsement, orgs, verify)
        if node_identity is None:
            findings.append(Finding(height, f"{label}: endorsement certificate invalid"))
            continue
        payload = endorsement_payload(tx.get("tx_id", ""), result_digest)
        if not verify(node_identity.public_key, endorsement.get("signature", ""), payload):
            findings.append(Finding(height, f"{label}: endorsement signature invalid"))
    return findings


def _certified_endorser(
    endorsement: Mapping,
    orgs: Mapping[str, identity_mod.Organization],
    verify: Verifier,
) -> identity_mod.Identity | None:
    """The endorsing node's identity, or None unless its certificate verifies."""
    node_identity = identity_mod.Identity(
        user_id=endorsement.get("node_id", ""),
        org=endorsement.get("org", ""),
        public_key=endorsement.get("node_public_key", ""),
        certificate=endorsement.get("node_certificate", ""),
    )
    if not identity_mod.verify_identity(node_identity, orgs, verify):
        return None
    return node_identity


def _replay_block(
    block: Block,
    state: dict[str, LedgerValue],
    orgs: Mapping[str, identity_mod.Organization],
    endorsement_policy: str,
    verify: Verifier,
) -> list[Finding]:
    findings = []
    for position, tx in enumerate(block.transactions):
        try:
            expected = validate_tx(tx, state, orgs, endorsement_policy, verify)
            stored = tx.get("validation")
            if stored != expected:
                findings.append(
                    Finding(
                        block.height,
                        f"tx {position}: stored validation {stored!r}, replay says {expected!r}",
                    )
                )
            if expected == VALID:
                writes = tx.get("result", {}).get("writes", {})
                state.update({pid: LedgerValue.from_dict(v) for pid, v in writes.items()})
        except MALFORMED:
            findings.append(Finding(block.height, f"tx {position}: replay of malformed transaction"))
    return findings


def validate_tx(
    tx: Mapping,
    state: Mapping[str, LedgerValue],
    orgs: Mapping[str, identity_mod.Organization],
    endorsement_policy: str,
    verify: Verifier = crypto.verify,
) -> str:
    """Deterministic commit-time validation: endorsement policy + read set."""
    result = tx.get("result", {})
    endorsing_orgs = set()
    result_digest = SimulationResult.from_dict(result).result_digest() if result else ""
    for endorsement in tx.get("endorsements", []):
        node_identity = _certified_endorser(endorsement, orgs, verify)
        if node_identity is None:
            continue
        payload = endorsement_payload(tx.get("tx_id", ""), result_digest)
        if verify(node_identity.public_key, endorsement.get("signature", ""), payload):
            endorsing_orgs.add(endorsement["org"])
    if not policy_satisfied(endorsing_orgs, orgs, endorsement_policy):
        return "INVALID:endorsement-policy-unmet"

    for pid, version in result.get("reads", {}).items():
        current = state.get(pid)
        current_version = current.version if current else None
        if current_version != version:
            return READ_WRITE_CONFLICT
    return VALID
