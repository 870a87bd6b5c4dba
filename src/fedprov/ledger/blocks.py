"""Hash-chained blocks, the append-only block file, and block validation.

Every byte persisted for a block is covered by something recomputable:

* transaction bodies by the transaction id and the client signature,
* simulation results by the endorsers' signatures over the result digest,
* the transaction list and order by the data hash,
* the header by the block hash and the predecessor link,
* validation flags by deterministic replay of the whole chain,
* the line structure by the rule: one block per line, each with its line end,
* everything else by its absence: a block record, a transaction, its result
  and each endorsement may carry only the keys listed below.

``validate_block`` is the one block-validation routine: ``OrgNode.commit``,
node start-up and ``verify_chain_file`` all go through it, so a replica
accepts exactly the ledger an audit accepts. It has two parts.

* Integrity: the header, the predecessor link, the data hash and, per
  transaction, ``check_tx`` (known keys only, id, creator certificate,
  client signature, and every endorsement's certificate and signature).
  An integrity failure is never a validation flag. The ordering service
  refuses such an envelope at ORDER, a node rejects a block holding one, a
  node refuses to start on a ledger file holding one, and
  ``verify_chain_file`` reports it.
* Apply: ``validate_tx`` flags each transaction by the endorsement policy
  over its already verified endorsements and by its read set, and the VALID
  writes go into the state. Flags cover only these two rules.

``verify_chain_file`` therefore detects any single-bit mutation of a
persisted ledger and reports the first height at which evidence diverges.
It always replays from genesis; a node spares it on a file whose every byte
is a line the node itself already validated (see ``OrgNode.verify_chain``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .. import crypto, identity as identity_mod
from ..canonical import ZERO_DIGEST, canonical_bytes, digest
from .chaincode import SimulationResult
from .policy import policy_satisfied
from .values import LedgerValue

VALID = "VALID"
READ_WRITE_CONFLICT = "INVALID:read-write-conflict"

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

    def append(self, block: Block) -> bytes:
        """Write *block* as the file's last line; the line written."""
        line = canonical_bytes(block.to_dict()) + b"\n"
        with open(self.path, "ab") as fh:
            fh.write(line)
        return line


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
    # A clean audit's last (height, block hash), which a node checks against
    # its own tip; neither compared nor serialized.
    tip: tuple[int, str | None] | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "first_divergent_height": self.first_divergent_height,
            "findings": [f.to_dict() for f in self.findings],
        }


# The only keys each part of a transaction may carry: every one is covered
# by the transaction id, a signature or replay, so no other byte can ride
# along unchecked.
TX_KEYS = frozenset({"tx_id", "body", "signature", "result", "endorsements"})
STORED_TX_KEYS = TX_KEYS | {"validation"}
RESULT_KEYS = frozenset({"message", "reads", "writes"})
ENDORSEMENT_KEYS = frozenset({"org", "node_id", "node_public_key", "node_certificate", "signature"})
BLOCK_KEYS = frozenset({"height", "prev_hash", "data_hash", "block_hash", "transactions"})


def check_tx(
    tx: Mapping, orgs: Mapping[str, identity_mod.Organization], stored: bool = False
) -> list[str]:
    """The integrity problems of one transaction; empty if it is sound.

    *tx* is a stored transaction (*stored*: it may carry its validation
    flag) or an envelope sent to ORDER. It, its result and each endorsement
    may carry only their known keys. Its id must be its body's digest, its
    creator's certificate and its client signature over the body must
    verify, and so must every endorsement's certificate and its signature
    over (id, result digest). A wrongly typed field, or a missing result or
    endorsement list, is the problem "malformed transaction", never an
    exception.
    """
    problems: list[str] = []
    try:
        problems += _uncovered("transaction", tx, STORED_TX_KEYS if stored else TX_KEYS)
        body = tx.get("body", {})
        if tx.get("tx_id") != tx_id_for(body):
            problems.append("tx_id does not match body")
        creator = identity_mod.Identity.from_creator(body.get("creator", {}))
        if not identity_mod.verify_identity(creator, orgs):
            problems.append("creator certificate invalid")
        if not _lower_hex(tx.get("signature")):
            problems.append("client signature is not lowercase hex")
        if not crypto.verify(creator.public_key, tx.get("signature", ""), canonical_bytes(body)):
            problems.append("client signature invalid")

        problems += _uncovered("result", tx["result"], RESULT_KEYS)
        result_digest = SimulationResult.from_dict(tx["result"]).result_digest()
        payload = endorsement_payload(tx.get("tx_id", ""), result_digest)
        for endorsement in tx["endorsements"]:
            problems += _uncovered("endorsement", endorsement, ENDORSEMENT_KEYS)
            for field_name in ("signature", "node_public_key", "node_certificate"):
                if not _lower_hex(endorsement.get(field_name)):
                    problems.append(f"endorsement {field_name} is not lowercase hex")
            endorser = identity_mod.Identity(
                user_id=endorsement.get("node_id", ""),
                org=endorsement.get("org", ""),
                public_key=endorsement.get("node_public_key", ""),
                certificate=endorsement.get("node_certificate", ""),
            )
            if not identity_mod.verify_identity(endorser, orgs):
                problems.append("endorsement certificate invalid")
            elif not crypto.verify(endorser.public_key, endorsement.get("signature", ""), payload):
                problems.append("endorsement signature invalid")
    except MALFORMED:
        problems.append("malformed transaction")
    return problems


def _uncovered(what: str, value: Mapping, allowed: frozenset[str]) -> list[str]:
    extra = sorted(set(value.keys()) - allowed)
    return [f"{what} carries uncovered keys {extra}"] if extra else []


_LOWER_HEX = re.compile(r"[0-9a-f]+")


def _lower_hex(value: object) -> bool:
    # bytes.fromhex is case-insensitive and skips whitespace, so key material
    # must additionally be pinned to lowercase hex digits only, or a
    # case-flipped byte or an appended "\n" would verify unnoticed.
    return isinstance(value, str) and _LOWER_HEX.fullmatch(value) is not None


def validate_tx(
    tx: Mapping,
    state: Mapping[str, LedgerValue],
    orgs: Mapping[str, identity_mod.Organization],
    endorsement_policy: str,
) -> str:
    """The validation flag of a transaction: endorsement policy, then read set.

    Signatures are ``check_tx``'s business; here every endorsement counts
    for the organization it names.
    """
    endorsing_orgs = {endorsement.get("org") for endorsement in tx["endorsements"]}
    if not policy_satisfied(endorsing_orgs, orgs, endorsement_policy):
        return "INVALID:endorsement-policy-unmet"

    for pid, version in tx["result"].get("reads", {}).items():
        current = state.get(pid)
        current_version = current.version if current else None
        if current_version != version:
            return READ_WRITE_CONFLICT
    return VALID


def validate_block(
    block: Block,
    height: int,
    prev_hash: str | None,
    state: dict[str, LedgerValue],
    orgs: Mapping[str, identity_mod.Organization],
    endorsement_policy: str,
    validate: Callable[..., str] = validate_tx,
    commit: bool = False,
) -> list[Finding]:
    """Check one block, flag its transactions and apply the VALID writes to *state*.

    The block should sit at *height*, after a block whose hash is
    *prev_hash* (None: not known, so not checked). With *commit*, the block
    comes fresh from the orderer and each transaction is given its flag;
    otherwise each stored flag must equal the one computed. *validate* is
    ``validate_tx``; a node passes its own module's binding of it. Returns
    the findings, integrity first; *state* is updated even when there are
    some, so an audit can go on past them.
    """
    findings: list[Finding] = []
    if block.height != height:
        findings.append(Finding(height, f"height field {block.height} at position {height}"))
    if height == 0:
        if block.prev_hash != ZERO_DIGEST:
            findings.append(Finding(height, "genesis prev_hash is not the zero digest"))
    elif prev_hash is not None and block.prev_hash != prev_hash:
        findings.append(Finding(height, "prev_hash does not match predecessor block hash"))
    for position, tx in enumerate(block.transactions):
        findings.extend(
            Finding(height, f"tx {position}: {problem}")
            for problem in check_tx(tx, orgs, stored=True)
        )
    tx_ids = [tx.get("tx_id") if isinstance(tx, Mapping) else None for tx in block.transactions]
    if compute_data_hash(tx_ids) != block.data_hash:
        findings.append(Finding(height, "data_hash does not match transaction ids"))
    if compute_block_hash(block.height, block.prev_hash, block.data_hash) != block.block_hash:
        findings.append(Finding(height, "block_hash does not match header"))

    for position, tx in enumerate(block.transactions):
        try:
            flag = validate(tx, state, orgs, endorsement_policy)
            if commit:
                tx["validation"] = flag
            elif tx.get("validation") != flag:
                findings.append(
                    Finding(
                        height,
                        f"tx {position}: stored validation {tx.get('validation')!r}, "
                        f"replay says {flag!r}",
                    )
                )
            if flag == VALID:
                writes = tx["result"].get("writes", {})
                state.update({pid: LedgerValue.from_dict(v) for pid, v in writes.items()})
        except MALFORMED:
            findings.append(Finding(height, f"tx {position}: replay of malformed transaction"))
    return findings


def _lines(data: bytes) -> Iterator[bytes]:
    """Every line of *data*, with its line end if it has one, copied one at
    a time, so a replay holds the ledger's bytes once rather than twice."""
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset) + 1 or len(data)
        yield data[offset:end]
        offset = end


def replay_chain(
    data: bytes,
    orgs: Mapping[str, identity_mod.Organization],
    endorsement_policy: str,
    state: dict[str, LedgerValue],
    validate: Callable[..., str] = validate_tx,
) -> Iterator[tuple[Block | None, bytes, list[Finding]]]:
    """Walk a persisted ledger's raw bytes through ``validate_block``, from
    genesis on, applying each block to *state* (empty at the start).

    Every line is one block, so a blank line is an unparseable one. Yields
    each block (None if its line does not parse as one) with its line and
    its findings, and leaves *state* as the blocks read so far left it.
    """
    prev_hash = None
    for index, line in enumerate(_lines(data)):
        findings = []
        if not line.endswith(b"\n"):
            # The next append would land on this same line.
            findings.append(Finding(index, "block record has no line end"))
        raw = line.removesuffix(b"\n")
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            prev_hash = None
            yield None, line, findings + [Finding(index, "unparseable block record")]
            continue
        if canonical_bytes(record) != raw:
            # The store only ever writes canonical JSON; anything else is a
            # byte-level mutation even if it parses.
            findings.append(Finding(index, "block encoding not canonical"))
        try:
            findings += [Finding(index, p) for p in _uncovered("block", record, BLOCK_KEYS)]
            block = Block.from_dict(record)
        except MALFORMED:
            prev_hash = None
            yield None, line, findings + [Finding(index, "malformed block structure")]
            continue
        findings += validate_block(
            block, index, prev_hash, state, orgs, endorsement_policy, validate
        )
        prev_hash = block.block_hash
        yield block, line, findings


def verify_chain_file(
    path: Path,
    orgs: Mapping[str, identity_mod.Organization],
    endorsement_policy: str,
    *,
    size: int | None = None,
) -> VerificationReport:
    """Re-verify a persisted ledger from its raw bytes, replaying it from
    genesis.

    Reads the file's first *size* bytes (all of it by default). A clean
    report carries the last block's height and hash as its ``tip``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(size)
    except FileNotFoundError:
        return VerificationReport(False, 0, [Finding(0, "ledger file missing")])
    height, tip_hash = -1, None
    findings: list[Finding] = []
    for block, _, block_findings in replay_chain(data, orgs, endorsement_policy, {}):
        findings += block_findings
        height += 1
        tip_hash = block.block_hash if block else None
    if findings:
        first = min(f.height for f in findings)
        return VerificationReport(ok=False, first_divergent_height=first, findings=findings)
    return VerificationReport(ok=True, first_divergent_height=None, findings=[],
                              tip=(height, tip_hash))
