"""An organization's ledger node.

Each node keeps a full replica: the append-only block file and the world
state rebuilt from it on startup. Nodes endorse proposals by simulating the
chaincode against their current state and signing the result; they commit
blocks delivered by the ordering service after independently re-validating
every transaction, so all replicas stay byte-identical. Start-up and commit
both go through ``blocks.validate_block``, the routine chain verification
uses, so a node neither starts on nor appends anything an audit would flag.

Endorsement simulations may run concurrently against a state snapshot;
commits are strictly serialized.
"""

from __future__ import annotations

import copy
import threading
from pathlib import Path
from typing import Mapping

from .. import crypto, identity as identity_mod
from ..canonical import canonical_bytes
from ..errors import LedgerRejectedError
from . import blocks as blocks_mod
from .blocks import Block, BlockStore, endorsement_payload, tx_id_for, validate_tx
from .chaincode import simulate
from .values import WorldState


class OrgNode:
    def __init__(
        self,
        org_name: str,
        node_identity: identity_mod.Identity,
        node_private_key: str,
        orgs: Mapping[str, identity_mod.Organization],
        endorsement_policy: str,
        ledger_path: Path,
    ):
        self.org_name = org_name
        self.node_identity = node_identity
        self._node_private_key = node_private_key
        self.orgs = dict(orgs)
        self.endorsement_policy = endorsement_policy
        self.store = BlockStore(ledger_path)
        self.state = WorldState()
        self.blocks: list[Block] = []
        self._commit_lock = threading.Lock()
        try:
            data = self.store.path.read_bytes()
        except FileNotFoundError:
            raise LedgerRejectedError(f"ledger {self.store.path} missing")
        state: dict = {}
        for block, findings in blocks_mod.replay_chain(
            data, self.orgs, endorsement_policy, state, validate_tx
        ):
            if findings:
                raise LedgerRejectedError(
                    f"ledger {self.store.path} fails verification at height "
                    f"{findings[0].height}: {findings[0].problem}"
                )
            self.blocks.append(block)
        self.state.replace(state)
        # That replay was a clean full audit; the next audit resumes after it.
        self._audit_checkpoint = blocks_mod.AuditCheckpoint.after(
            data, len(self.blocks), self.tip_hash(), state
        )

    # -- endorsement --------------------------------------------------------

    def endorse(self, proposal: Mapping) -> dict:
        """Simulate a signed proposal and endorse the result.

        Refuses outright (no endorsement, ``UnauthorizedError``) unless
        ``identity.authenticate`` accepts the body's creator and the client
        signature over the body; chaincode-level errors still get
        endorsed so all peers can agree the operation is rejected.
        """
        body = proposal.get("body")
        creator = body.get("creator") if isinstance(body, Mapping) else None
        identity_mod.authenticate(
            creator, proposal.get("signature"), canonical_bytes(body), self.orgs
        )

        snapshot = self.state.snapshot()
        result = simulate(body, self.orgs, snapshot.get)
        tx_id = tx_id_for(body)
        result_digest = result.result_digest()
        endorsement = {
            "org": self.org_name,
            "node_id": self.node_identity.user_id,
            "node_public_key": self.node_identity.public_key,
            "node_certificate": self.node_identity.certificate,
            "signature": crypto.sign(
                self._node_private_key, endorsement_payload(tx_id, result_digest)
            ),
        }
        return {
            "ok": True,
            "tx_id": tx_id,
            "result": result.to_dict(),
            "endorsement": endorsement,
        }

    # -- commit --------------------------------------------------------------

    def commit(self, block_dict: Mapping) -> dict:
        """Validate and apply an ordered block; returns per-tx validation flags.

        Re-delivery of an already-committed height is answered idempotently
        from the stored chain.
        """
        with self._commit_lock:
            # Deep-copy: the ordering service may hand the same dict to
            # several in-process nodes, and commit assigns validation flags.
            try:
                incoming = Block.from_dict(copy.deepcopy(dict(block_dict)))
            except blocks_mod.MALFORMED:
                raise LedgerRejectedError("malformed block structure")
            tip_height = self.blocks[-1].height if self.blocks else -1
            if incoming.height <= tip_height:
                stored = self.blocks[incoming.height]
                if stored.block_hash != incoming.block_hash:
                    raise LedgerRejectedError(
                        f"conflicting block at height {incoming.height}"
                    )
                return {
                    "height": stored.height,
                    "flags": [tx.get("validation") for tx in stored.transactions],
                }
            if incoming.height != tip_height + 1:
                raise LedgerRejectedError(
                    f"out-of-order block {incoming.height}, tip is {tip_height}"
                )
            current = self.state.snapshot()
            findings = blocks_mod.validate_block(
                incoming, incoming.height, self.tip_hash(), current, self.orgs,
                self.endorsement_policy, validate_tx, commit=True,
            )
            if findings:
                raise LedgerRejectedError(
                    f"block {incoming.height} refused: "
                    + "; ".join(f.problem for f in findings)
                )
            self.state.replace(current)
            self.blocks.append(incoming)
            self.store.append(incoming)
            return {
                "height": incoming.height,
                "flags": [tx["validation"] for tx in incoming.transactions],
            }

    # -- queries ---------------------------------------------------------------

    def read(self, pid: str) -> dict | None:
        value = self.state.get(pid)
        return value.to_dict() if value else None

    def height(self) -> int:
        return self.blocks[-1].height if self.blocks else -1

    def tip_hash(self) -> str | None:
        return self.blocks[-1].block_hash if self.blocks else None

    def state_digest(self) -> str:
        return self.state.state_digest()

    def state_dump(self) -> dict[str, dict]:
        return self.state.dump()

    def history(self, pid: str) -> list[dict]:
        """Committed VALID transactions that wrote *pid*, in commit order."""
        entries = []
        for block in self.blocks:
            for tx in block.transactions:
                if tx.get("validation") != blocks_mod.VALID:
                    continue
                writes = tx.get("result", {}).get("writes", {})
                if pid in writes:
                    entries.append(
                        {
                            "tx_id": tx.get("tx_id"),
                            "kind": tx.get("body", {}).get("kind"),
                            "height": block.height,
                            "message": tx.get("result", {}).get("message"),
                            "value": writes[pid],
                            "timestamp": tx.get("body", {}).get("timestamp"),
                            "creator": tx.get("body", {}).get("creator", {}).get("user_id"),
                        }
                    )
        return entries

    def verify_chain(self) -> dict:
        """Audit the ledger file as the last finished commit left it.

        Only its size is taken under the commit lock, so an append in
        progress is never read as a torn last line; the replay runs outside
        it, resuming after the last clean audit's checkpoint.
        """
        with self._commit_lock:
            size = self.store.path.stat().st_size if self.store.path.exists() else None
        report = blocks_mod.verify_chain_file(
            self.store.path, self.orgs, self.endorsement_policy,
            self._audit_checkpoint, size=size,
        )
        if report.checkpoint is not None:
            self._audit_checkpoint = report.checkpoint
        return report.to_dict()
