"""An organization's ledger node.

Each node keeps a full replica: the append-only block file and the world
state rebuilt from it on startup. Nodes endorse proposals by simulating the
chaincode against their current state and signing the result. The orderer's
node commits the blocks it cuts, and every other node the blocks it pulls,
each re-validating every transaction, so all replicas stay byte-identical. Start-up and commit
both go through ``blocks.validate_block``, the routine chain verification
uses, so a node neither starts on nor appends anything an audit would flag.

The node keeps no committed block in memory, only the tip hash and an
index of where each height's line ends in the file, its SHA-256, its tx ids
and the keys it wrote. Every reader of a committed block goes through
``block``, which refuses bytes the node did not validate. The same index is
the evidence of ``verify_chain``: a file that is exactly the indexed lines
holds only bytes the node validated, so it is not replayed again.

The world state is a plain dict that nothing changes once installed:
start-up installs the one replay built, and each commit applies its block
to a copy and installs that. It is installed with its height and tip hash
as one ``View``, after the block's line is indexed, so every reader -- an
endorsement simulation, an audit, ``QUERY height``, ``QUERY state``, ``QUERY
history`` -- sees one whole committed block's height, hash and state
together, never a commit in progress. Reads may therefore run
concurrently with a commit; commits are strictly serialized.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Mapping, NamedTuple

from .. import crypto, identity as identity_mod
from ..canonical import canonical_bytes, digest
from ..errors import LedgerRejectedError
from . import blocks as blocks_mod
from .blocks import Block, BlockStore, endorsement_payload, tx_id_for, validate_tx
from .chaincode import simulate
from .values import LedgerValue


class View(NamedTuple):
    """A committed height, its block's hash and the world state after it."""

    height: int
    tip_hash: str | None
    state: dict[str, LedgerValue]


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
        self._lines: list[tuple[int, bytes]] = []  # (offset past the line, its SHA-256)
        self._writers: dict[str, list[int]] = {}  # ledger key -> heights that wrote it
        self.tx_heights: dict[str, int] = {}  # tx id -> the height that committed it
        self._commit_lock = threading.Lock()
        try:
            data = self.store.path.read_bytes()
        except FileNotFoundError:
            raise LedgerRejectedError(f"ledger {self.store.path} missing")
        state: dict[str, LedgerValue] = {}
        tip_hash = None
        for block, line, findings in blocks_mod.replay_chain(
            data, self.orgs, endorsement_policy, state, validate_tx
        ):
            if findings:
                raise LedgerRejectedError(
                    f"ledger {self.store.path} fails verification at height "
                    f"{findings[0].height}: {findings[0].problem}"
                )
            self._index(block, line)
            tip_hash = block.block_hash
        self.view = View(len(self._lines) - 1, tip_hash, state)

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

        result = simulate(body, self.orgs, self.state.get)
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
        """Validate and append the block after the tip; returns per-tx flags.

        A block just cut by the orderer carries no flags and is given them;
        a pulled block's flags must equal the computed ones, as in replay.
        The line is on disk before the index names it, and the block's
        ``View`` -- its height, its hash and a copy of the world state with
        it applied -- is installed after that, in one assignment.
        """
        with self._commit_lock:
            try:
                incoming = Block.from_dict(block_dict)
                cut = all(tx.get("validation") is None for tx in incoming.transactions)
            except blocks_mod.MALFORMED:
                raise LedgerRejectedError("malformed block structure")
            current = dict(self.view.state)
            findings = blocks_mod.validate_block(
                incoming, self.view.height + 1, self.view.tip_hash, current, self.orgs,
                self.endorsement_policy, validate_tx, commit=cut,
            )
            if findings:
                raise LedgerRejectedError(
                    f"block {incoming.height} refused: "
                    + "; ".join(f.problem for f in findings)
                )
            self._index(incoming, self.store.append(incoming))
            self.view = View(incoming.height, incoming.block_hash, current)
            return {
                "height": incoming.height,
                "flags": [tx["validation"] for tx in incoming.transactions],
            }

    # -- queries ---------------------------------------------------------------

    def read(self, pid: str) -> dict | None:
        value = self.state.get(pid)
        return value.to_dict() if value else None

    @property
    def state(self) -> dict[str, LedgerValue]:
        return self.view.state

    def height(self) -> int:
        return self.view.height

    def tip_hash(self) -> str | None:
        return self.view.tip_hash

    def block(self, height: int) -> Block:
        """The committed block at *height*, read back from its line in the
        ledger file; refused unless the line has the bytes committed."""
        if not 0 <= height < len(self._lines):
            raise LedgerRejectedError(f"no committed block {height}")
        start = self._lines[height - 1][0] if height else 0
        end, line_sha256 = self._lines[height]
        with open(self.store.path, "rb") as fh:
            fh.seek(start)
            line = fh.read(end - start)
        if hashlib.sha256(line).digest() != line_sha256:
            raise LedgerRejectedError(f"block {height}: its line changed after commit")
        return Block.from_dict(json.loads(line))

    def committed_since(self, height: int, limit: int | None = None) -> list[Block]:
        """The committed blocks from *height* to the tip, in order; at most *limit*."""
        last = self.height() if limit is None else min(self.height(), height + limit - 1)
        return [self.block(h) for h in range(height, last + 1)]

    def state_digest(self, view: View | None = None) -> str:
        return digest(self.state_dump(view))

    def state_dump(self, view: View | None = None) -> dict[str, dict]:
        """The world state of *view*, by default the installed one, as JSON."""
        state = (view or self.view).state
        return {pid: value.to_dict() for pid, value in sorted(state.items())}

    def history(self, pid: str) -> list[dict]:
        """Committed VALID transactions that wrote *pid*, in commit order,
        up to the installed view's height: a block being committed is
        indexed before its view is installed, and is not listed until then."""
        top = self.view.height
        entries = []
        for height in self._writers.get(pid, ()):
            if height > top:
                break
            for tx in self.block(height).transactions:
                if tx.get("validation") != blocks_mod.VALID:
                    continue
                writes = tx.get("result", {}).get("writes", {})
                if pid in writes:
                    entries.append(
                        {
                            "tx_id": tx.get("tx_id"),
                            "kind": tx.get("body", {}).get("kind"),
                            "height": height,
                            "message": tx.get("result", {}).get("message"),
                            "value": writes[pid],
                            "timestamp": tx.get("body", {}).get("timestamp"),
                            "creator": tx.get("body", {}).get("creator", {}).get("user_id"),
                        }
                    )
        return entries

    def verify_chain(self) -> dict:
        """The report of ``audit``."""
        return self.audit()[1]

    def audit(self) -> tuple[View, dict]:
        """Audit the ledger file as the last finished commit left it: the
        view checked against, and the report. The file's size is taken with
        that view and the number of indexed lines under the commit lock, so
        an append in progress is never read as a torn last line. A file that
        is exactly those lines, each with the SHA-256 it had when
        ``validate_block`` accepted it at start-up or commit, gets the clean
        report unreplayed: the same bytes after the same state get the same
        verdict. Any other file is replayed from genesis, and a clean replay
        must end at the view's tip.
        """
        with self._commit_lock:
            view, count = self.view, len(self._lines)
            size = self.store.path.stat().st_size if self.store.path.exists() else None
        height, tip_hash, _ = view
        if self._holds_only_indexed_lines(count, size):
            return view, blocks_mod.VerificationReport(True, None, []).to_dict()
        report = blocks_mod.verify_chain_file(
            self.store.path, self.orgs, self.endorsement_policy, size=size
        )
        if report.tip is not None and report.tip != (height, tip_hash):
            end, end_hash = report.tip
            # The first height at which the file and the node disagree.
            at = height if end == height else min(end, height) + 1
            report = blocks_mod.VerificationReport(False, at, [blocks_mod.Finding(
                at, f"ledger file ends at height {end} (block {end_hash}), "
                f"the node's tip is at height {height} (block {tip_hash})")])
        return view, report.to_dict()

    def _holds_only_indexed_lines(self, count: int, size: int | None) -> bool:
        """True iff the file's first *size* bytes are exactly the first
        *count* indexed lines, byte for byte."""
        if not count or size != self._lines[count - 1][0]:
            return False
        start = 0
        try:
            with open(self.store.path, "rb") as fh:
                for end, line_sha256 in self._lines[:count]:
                    if hashlib.sha256(fh.read(end - start)).digest() != line_sha256:
                        return False
                    start = end
        except FileNotFoundError:
            return False
        return True

    def _index(self, block: Block, line: bytes) -> None:
        """Name *block*, whose *line* now ends the ledger file, in the index."""
        start = self._lines[-1][0] if self._lines else 0
        self._lines.append((start + len(line), hashlib.sha256(line).digest()))
        for tx in block.transactions:
            self.tx_heights[tx["tx_id"]] = block.height
            if tx.get("validation") == blocks_mod.VALID:
                for key in tx["result"].get("writes", {}):
                    heights = self._writers.setdefault(key, [])
                    if heights[-1:] != [block.height]:
                        heights.append(block.height)
