"""Single deterministic ordering service.

Each ORDER request carries one endorsed transaction envelope and is answered
with its receipt. The envelope must pass the integrity check a replica
applies at commit (``blocks.check_tx``) and carry a transaction id neither
committed nor queued; one that fails is refused to its submitter alone, so
no block is cut that a replica would reject. Envelopes that pass are
assigned a first-come total order (transaction id as tiebreak within a
block).

Blocks are cut by group commit: as soon as the orderer is free and the queue
is non-empty, it cuts a block of up to ``MAX_BLOCK_TXS`` queued envelopes.
Envelopes that arrive while a block is being delivered gather for the next
one, so load batches itself and a lone transaction never idles. Each block
is committed to the orderer organization's node, whose tip is the orderer's,
and every other node, a replica, pulls it (``pull``). A pull from height
h + 1 acknowledges h. The orderer replies to the block's clients once every
in-sync replica has acknowledged it, or after ``ACK_TIMEOUT_S``; a replica
that has not is out of sync, logged once, until it pulls at the tip again.
Every replica starts in sync, so a receipt promises that the write is on
every in-sync replica. The organization a pull names is taken on trust: it
decides only when a receipt is sent, never what commits.

Client-supplied timestamps are accepted only within ``MAX_CLOCK_SKEW_MS`` of
the orderer clock.
"""

from __future__ import annotations

import logging
import threading
import time

from .. import clock
from ..errors import FedprovError, LedgerRejectedError
from . import blocks as blocks_mod
from .blocks import make_block
from .node import OrgNode

_log = logging.getLogger(__name__)

# How long a pull at the tip waits for the next block, and a block for the
# in-sync replicas to pull past it; both well under ``TcpTransport``'s 10 s.
PULL_WAIT_S = 0.5
ACK_TIMEOUT_S = 2.0
MAX_PULL_BLOCKS = 64  # per answer, so a replica far behind catches up in steps
MAX_BLOCK_TXS = 10
MAX_CLOCK_SKEW_MS = 300_000  # 5 minutes


class _Pending:
    def __init__(self, envelope: dict):
        self.envelope = envelope
        self.event = threading.Event()
        self.receipt: dict | None = None
        self.error: Exception | None = None


class OrderingService:
    def __init__(self, node: OrgNode):
        self.node = node
        self._queue: list[_Pending] = []
        self._ordering: set[str] = set()  # tx ids queued or in the block being cut
        self._in_sync = set(node.orgs) - {node.org_name}  # replicas; all start in sync
        self._pulled: dict[str, int] = {}  # replica -> the height its last pull asked from
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._closed = False
        self._worker = threading.Thread(target=self._run, name="orderer", daemon=True)
        self._worker.start()

    def submit(self, envelope: dict) -> dict:
        """Queue one endorsed envelope; blocks until it commits, then
        returns its receipt."""
        self._check(envelope)
        tx_id, pending = envelope["tx_id"], _Pending(envelope)
        with self._lock:
            if self._closed:
                raise LedgerRejectedError("ordering service stopped")
            if tx_id in self._ordering or tx_id in self.node.tx_heights:
                raise LedgerRejectedError("envelope refused: duplicate tx_id")
            self._ordering.add(tx_id)
            self._queue.append(pending)
            self._changed.notify_all()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return pending.receipt

    def _check(self, envelope: dict) -> None:
        problems = blocks_mod.check_tx(envelope, self.node.orgs)
        if problems:
            raise LedgerRejectedError("envelope refused: " + "; ".join(problems))
        timestamp = envelope.get("body", {}).get("timestamp", "")
        try:
            skew = clock.skew_ms(timestamp, clock.now_iso())
        except (ValueError, TypeError):
            raise LedgerRejectedError("timestamp missing or unparseable")
        if skew > MAX_CLOCK_SKEW_MS:
            raise LedgerRejectedError(
                f"timestamp skew {skew}ms exceeds bound {MAX_CLOCK_SKEW_MS}ms"
            )

    def pull(self, org: str, start: int) -> list[dict]:
        """The committed blocks from height *start* on, for replica *org*,
        which acknowledges those below. At the tip, this puts *org* back in
        sync and waits up to ``PULL_WAIT_S`` for the next block."""
        if not isinstance(org, str) or org not in self.node.orgs or org == self.node.org_name:
            raise FedprovError("malformed request: QUERY blocks needs a replica's 'org'")
        with self._lock:
            self._pulled[org] = start
            if start > self.node.height():
                self._in_sync.add(org)
                self._changed.notify_all()
                self._changed.wait_for(lambda: self._closed or self.node.height() >= start,
                                       PULL_WAIT_S)
            if self._closed:
                raise LedgerRejectedError("ordering service stopped")
        return [block.to_dict() for block in self.node.committed_since(start, MAX_PULL_BLOCKS)]

    def in_sync(self) -> list[str]:
        """The replicas a receipt waits for, by name."""
        with self._lock:
            return sorted(self._in_sync)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._changed.notify_all()
        self._worker.join(timeout=2)

    # -- group commit ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._changed.wait()
                if not self._queue:
                    return
                # Whatever gathered while the last block was being delivered
                # goes into this one, up to the cap; the rest waits its turn.
                batch = self._queue[:MAX_BLOCK_TXS]
                del self._queue[: len(batch)]
            self._cut_and_deliver(batch)

    def _cut_and_deliver(self, batch: list[_Pending]) -> None:
        batch.sort(key=lambda p: p.envelope.get("tx_id", ""))
        transactions = [{**p.envelope, "validation": None} for p in batch]  # check_tx: no other key
        block = make_block(self.node.height() + 1, self.node.tip_hash(), transactions)
        try:
            flags = self.node.commit(block.to_dict())["flags"]
        except Exception as exc:  # say, the disk is full; no client waits forever
            for pending in batch:
                pending.error = exc
                pending.event.set()
            return
        finally:
            with self._lock:
                self._ordering.difference_update(tx["tx_id"] for tx in transactions)
        self._await_replicas(block.height)
        for pending, flag in zip(batch, flags):
            message = pending.envelope["result"].get("message", "")
            pending.receipt = {
                "tx_id": pending.envelope["tx_id"],
                "height": block.height,
                "status": flag,
                "message": message if flag == blocks_mod.VALID else flag,
            }
            pending.event.set()

    def _await_replicas(self, height: int) -> None:
        """Wait until every in-sync replica has pulled past *height*, for at
        most ``ACK_TIMEOUT_S``; one that has not is out of sync from then on."""

        def behind() -> set[str]:
            return {org for org in self._in_sync if self._pulled.get(org, 0) <= height}

        with self._lock:
            self._changed.notify_all()  # wakes the pulls waiting at the tip
            self._changed.wait_for(lambda: self._closed or not behind(), ACK_TIMEOUT_S)
            lagging = set() if self._closed else behind()
            self._in_sync -= lagging
        for org in sorted(lagging):
            _log.warning("%s is out of sync: it did not pull past block %d within %.1f s",
                         org, height, ACK_TIMEOUT_S)
