"""Single deterministic ordering service.

Endorsed transaction envelopes arrive over ORDER requests, one or more per
request. Every envelope of a request must pass the integrity check a replica
applies at commit (``blocks.check_tx``) before any is queued; one that fails
refuses the whole request, to its submitter alone, so no block is cut that a
replica would reject. Envelopes that pass are assigned a first-come total
order (transaction id as tiebreak within a block).

Blocks are cut by group commit: as soon as the orderer is free and the queue
is non-empty, it cuts a block of up to ``max_block_txs`` queued envelopes.
Envelopes that arrive while a block is being delivered gather for the next
one, so load batches itself and a lone transaction never idles. Each block
is delivered to every organization node, which validates and commits it
independently; the orderer replies to each waiting client with its
transactions' receipts.

Client-supplied timestamps are accepted only within a configurable skew of
the orderer clock.
"""

from __future__ import annotations

import logging
import threading
from typing import Mapping

from .. import clock, identity as identity_mod
from ..errors import FedprovError, LedgerRejectedError, TransportError
from ..transport import Transport
from . import blocks as blocks_mod
from .blocks import make_block

_log = logging.getLogger(__name__)


class _Pending:
    def __init__(self, envelope: dict):
        self.envelope = envelope
        self.event = threading.Event()
        self.receipt: dict | None = None
        self.error: Exception | None = None


class OrderingService:
    def __init__(
        self,
        peers: Mapping[str, Transport],
        orgs: Mapping[str, identity_mod.Organization],
        tip_height: int,
        tip_hash: str,
        max_block_txs: int = 10,
        max_clock_skew_ms: int = 300_000,
    ):
        self.peers = dict(peers)
        self.orgs = dict(orgs)
        self.max_block_txs = max_block_txs
        self.max_clock_skew_ms = max_clock_skew_ms
        self._height = tip_height
        self._tip_hash = tip_hash
        self._queue: list[_Pending] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._worker = threading.Thread(target=self._run, name="orderer", daemon=True)
        self._worker.start()

    def submit(self, *envelopes: dict) -> list[dict]:
        """Queue endorsed envelopes together; blocks until they commit.

        Every envelope is checked before any is queued, so one that fails
        refuses them all. Returns one receipt per envelope, in order.
        """
        for envelope in envelopes:
            self._check(envelope)
        pending = [_Pending(envelope) for envelope in envelopes]
        with self._lock:
            if self._closed:
                raise LedgerRejectedError("ordering service stopped")
            self._queue.extend(pending)
            self._wakeup.notify_all()
        for one in pending:
            one.event.wait()
            if one.error is not None:
                raise one.error
        return [one.receipt for one in pending]

    def _check(self, envelope: dict) -> None:
        problems = blocks_mod.check_tx(envelope, self.orgs)
        if problems:
            raise LedgerRejectedError("envelope refused: " + "; ".join(problems))
        timestamp = envelope.get("body", {}).get("timestamp", "")
        try:
            skew = clock.skew_ms(timestamp, clock.now_iso())
        except (ValueError, TypeError):
            raise LedgerRejectedError("timestamp missing or unparseable")
        if skew > self.max_clock_skew_ms:
            raise LedgerRejectedError(
                f"timestamp skew {skew}ms exceeds bound {self.max_clock_skew_ms}ms"
            )

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        self._worker.join(timeout=2)

    # -- group commit ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return
                # Whatever gathered while the last block was being delivered
                # goes into this one, up to the cap; the rest waits its turn.
                batch = self._queue[: self.max_block_txs]
                del self._queue[: len(batch)]
            self._cut_and_deliver(batch)

    def _cut_and_deliver(self, batch: list[_Pending]) -> None:
        batch.sort(key=lambda p: p.envelope.get("tx_id", ""))
        transactions = []
        for pending in batch:
            envelope = pending.envelope
            transactions.append(
                {
                    "tx_id": envelope["tx_id"],
                    "body": envelope["body"],
                    "signature": envelope["signature"],
                    "result": envelope["result"],
                    "endorsements": envelope["endorsements"],
                    "validation": None,
                }
            )
        height = self._height + 1
        block = make_block(height, self._tip_hash, transactions)
        flags: list[str] | None = None
        reachable = 0
        payload = {"block": block.to_dict()}
        for org, transport in self.peers.items():
            try:
                response = transport("COMMIT", payload)
            except FedprovError as exc:
                # Down, diverged or failing nodes miss this block; the
                # remaining replicas keep the federation available.
                _log.warning("%s missed block %d: %s", org, height, exc)
                continue
            reachable += 1
            peer_flags = response.get("flags")
            if flags is None:
                flags = peer_flags
            elif flags != peer_flags:
                error = LedgerRejectedError(
                    f"nodes disagree on validation flags at height {height}"
                )
                for pending in batch:
                    pending.error = error
                    pending.event.set()
                return
        if flags is None or reachable == 0:
            error = TransportError("no organization node reachable for commit")
            for pending in batch:
                pending.error = error
                pending.event.set()
            return
        self._height = height
        self._tip_hash = block.block_hash
        for pending, flag in zip(batch, flags):
            message = pending.envelope.get("result", {}).get("message", "")
            pending.receipt = {
                "tx_id": pending.envelope["tx_id"],
                "height": height,
                "status": flag,
                "message": message if flag == blocks_mod.VALID else flag,
            }
            pending.event.set()
