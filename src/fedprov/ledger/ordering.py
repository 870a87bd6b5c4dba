"""Single deterministic ordering service.

Endorsed transaction envelopes arrive over ORDER requests. Each one must
pass the integrity check a replica applies at commit (``blocks.check_tx``);
one that fails is refused to its submitter alone, so no block is cut that a
replica would reject. Envelopes that pass are assigned a first-come total
order (transaction id as tiebreak within a batch), and are cut into blocks
when either the batch size cap or the batch timeout is reached. Each block
is delivered to every organization node, which validates and commits it
independently; the orderer replies to each waiting client with its
transaction's receipt.

Client-supplied timestamps are accepted only within a configurable skew of
the orderer clock.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

from .. import clock, identity as identity_mod
from ..errors import FedprovError, LedgerRejectedError, TransportError
from ..transport import Transport
from . import blocks as blocks_mod
from .blocks import make_block


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
        block_timeout_ms: int = 500,
        max_clock_skew_ms: int = 300_000,
    ):
        self.peers = dict(peers)
        self.orgs = dict(orgs)
        self.max_block_txs = max_block_txs
        self.block_timeout_ms = block_timeout_ms
        self.max_clock_skew_ms = max_clock_skew_ms
        self._height = tip_height
        self._tip_hash = tip_hash
        self._queue: list[_Pending] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._worker = threading.Thread(target=self._run, name="orderer", daemon=True)
        self._worker.start()

    def submit(self, envelope: dict) -> dict:
        """Queue an endorsed envelope; blocks until its block commits."""
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
        pending = _Pending(envelope)
        with self._lock:
            if self._closed:
                raise LedgerRejectedError("ordering service stopped")
            self._queue.append(pending)
            self._wakeup.notify_all()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.receipt is not None
        return pending.receipt

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        self._worker.join(timeout=2)

    # -- batching loop -------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._queue:
                    return
                # Cut when the batch fills or the timeout since the first
                # queued transaction lapses, whichever comes first.
                started = time.monotonic()
                timeout_s = self.block_timeout_ms / 1000.0
                while len(self._queue) < self.max_block_txs and not self._closed:
                    remaining = timeout_s - (time.monotonic() - started)
                    if remaining <= 0:
                        break
                    self._wakeup.wait(timeout=remaining)
                batch = self._queue[: self.max_block_txs]
                self._queue = self._queue[len(batch):]
            if batch:
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
        for org, transport in self.peers.items():
            try:
                response = transport("COMMIT", {"block": block.to_dict()})
            except FedprovError:
                # Down, diverged or failing nodes miss this block; the
                # remaining replicas keep the federation available.
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
