"""Client-side transaction flow: sign locally, gather endorsements from the
producer organizations' nodes, check agreement and policy, then hand the
envelope to the ordering service and wait for the commit receipt.

Only a producer organization's endorsement can count toward a policy, so
PROPOSE goes to producer nodes alone; the read-only organization's node
still receives, validates and commits every block. Each record is written
one way. ``publish_operation`` creates an artifact and its provenance record
in one transaction. ``update_operation`` writes the provenance version it
states under the PID it names, so the ledger records every version's PID.
``order`` sends one endorsed envelope per ORDER request and gets its receipt.

A state read names the height and tip hash it was taken at (``read_state``).
A caller that already holds the state of a tip passes its hash as
``unless_tip``, and a node still at that tip answers without the state.

The client talks to nodes directly -- there is no proxy in the path -- so a
single dead node degrades nothing that the remaining replicas can answer.
"""

from __future__ import annotations

import logging
import uuid
from dataclasses import dataclass, field
from typing import Mapping

from .. import clock, crypto, identity as identity_mod
from ..canonical import canonical_bytes
from ..errors import (
    EndorsementPolicyUnmetError,
    FedprovError,
    LedgerRejectedError,
    SimulationDivergenceError,
    TransportError,
    UnauthorizedError,
)
from ..transport import Transport
from . import blocks as blocks_mod
from .chaincode import (
    TX_FLAG_AFFECTED,
    TX_INVALIDATE,
    TX_PUBLISH,
    TX_UPDATE_PROV,
    SimulationResult,
)
from .policy import policy_satisfied, producer_org_names
from .values import LedgerValue

_log = logging.getLogger(__name__)

STATUS_REJECTED = "REJECTED"


@dataclass
class Receipt:
    tx_id: str
    height: int | None
    status: str
    message: str
    # Set by ``LedgerClient.submit``; not part of ``to_dict``.
    writes: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == blocks_mod.VALID and not self.message.startswith("Error:")

    def to_dict(self) -> dict:
        return {
            "tx_id": self.tx_id,
            "height": self.height,
            "status": self.status,
            "message": self.message,
        }


def refusal(envelope: dict) -> Receipt | None:
    """The REJECTED receipt of an envelope the chaincode refused, else None.

    The peers agree the chaincode refuses such an operation; it is never
    ordered and changes no state anywhere.
    """
    message = envelope["result"]["message"]
    if not message.startswith("Error:"):
        return None
    return Receipt(tx_id=envelope["tx_id"], height=None, status=STATUS_REJECTED, message=message)


def require_committed(receipt: Receipt) -> Receipt:
    """*receipt* if its transaction committed VALID.

    Otherwise ``LedgerRejectedError`` carrying the receipt; the CLI maps the
    receipt's message to its exit code.
    """
    if not receipt.ok:
        raise LedgerRejectedError(receipt.message, receipt.to_dict())
    return receipt


def publish_operation(
    artifact_pid: str,
    uri: str,
    checksum: str,
    owners: list[str],
    prov_pid: str,
    doc_uri: str,
    doc_checksum: str,
) -> tuple[str, str, dict]:
    """The (kind, pid, args) of one transaction creating an artifact record
    and its provenance record."""
    provenance = {"pid": prov_pid, "uri": doc_uri, "checksum": doc_checksum}
    args = {"uri": uri, "checksum": checksum, "owners": owners, "provenance": provenance}
    return TX_PUBLISH, artifact_pid, args


def update_operation(
    pid: str,
    new_uri: str,
    new_checksum: str,
    version: int,
    new_pid: str,
    permission: identity_mod.Permission | None = None,
) -> tuple[str, str, dict]:
    """The (kind, pid, args) of the provenance record update that writes
    exactly *version* and names it *new_pid*."""
    args = {"new_uri": new_uri, "new_checksum": new_checksum, "version": version,
            "new_pid": new_pid}
    if permission is not None:
        args["permission"] = permission.to_dict()
    return TX_UPDATE_PROV, pid, args


class LedgerClient:
    """Ledger access over any transports; writes need caller credentials."""

    def __init__(
        self,
        identity: identity_mod.Identity | None,
        private_key: str | None,
        peer_transports: Mapping[str, Transport],
        orderer_transport: Transport,
        orgs: Mapping[str, identity_mod.Organization],
        endorsement_policy: str,
    ):
        self.identity = identity
        self._private_key = private_key
        self.peers = dict(peer_transports)
        self.orderer = orderer_transport
        self.orgs = dict(orgs)
        self.endorsement_policy = endorsement_policy

    # -- write path ----------------------------------------------------------

    def submit(
        self,
        kind: str,
        pid: str,
        args: dict,
        timestamp: str | None = None,
    ) -> Receipt:
        """Full propose/endorse/order/commit round trip for one operation.

        A VALID receipt carries the endorsed write set, the one that committed.
        """
        envelope = self.prepare(kind, pid, args, timestamp)
        receipt = refusal(envelope) or self.order(envelope)
        if receipt.ok:
            receipt.writes = envelope["result"]["writes"]
        return receipt

    def prepare(
        self,
        kind: str,
        pid: str,
        args: dict,
        timestamp: str | None = None,
    ) -> dict:
        """Sign one operation and collect its endorsements; nothing is ordered.

        The envelope returned may carry the chaincode's refusal (see
        ``refusal``); only one without may be ordered.
        """
        if self.identity is None or self._private_key is None:
            raise UnauthorizedError(f"{kind} requires caller credentials")
        body = {
            "kind": kind,
            "pid": pid,
            "args": args,
            "creator": self.identity.to_creator(),
            "timestamp": timestamp or clock.now_iso(),
            "nonce": uuid.uuid4().hex,
        }
        signature = crypto.sign(self._private_key, canonical_bytes(body))
        return self.endorse(body, signature)

    def endorse(self, body: dict, signature: str) -> dict:
        """Collect endorsements for a signed body; returns an order-ready envelope.

        PROPOSE goes only to the producer organizations' nodes, whose
        endorsements alone can count toward the policy. A node that is
        unreachable or refuses contributes nothing, and is logged at
        warning level. If none endorses, a
        refusal (a forged creator certificate, say) is raised as it came,
        and ``TransportError`` only when some node could not be reached.
        """
        proposal = {"body": body, "signature": signature}
        producers = producer_org_names(self.orgs)
        endorsers = {org: t for org, t in self.peers.items() if org in producers}
        if not endorsers:
            raise EndorsementPolicyUnmetError(
                f"policy {self.endorsement_policy!r} unmet: no producer "
                f"organization among the peers {sorted(self.peers)}"
            )
        endorsements = []
        results: dict[str, dict] = {}
        unreachable: dict[str, str] = {}
        refused: FedprovError | None = None
        for org, transport in endorsers.items():
            try:
                response = transport("PROPOSE", proposal)
            except TransportError as exc:
                _log.warning("endorser %s unreachable: %s", org, exc)
                unreachable[org] = str(exc)
                continue
            except FedprovError as exc:
                _log.warning("endorser %s refused: %s", org, exc)
                refused = exc
                continue
            endorsements.append(response["endorsement"])
            results[org] = response["result"]
        if not results:
            if unreachable:
                raise TransportError(f"no endorsing peer reachable: {unreachable}")
            raise refused

        digests = {
            org: SimulationResult.from_dict(result).result_digest()
            for org, result in results.items()
        }
        if len(set(digests.values())) > 1:
            raise SimulationDivergenceError(
                f"peers disagree on simulation result: {digests}"
            )
        endorsing_orgs = {e["org"] for e in endorsements}
        if not policy_satisfied(endorsing_orgs, self.orgs, self.endorsement_policy):
            raise EndorsementPolicyUnmetError(
                f"policy {self.endorsement_policy!r} unmet by endorsements "
                f"from {sorted(endorsing_orgs)}"
            )
        some_org = next(iter(results))
        return {
            "tx_id": blocks_mod.tx_id_for(body),
            "body": body,
            "signature": signature,
            "result": results[some_org],
            "endorsements": endorsements,
        }

    def order(self, envelope: dict) -> Receipt:
        """Submit an endorsed envelope for ordering and await commit."""
        receipt = self.orderer("ORDER", {"envelope": envelope})["receipt"]
        return Receipt(
            tx_id=receipt["tx_id"],
            height=receipt["height"],
            status=receipt["status"],
            message=receipt["message"],
        )

    # -- chaincode wrappers ---------------------------------------------------

    def hlf_update_prov(
        self,
        pid: str,
        new_uri: str,
        new_checksum: str,
        version: int,
        new_pid: str,
        timestamp: str | None = None,
        permission: identity_mod.Permission | None = None,
    ) -> Receipt:
        return self.submit(
            *update_operation(pid, new_uri, new_checksum, version, new_pid, permission),
            timestamp,
        )

    def hlf_invalidate(
        self,
        pid: str,
        reason: str = "",
        timestamp: str | None = None,
        permission: identity_mod.Permission | None = None,
    ) -> Receipt:
        args: dict = {"reason": reason}
        if permission is not None:
            args["permission"] = permission.to_dict()
        return self.submit(TX_INVALIDATE, pid, args, timestamp)

    def flag_affected(
        self, targets: list[str], source_pid: str, timestamp: str | None = None
    ) -> Receipt:
        """Flag every artifact in *targets* as affected by *source_pid*, atomically."""
        return self.submit(TX_FLAG_AFFECTED, source_pid, {"targets": list(targets)}, timestamp)

    # -- read path -------------------------------------------------------------

    def hlf_read(self, pid: str) -> LedgerValue | None:
        data = self._query({"op": "read", "pid": pid})["value"]
        return LedgerValue.from_dict(data) if data else None

    def get_history(self, pid: str) -> list[dict]:
        return self._query({"op": "history", "pid": pid})["entries"]

    def read_state(self, unless_tip: str | None = None) -> dict:
        """``{height, tip_hash, state}`` from one committed view of a node;
        without ``state`` if that node's tip hash is *unless_tip*."""
        payload = {"op": "state"}
        if unless_tip is not None:
            payload["unless_tip"] = unless_tip
        return self._query(payload)

    def state_dump(self) -> dict[str, dict]:
        return self.read_state()["state"]

    def _query(self, payload: dict) -> dict:
        last_error: Exception | None = None
        for org, transport in self.peers.items():
            try:
                return transport("QUERY", payload)
            except TransportError as exc:
                last_error = exc
                continue
        raise TransportError(f"no node reachable for query: {last_error}")
