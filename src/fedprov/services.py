"""Message-kind dispatch for the node, ordering, and registry services: the
server side, loaded by ``fedprov federation start-node`` and the harness. A
client speaks to these services through ``ledger.client.LedgerClient`` and
loads none of this module.

Each organization answers on one address, its node's listen address. A
``NodeService`` answers PROPOSE / QUERY on every organization node. The
orderer organization's node also holds the ordering service, for ORDER and
QUERY ``blocks``, and a ``RegistryService``, which answers MINT / RESOLVE /
HISTORY (``REGISTRY_KINDS``); ``dispatch`` hands those kinds to it, so a
node without a registry answers them as unknown message kinds. Every other
node holds a ``Puller``, its one delivery path. A MINT reserves a PID and
nothing more; RESOLVE and HISTORY answer only PIDs that a ledger
transaction committed on the registry's host node names (see
``pid_registry``). A request that is not an object, a RESOLVE, HISTORY or
QUERY ``read``/``history`` without a string ``pid``, and a QUERY ``blocks``
without an integer ``from`` >= 0 or a replica's ``org`` are malformed. An
ORDER carries one endorsed envelope and is answered with its receipt.

QUERY ``height``, ``state`` and ``verify_chain`` answer from one ``View`` of
the node, so the height, tip hash and state or state digest they name are
one committed block's; a digest is computed when asked for, not at commit.
QUERY ``height`` answers ``{height, tip_hash, state_digest}``, and on the
orderer organization's node the sorted ``in_sync`` replicas a receipt waits
for; QUERY ``verify_chain`` answers ``OrgNode.audit``'s report with its view's
height, tip hash and state digest. QUERY ``state`` answers ``{height,
tip_hash, state}``; one whose ``unless_tip`` is the node's tip hash answers
only the height and tip hash, since the caller already holds that tip's
state (an ``unless_tip`` that is not a string is malformed).

``assemble_org`` is the one place an organization's server side is built,
for the in-process harness and for ``fedprov federation start-node`` alike;
``serve`` puts assembled node services on their listen addresses. Pullers
start once every service of the process is assembled, and served if it is.

A MINT carries the caller's identity claim (the ``to_creator`` form a
transaction's ``creator`` takes) and the caller's signature over its
request, which is the empty object. ``identity.authenticate`` checks both
before anything else, as ``OrgNode.endorse`` does for a proposal, and
refuses a malformed or unverified claim with ``UnauthorizedError``. A
request other than ``{}`` is refused as a malformed request. MINT then
requires ``identity.may_write``; which PID a write may name is decided by
the chaincode and the registry's index, not at MINT.
"""

from __future__ import annotations

import functools
import logging
import threading
from typing import Iterable, Mapping

from . import identity as identity_mod
from .canonical import canonical_bytes
from .errors import FedprovError, TransportError, UnauthorizedError
from .federation import FederationConfig, load_node_credentials
from .ledger.node import OrgNode, View
from .ledger.ordering import PULL_WAIT_S, OrderingService
from .pid_registry import PIDRegistry
from .transport import MessageServer, Transport, TransportFactory

REGISTRY_KINDS = frozenset({"MINT", "RESOLVE", "HISTORY"})

_log = logging.getLogger(__name__)


class NodeService:
    def __init__(self, node: OrgNode, orderer: OrderingService | None = None):
        self.node = node
        self.orderer = orderer
        # Held on the orderer organization's node only; see ``dispatch``.
        self.registry: RegistryService | None = None
        self.puller: Puller | None = None  # held on every other node

    def handle(self, kind: str, payload: dict) -> dict:
        _require_object(kind, payload)
        if kind == "PROPOSE":
            return {"kind": "ENDORSE", **self.node.endorse(payload)}
        if kind == "ORDER":
            return {"ok": True, "receipt": self._orderer().submit(payload.get("envelope"))}
        if kind == "QUERY":
            return {"ok": True, **self._query(payload)}
        raise FedprovError(f"unknown message kind: {kind!r}")

    def _query(self, payload: dict) -> dict:
        op = payload.get("op")
        if op == "read":
            return {"value": self.node.read(_pid(f"QUERY {op}", payload))}
        if op == "history":
            return {"entries": self.node.history(_pid(f"QUERY {op}", payload))}
        if op == "height":
            answer = self._named(self.node.view)
            if self.orderer is not None:
                answer["in_sync"] = self.orderer.in_sync()
            return answer
        if op == "state":
            unless_tip = payload.get("unless_tip")
            if "unless_tip" in payload and not isinstance(unless_tip, str):
                raise FedprovError("malformed request: QUERY state's 'unless_tip' is not a string")
            view = self.node.view
            answer = {"height": view.height, "tip_hash": view.tip_hash}
            if unless_tip is None or unless_tip != view.tip_hash:
                answer["state"] = self.node.state_dump(view)
            return answer
        if op == "verify_chain":
            view, report = self.node.audit()
            return {"report": report, **self._named(view)}
        if op == "blocks":
            if type(start := payload.get("from")) is not int or start < 0:
                raise FedprovError("malformed request: QUERY blocks needs an integer 'from' >= 0")
            return {"blocks": self._orderer().pull(payload.get("org"), start)}
        raise FedprovError(f"unknown query op: {op!r}")

    def _named(self, view: View) -> dict:
        """*view*'s height, tip hash and state digest, the digest computed now."""
        return {"height": view.height, "tip_hash": view.tip_hash,
                "state_digest": self.node.state_digest(view)}

    def _orderer(self) -> OrderingService:
        if self.orderer is None:
            raise FedprovError(f"{self.node.org_name} does not host the orderer")
        return self.orderer


class Puller(threading.Thread):
    """A replica's pull loop: it asks the orderer organization's node for the
    blocks from its height + 1, and commits each. A replica that was down,
    slow or refused a block catches up on this same path. It logs once per
    outage, not once per retry."""

    def __init__(self, node: OrgNode, orderer: Transport):
        super().__init__(name=f"pull-{node.org_name}", daemon=True)
        self.node = node
        self.orderer = orderer
        self.stopping = threading.Event()

    def run(self) -> None:
        failing = False
        while not self.stopping.is_set():
            request = {"op": "blocks", "from": self.node.height() + 1,
                       "org": self.node.org_name}
            try:
                for block in self.orderer("QUERY", request)["blocks"]:
                    self.node.commit(block)
                failing = False
            except Exception as exc:  # the loop must outlive any failure; it pulls again
                if not (failing or self.stopping.is_set()):
                    _log.warning("%s cannot pull blocks: %s", self.node.org_name, exc,
                                 exc_info=not isinstance(exc, FedprovError))
                failing = True
                self.stopping.wait(PULL_WAIT_S)


class RegistryService:
    def __init__(
        self,
        registry: PIDRegistry,
        orgs: Mapping[str, identity_mod.Organization],
    ):
        self.registry = registry
        self.orgs = dict(orgs)

    def handle(self, kind: str, payload: dict) -> dict:
        _require_object(kind, payload)
        if kind == "RESOLVE":
            record = self.registry.resolve(_pid(kind, payload))
            return {"ok": True, "record": record.to_dict()}
        if kind == "HISTORY":
            chain = self.registry.version_history(_pid(kind, payload))
            return {"ok": True, "records": [r.to_dict() for r in chain]}
        if kind == "MINT":
            request = payload.get("request", {})
            caller = identity_mod.authenticate(
                payload.get("caller"), payload.get("signature"), canonical_bytes(request),
                self.orgs,
            )
            if request != {}:
                raise FedprovError("malformed request: a MINT request is the empty object")
            if not identity_mod.may_write(caller, self.orgs):
                raise UnauthorizedError(f"{caller.user_id!r} may not mint")
            return {"ok": True, "record": self.registry.mint(caller.user_id)}
        raise FedprovError(f"unknown message kind: {kind!r}")


def _require_object(kind: str, payload) -> None:
    if not isinstance(payload, dict):
        raise FedprovError(f"malformed request: {kind} payload is not an object")


def _pid(kind: str, payload: dict) -> str:
    pid = payload.get("pid")
    if not isinstance(pid, str):
        raise FedprovError(f"malformed request: {kind} needs a string 'pid'")
    return pid


def dispatch(service: NodeService, kind: str, payload: dict) -> dict:
    """Answer a request made to *service*'s listen address.

    A registry kind goes straight to the registry service the node holds,
    never through ``NodeService.handle``; every other kind, and a registry
    kind on a node without a registry, goes to ``NodeService.handle``.
    """
    if kind in REGISTRY_KINDS and service.registry is not None:
        return service.registry.handle(kind, payload)
    return service.handle(kind, payload)


def assemble_org(
    config: FederationConfig, org_name: str, transport: TransportFactory
) -> NodeService:
    """Build one organization's node service.

    The orderer organization's node also holds the ``OrderingService`` and
    the ``RegistryService``, which commit to and read from that node. Every
    other node holds a ``Puller``, not started, that pulls through *transport*.
    """
    orgs = config.orgs_map()
    node_identity, node_key = load_node_credentials(config, org_name)
    node = OrgNode(
        org_name=org_name,
        node_identity=node_identity,
        node_private_key=node_key,
        orgs=orgs,
        endorsement_policy=config.endorsement_policy,
        ledger_path=config.ledger_path(org_name),
    )
    service = NodeService(node)
    orderer_org = config.orderer_org()
    if orderer_org.name == org_name:
        service.orderer = OrderingService(node)
        service.registry = RegistryService(
            PIDRegistry(config.registry_root, config.pid_prefix, node), orgs
        )
    else:
        service.puller = Puller(node, transport(orderer_org.listen_address))
    return service


def serve(services: Mapping[str, NodeService]) -> list[MessageServer]:
    """Serve each node service on its listen address, the key it is under.

    If one cannot bind, nothing assembled stays up (see ``shut_down``).
    """
    servers: list[MessageServer] = []
    try:
        for address, service in services.items():
            servers.append(MessageServer(address, functools.partial(dispatch, service)).start())
    except TransportError:
        shut_down(services.values(), servers)
        raise
    return servers


def shut_down(services: Iterable[NodeService], servers: list[MessageServer]) -> None:
    """Stop the pull loops and the orderer held by *services*, then *servers*.
    Closing the orderer wakes the pulls waiting at its tip."""
    pullers = [service.puller for service in services if service.puller is not None]
    for puller in pullers:
        puller.stopping.set()
    for service in services:
        if service.orderer is not None:
            service.orderer.close()
    for puller in pullers:
        if puller.is_alive():
            puller.join(timeout=2)
    for server in servers:
        server.stop()
