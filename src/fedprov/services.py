"""Message-kind dispatch for the node, ordering, and registry services.

A ``NodeService`` answers PROPOSE / COMMIT / QUERY on every organization
node and additionally ORDER on the node that hosts the ordering service.
A ``RegistryService`` answers MINT / RESOLVE / HISTORY. A MINT reserves a
PID; RESOLVE and HISTORY answer only records whose ledger write the
registry's host node has committed. A MINT that names a ``predecessor``
reserves the next version of that record's chain.

``assemble_org`` is the one place an organization's server side is built,
for the in-process harness and for ``fedprov federation start-node`` alike;
``serve`` puts the assembled services on their listen addresses.

A MINT carries the caller's identity claim (the ``to_creator`` form a
transaction's ``creator`` takes) and the caller's signature over the
request. ``identity.authenticate`` checks both before anything else, as
``OrgNode.endorse`` does for a proposal, and refuses a malformed or
unverified claim with ``UnauthorizedError``. A request that is not an
object, or lacks its string ``object_kind``, is refused as a malformed
request. MINT then requires ``identity.may_write``, and a MINT with a
``predecessor`` ``identity.check_auth`` on the version chain's first record.
"""

from __future__ import annotations

from typing import Mapping

from . import crypto, identity as identity_mod
from .canonical import canonical_bytes
from .errors import FedprovError, LedgerRejectedError, TransportError, UnauthorizedError
from .federation import FederationConfig, load_node_credentials
from .ledger.node import OrgNode
from .ledger.ordering import OrderingService
from .pid_registry import PIDRegistry
from .transport import MessageServer, TransportFactory


class NodeService:
    def __init__(self, node: OrgNode, orderer: OrderingService | None = None):
        self.node = node
        self.orderer = orderer

    def handle(self, kind: str, payload: dict) -> dict:
        if kind == "PROPOSE":
            return {"kind": "ENDORSE", **self.node.endorse(payload)}
        if kind == "COMMIT":
            response = self.node.commit(payload["block"])
            return {"ok": True, **response}
        if kind == "ORDER":
            if self.orderer is None:
                raise FedprovError(f"{self.node.org_name} does not host the orderer")
            envelopes = payload.get("envelopes")
            if not isinstance(envelopes, list):
                raise LedgerRejectedError("envelope refused: ORDER carries no envelope list")
            return {"ok": True, "receipts": self.orderer.submit(*envelopes)}
        if kind == "QUERY":
            return {"ok": True, **self._query(payload)}
        raise FedprovError(f"unknown message kind: {kind!r}")

    def _query(self, payload: dict) -> dict:
        op = payload.get("op")
        if op == "read":
            return {"value": self.node.read(payload["pid"])}
        if op == "history":
            return {"entries": self.node.history(payload["pid"])}
        if op == "height":
            return {"height": self.node.height(), "tip_hash": self.node.tip_hash()}
        if op == "state":
            return {"state": self.node.state_dump()}
        if op == "state_digest":
            return {"digest": self.node.state_digest()}
        if op == "verify_chain":
            return {"report": self.node.verify_chain()}
        raise FedprovError(f"unknown query op: {op!r}")


class RegistryService:
    def __init__(
        self,
        registry: PIDRegistry,
        orgs: Mapping[str, identity_mod.Organization],
    ):
        self.registry = registry
        self.orgs = dict(orgs)

    def handle(self, kind: str, payload: dict) -> dict:
        if kind == "RESOLVE":
            record = self.registry.resolve(payload["pid"])
            return {"ok": True, "record": record.to_dict()}
        if kind == "HISTORY":
            chain = self.registry.version_history(payload["pid"])
            return {"ok": True, "records": [r.to_dict() for r in chain]}
        if kind == "MINT":
            request = payload.get("request", {})
            caller = identity_mod.authenticate(
                payload.get("caller"), payload.get("signature"), canonical_bytes(request),
                self.orgs,
            )
            return self._mint(request, caller)
        raise FedprovError(f"unknown message kind: {kind!r}")

    def _mint(self, request: dict, caller: identity_mod.Identity) -> dict:
        if not isinstance(request, dict):
            raise FedprovError("malformed request: MINT request is not an object")
        if not isinstance(request.get("object_kind"), str):
            raise FedprovError("malformed request: MINT needs a string 'object_kind'")
        if not identity_mod.may_write(caller, self.orgs):
            raise UnauthorizedError(f"{caller.user_id!r} may not mint")
        predecessor, permission = request.get("predecessor"), None
        if predecessor is not None and not isinstance(predecessor, str):
            raise FedprovError("malformed request: MINT predecessor is not a string")
        if request.get("permission"):
            # A grant lets its holder write the next version, so it
            # comes only with a predecessor.
            if predecessor is None:
                raise FedprovError("malformed request: MINT permission without a predecessor")
            try:
                permission = identity_mod.Permission.from_dict(request["permission"])
            except (AttributeError, KeyError, TypeError):
                raise FedprovError("malformed request: MINT permission is not a grant")
        record = self.registry.mint(
            object_kind=request["object_kind"],
            target_uri=request.get("target_uri", ""),
            checksum=request.get("checksum", ""),
            owner=caller.user_id,
            predecessor=predecessor,
            caller=caller,
            orgs=self.orgs,
            permission=permission,
        )
        return {"ok": True, "record": record.to_dict()}


class RegistryClient:
    """Registry access over any transport, signing mutating requests."""

    def __init__(self, transport, identity: identity_mod.Identity | None = None,
                 private_key: str | None = None):
        self.transport = transport
        self.identity = identity
        self._private_key = private_key

    def resolve(self, pid: str) -> dict:
        return self.transport("RESOLVE", {"pid": pid})["record"]

    def version_history(self, pid: str) -> list[dict]:
        return self.transport("HISTORY", {"pid": pid})["records"]

    def mint(self, object_kind: str, target_uri: str, checksum: str,
             predecessor: str | None = None, permission: dict | None = None) -> dict:
        """Mint a record; with *predecessor*, as the next version of its chain."""
        request = {"object_kind": object_kind, "target_uri": target_uri, "checksum": checksum}
        if predecessor is not None:
            request.update(predecessor=predecessor, permission=permission)
        return self._signed("MINT", request)["record"]

    def _signed(self, kind: str, request: dict) -> dict:
        if self.identity is None or self._private_key is None:
            raise UnauthorizedError(f"{kind} requires caller credentials")
        payload = {
            "caller": self.identity.to_creator(),
            "request": request,
            "signature": crypto.sign(self._private_key, canonical_bytes(request)),
        }
        return self.transport(kind, payload)


Service = NodeService | RegistryService


def assemble_org(
    config: FederationConfig, org_name: str, transport: TransportFactory
) -> dict[str, Service]:
    """Build one organization's services, keyed by their listen addresses.

    Every organization runs a ``NodeService``. The orderer organization's
    node also hosts the ``OrderingService``, which reaches each node through
    ``transport(listen_address)``, and the ``RegistryService``, which sees
    commits through that node.
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
    services: dict[str, Service] = {config.org_entry(org_name).listen_address: service}
    if config.orderer_org().name == org_name:
        service.orderer = OrderingService(
            peers={o.name: transport(o.listen_address) for o in config.organizations},
            orgs=orgs,
            tip_height=node.height(),
            tip_hash=node.tip_hash(),
            max_block_txs=config.max_block_txs,
            max_clock_skew_ms=config.max_clock_skew_ms,
        )
        services[config.registry_address] = RegistryService(
            PIDRegistry(config.registry_root, config.pid_prefix, node), orgs
        )
    return services


def serve(services: Mapping[str, Service]) -> list[MessageServer]:
    """Serve each service on its address.

    If one cannot bind, nothing assembled stays up (see ``shut_down``).
    """
    servers: list[MessageServer] = []
    try:
        for address, service in services.items():
            servers.append(MessageServer(address, service.handle).start())
    except TransportError:
        shut_down(services, servers)
        raise
    return servers


def shut_down(services: Mapping[str, Service], servers: list[MessageServer]) -> None:
    """Close the orderer hosted among *services*, if any, then stop *servers*."""
    for service in services.values():
        if isinstance(service, NodeService) and service.orderer is not None:
            service.orderer.close()
    for server in servers:
        server.stop()
