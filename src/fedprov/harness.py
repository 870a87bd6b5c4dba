"""Federation harness: build and run a whole federation in one process.

Used by the test suite, the scenario tests and the benchmark. The wiring is
the deployment's own: each organization's node service comes from
``services.assemble_org`` (as in ``fedprov federation start-node``) and every
client from ``cli.ClientContext`` (as in every CLI command). Both take a
transport factory, ``address -> transport``, and that factory is the only
thing ``use_tcp`` chooses:

* ``use_tcp=True``: ``TcpTransport``, with every node served on its loopback
  listen address, so all traffic is real framed messages;
* the default direct mode: an in-process transport that calls
  ``services.dispatch`` of the node registered for the address, looked up at
  each request.

Either way an organization has one address, and the orderer organization's
address answers the registry and the replicas' pulls too.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from . import identity as identity_mod
from .cli import ClientContext
from .federation import FederationConfig, OrgEntry, init_federation, load_registration
from .ledger.node import OrgNode
from .ledger.ordering import OrderingService
from .ledger.policy import POLICY_ANY_ONE
from .pid_registry import PIDRegistry
from .prov_store import ProvStore
from .services import NodeService, assemble_org, dispatch, serve, shut_down
from .transport import DirectTransport, MessageServer, TcpTransport, TransportFactory

DEFAULT_ORGS = (("OrgA", "producer"), ("OrgB", "producer"), ("Readers", "consumer-read-only"))


def free_port() -> int:
    return free_ports(1)[0]


def free_ports(count: int) -> list[int]:
    """Distinct free loopback ports (all bound at once to avoid duplicates)."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class Federation:
    config: FederationConfig
    config_path: Path
    registration: identity_mod.RegistrationService
    nodes: dict[str, OrgNode]
    services: dict[str, NodeService]
    orderer: OrderingService
    registry: PIDRegistry
    store: ProvStore
    transport: TransportFactory
    servers: list[MessageServer] = field(default_factory=list)

    # -- construction -----------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        root: Path,
        orgs: tuple[tuple[str, str], ...] = DEFAULT_ORGS,
        endorsement_policy: str = POLICY_ANY_ONE,
        use_tcp: bool = False,
    ) -> "Federation":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        ports = free_ports(len(orgs))
        entries = [
            OrgEntry(name=name, kind=kind, listen_address=f"127.0.0.1:{port}")
            for (name, kind), port in zip(orgs, ports)
        ]
        skeleton = FederationConfig(
            organizations=entries,
            endorsement_policy=endorsement_policy,
            prov_store_root="store",
            base_dir=root,
        )
        config_path = root / "federation.json"
        skeleton.save(config_path)
        init_federation(config_path)
        return cls.start(config_path, use_tcp=use_tcp)

    @classmethod
    def start(cls, config_path: Path, use_tcp: bool = False) -> "Federation":
        """Bring up all components of an initialized federation."""
        config = FederationConfig.load(config_path)
        registration = load_registration(config)
        by_address: dict[str, NodeService] = {}
        transport = TcpTransport if use_tcp else _in_process(by_address)
        orderer_org = config.orderer_org().name
        for org in config.organizations:
            by_address[org.listen_address] = assemble_org(config, org.name, transport)
        services = {
            org.name: by_address[org.listen_address] for org in config.organizations
        }
        federation = cls(
            config=config,
            config_path=Path(config_path),
            registration=registration,
            nodes={name: service.node for name, service in services.items()},
            services=services,
            orderer=services[orderer_org].orderer,
            registry=services[orderer_org].registry.registry,
            store=ProvStore(config.store_root),
            transport=transport,
            servers=serve(by_address) if use_tcp else [],
        )
        for service in services.values():
            if service.puller is not None:
                service.puller.start()
        return federation

    def stop(self) -> None:
        shut_down(self.services.values(), self.servers)
        self.servers.clear()

    # -- participants ---------------------------------------------------------------

    def register_user(self, org: str, user_id: str):
        return self.registration.register_user(org, user_id)

    def client(
        self,
        identity: identity_mod.Identity | None = None,
        private_key: str | None = None,
    ) -> ClientContext:
        """A client of this federation, wired exactly as the CLI's: its
        ``ledger()``, ``registry()``, ``store()`` and ``updater()``."""
        return ClientContext(self.config, identity, private_key, self.transport)

    # -- whole-system inspection -------------------------------------------------------

    def state_digests(self) -> dict[str, str]:
        return {name: node.state_digest() for name, node in self.nodes.items()}

    def system_digest(self) -> str:
        """Digest over ledger state, committed registry records and stored
        blobs (the outbox excluded)."""
        from .canonical import digest

        return digest(
            {
                "ledger": self.nodes[self.config.orderer_org().name].state_dump(),
                "registry": self.registry.state_digest(),
                "store": self.store.state_digest(),
            }
        )


def _in_process(services: Mapping[str, NodeService]) -> TransportFactory:
    """Transports that answer with ``dispatch(services[address], ...)`` directly.

    The service is looked up when a request is made, not when the transport
    is made, so transports may be handed out before *services* is complete.
    """

    def transport(address: str) -> DirectTransport:
        return DirectTransport(lambda kind, payload: dispatch(services[address], kind, payload))

    return transport
