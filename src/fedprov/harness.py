"""Federation harness: build and run a whole federation in one process.

Used by the test suite, the scenario tests and the benchmark. The wiring is
the deployment's own: the organizations' node services are started by
``services.start_orgs`` (as in ``fedprov federation start-node``), each on
its loopback listen address, and every client comes from
``cli.ClientContext`` (as in every CLI command), so all traffic is real
framed messages over TCP. An organization has one address, and the orderer
organization's address answers the registry and the replicas' pulls too.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from pathlib import Path

from . import identity as identity_mod
from .cli import ClientContext
from .federation import FederationConfig, OrgEntry, init_federation, load_registration
from .ledger.node import OrgNode
from .ledger.ordering import OrderingService
from .ledger.policy import POLICY_ANY_ONE
from .pid_registry import PIDRegistry
from .prov_store import ProvStore
from .services import NodeService, shut_down, start_orgs
from .transport import MessageServer

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
    servers: list[MessageServer]

    # -- construction -----------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        root: Path,
        orgs: tuple[tuple[str, str], ...] = DEFAULT_ORGS,
        endorsement_policy: str = POLICY_ANY_ONE,
        use_tcp: bool = True,
    ) -> "Federation":
        """Initialize a federation under *root* on free loopback ports and
        start it. *use_tcp* is kept for callers that pass True; any other
        value is refused, since every federation is served over TCP."""
        if use_tcp is not True:
            raise ValueError("a federation is served over TCP only: use_tcp must be True")
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
        return cls.start(config_path)

    @classmethod
    def start(cls, config_path: Path) -> "Federation":
        """Bring up all components of an initialized federation."""
        config = FederationConfig.load(config_path)
        registration = load_registration(config)
        orderer_org = config.orderer_org().name
        services, servers = start_orgs(config, [org.name for org in config.organizations])
        return cls(
            config=config,
            config_path=Path(config_path),
            registration=registration,
            nodes={name: service.node for name, service in services.items()},
            services=services,
            orderer=services[orderer_org].orderer,
            registry=services[orderer_org].registry.registry,
            store=ProvStore(config.store_root),
            servers=servers,
        )

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
        ``ledger()``, ``store()`` and ``updater()``."""
        return ClientContext(self.config, identity, private_key)

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

