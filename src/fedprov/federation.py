"""Federation configuration and workspace bootstrap.

One JSON config file describes the whole federation: the organizations with
their CA public keys and node listen addresses, the endorsement policy, the
PID prefix, and the provenance store root. Each organization answers on its
node's listen address; the orderer organization's address also answers the
PID registry. The ``registry-address``, ``max-block-txs`` and
``max-clock-skew-ms`` keys of an older config are ignored.
Relative paths resolve against the config file's directory, so a workspace
is a self-contained directory tree:

    workspace/
      federation.json          the config (public)
      cas/<org>.key            CA private keys (registration service only)
      identities/<user>@<org>.json   issued public identity records
      keys/<user>/{key,identity.json}  per-user private material
      nodes/<org>/ledger.jsonl     one replica per organization
      nodes/<org>/node.{json,key}  node signing identity
      registry/records/<suffix>.json   PID reservations, resolvable once committed
      store/<2-hex>/<62-hex>       content-addressed blobs
      outbox/<org>.jsonl           invalidation notifications

``init_federation`` generates the CAs and node identities, completes the
config, and writes the identical genesis block to every node's ledger file.
The ordering service is hosted by the first producer organization's node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from . import identity as identity_mod
from .errors import ConfigError
from .ledger import blocks as ledger_blocks
from .ledger.policy import POLICIES, POLICY_ANY_ONE


@dataclass
class OrgEntry:
    name: str
    kind: str
    listen_address: str
    ca_public_key: str | None = None

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "kind": self.kind,
            "listen-address": self.listen_address,
        }
        if self.ca_public_key:
            data["ca-public-key"] = self.ca_public_key
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "OrgEntry":
        return cls(
            name=data["name"],
            kind=data["kind"],
            listen_address=data["listen-address"],
            ca_public_key=data.get("ca-public-key"),
        )


@dataclass
class FederationConfig:
    organizations: list[OrgEntry]
    endorsement_policy: str = POLICY_ANY_ONE
    pid_prefix: str = "21.P"
    prov_store_root: str = "store"
    base_dir: Path = field(default_factory=Path)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "organizations": [org.to_dict() for org in self.organizations],
            "endorsement-policy": self.endorsement_policy,
            "pid-prefix": self.pid_prefix,
            "prov-store-root": self.prov_store_root,
        }

    @classmethod
    def from_dict(cls, data: Mapping, base_dir: Path) -> "FederationConfig":
        try:
            return cls(
                organizations=[OrgEntry.from_dict(o) for o in data["organizations"]],
                endorsement_policy=data.get("endorsement-policy", POLICY_ANY_ONE),
                pid_prefix=data.get("pid-prefix", "21.P"),
                prov_store_root=data.get("prov-store-root", "store"),
                base_dir=Path(base_dir),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed federation config: {exc}") from exc

    @classmethod
    def load(cls, path: Path) -> "FederationConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        config = cls.from_dict(data, path.parent.resolve())
        config.validate()
        return config

    def save(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        if not self.organizations:
            raise ConfigError("federation config lists no organizations")
        names = [o.name for o in self.organizations]
        if len(set(names)) != len(names):
            raise ConfigError("organization names must be unique")
        addresses = [o.listen_address for o in self.organizations]
        if len(set(addresses)) != len(addresses):
            raise ConfigError("listen addresses must be unique")
        readonly = [o for o in self.organizations if o.kind == identity_mod.ORG_CONSUMER]
        if len(readonly) != 1:
            raise ConfigError("federation needs exactly one read-only organization")
        for org in self.organizations:
            if org.kind not in (identity_mod.ORG_PRODUCER, identity_mod.ORG_CONSUMER):
                raise ConfigError(f"unknown organization kind: {org.kind!r}")
        if self.endorsement_policy not in POLICIES:
            raise ConfigError(f"unknown endorsement policy: {self.endorsement_policy!r}")
        if not self.producer_orgs():
            raise ConfigError("federation needs at least one producer organization")

    def require_cas(self) -> None:
        missing = [o.name for o in self.organizations if not o.ca_public_key]
        if missing:
            raise ConfigError(f"organizations without CA keys (run federation init): {missing}")

    # -- accessors ----------------------------------------------------------------

    def orgs_map(self) -> dict[str, identity_mod.Organization]:
        self.require_cas()
        return {
            o.name: identity_mod.Organization(
                name=o.name, kind=o.kind, ca_public_key=o.ca_public_key
            )
            for o in self.organizations
        }

    def producer_orgs(self) -> list[OrgEntry]:
        return [o for o in self.organizations if o.kind == identity_mod.ORG_PRODUCER]

    def orderer_org(self) -> OrgEntry:
        return self.producer_orgs()[0]

    def org_entry(self, name: str) -> OrgEntry:
        for org in self.organizations:
            if org.name == name:
                return org
        raise ConfigError(f"organization not in federation: {name!r}")

    # -- workspace paths -------------------------------------------------------------

    def _resolve(self, value: str) -> Path:
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path

    @property
    def store_root(self) -> Path:
        return self._resolve(self.prov_store_root)

    @property
    def ca_dir(self) -> Path:
        return self.base_dir / "cas"

    @property
    def identities_dir(self) -> Path:
        return self.base_dir / "identities"

    @property
    def keys_dir(self) -> Path:
        return self.base_dir / "keys"

    @property
    def registry_root(self) -> Path:
        return self.base_dir / "registry"

    @property
    def outbox_dir(self) -> Path:
        return self.base_dir / "outbox"

    def node_dir(self, org: str) -> Path:
        return self.base_dir / "nodes" / org

    def ledger_path(self, org: str) -> Path:
        return self.node_dir(org) / "ledger.jsonl"


def init_federation(config_path: Path) -> FederationConfig:
    """Generate CAs and node identities, then write genesis everywhere.

    Reads a config skeleton (organizations + addresses), fills in the CA
    public keys it generates, and refuses to run twice against the same
    workspace: ledgers are append-only.
    """
    config = FederationConfig.load(config_path)
    for org in config.organizations:
        if config.ledger_path(org.name).exists():
            raise ConfigError(
                f"node {org.name} already has a ledger; refusing to re-init"
            )

    registration = identity_mod.RegistrationService.create(
        [(o.name, o.kind) for o in config.organizations],
        ca_dir=config.ca_dir,
        identities_dir=config.identities_dir,
        keys_dir=config.keys_dir,
    )
    for org in config.organizations:
        org.ca_public_key = registration.organizations[org.name].ca_public_key

    genesis = ledger_blocks.genesis_block()
    for org in config.organizations:
        node_dir = config.node_dir(org.name)
        node_dir.mkdir(parents=True, exist_ok=True)
        node_identity, node_key = registration.register_user(org.name, f"node-{org.name}")
        (node_dir / "node.json").write_text(
            json.dumps(node_identity.to_dict(), indent=2, sort_keys=True)
        )
        identity_mod.write_private_key(node_dir / "node.key", node_key)
        store = ledger_blocks.BlockStore(config.ledger_path(org.name))
        store.append(genesis)

    config.store_root.mkdir(parents=True, exist_ok=True)
    config.registry_root.mkdir(parents=True, exist_ok=True)
    config.outbox_dir.mkdir(parents=True, exist_ok=True)
    config.save(Path(config_path))
    return config


def load_registration(config: FederationConfig) -> identity_mod.RegistrationService:
    """The registration service of an initialized federation's workspace."""
    return identity_mod.RegistrationService.load(
        config.orgs_map().values(),
        ca_dir=config.ca_dir,
        identities_dir=config.identities_dir,
        keys_dir=config.keys_dir,
    )


def load_node_credentials(config: FederationConfig, org: str) -> tuple[identity_mod.Identity, str]:
    node_dir = config.node_dir(org)
    identity_path = node_dir / "node.json"
    key_path = node_dir / "node.key"
    if not identity_path.exists() or not key_path.exists():
        raise ConfigError(f"node {org} has no identity material (run federation init)")
    return (
        identity_mod.load_identity(identity_path),
        key_path.read_text().strip(),
    )
