"""PKI identities, organizations, and the ledger's authorization predicate.

Each federation runs one registration service that collapses the identity
provider and the per-organization certificate authorities: it holds the CA
private keys, issues user keypairs, and signs certificates. A certificate is
the CA's Ed25519 signature over the canonical form of
``{user-id, org, public-key}`` -- deliberately not X.509.

Write rights follow the organization whose CA certified an identity, and
two predicates decide them wherever a write arrives: ``may_write`` (the
identity belongs to a producer organization and its certificate verifies
under that organization's CA) and ``check_auth`` (``may_write``, plus
ownership of the resource or an owner-signed ``Permission`` grant). Users of
the single read-only organization can therefore never write.
``authenticate`` turns a signed identity claim into a verified ``Identity``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from . import crypto
from .canonical import canonical_bytes
from .errors import ConfigError, DuplicateUserError, UnauthorizedError, UnknownOrgError

ORG_PRODUCER = "producer"
ORG_CONSUMER = "consumer-read-only"

CAP_UPDATE_PROVENANCE = "update-provenance"
CAP_INVALIDATE_ARTIFACT = "invalidate-artifact"
WRITE_CAPABILITIES = (CAP_UPDATE_PROVENANCE, CAP_INVALIDATE_ARTIFACT)

KEYDIR_ENV = "FEDPROV_KEYDIR"

# Distinct certificates remembered as checked (see ``_certificate_valid``).
CERTIFICATE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Organization:
    """A federation member; ``ca_public_key`` anchors all its identities."""

    name: str
    kind: str
    ca_public_key: str


@dataclass(frozen=True)
class Identity:
    """A user identity: CA-certified public key bound to an organization."""

    user_id: str
    org: str
    public_key: str
    certificate: str

    def certificate_payload(self) -> bytes:
        return certificate_payload(self.user_id, self.org, self.public_key)

    def to_dict(self) -> dict:
        return {
            "user-id": self.user_id,
            "org": self.org,
            "public-key": self.public_key,
            "certificate": self.certificate,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Identity":
        """The identity an identity file records."""
        return cls(
            user_id=data["user-id"],
            org=data["org"],
            public_key=data["public-key"],
            certificate=data["certificate"],
        )

    def to_creator(self) -> dict:
        """The ``creator`` field of a transaction body."""
        return {
            "user_id": self.user_id,
            "org": self.org,
            "public_key": self.public_key,
            "certificate": self.certificate,
        }

    @classmethod
    def from_creator(cls, creator: Mapping) -> "Identity":
        """The identity a ``creator`` claim names; unverified."""
        return cls(
            user_id=creator.get("user_id", ""),
            org=creator.get("org", ""),
            public_key=creator.get("public_key", ""),
            certificate=creator.get("certificate", ""),
        )


def certificate_payload(user_id: str, org: str, public_key: str) -> bytes:
    return canonical_bytes({"org": org, "public-key": public_key, "user-id": user_id})


def verify_identity(identity: Identity, orgs: Mapping[str, Organization]) -> bool:
    """True iff the certificate verifies under the claimed org's CA."""
    org = orgs.get(identity.org)
    if org is None or not isinstance(identity.certificate, str):
        return False
    return _certificate_valid(
        org.ca_public_key, identity.certificate, identity.certificate_payload()
    )


@functools.lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def _certificate_valid(ca_public_key: str, certificate: str, payload: bytes) -> bool:
    """One Ed25519 check per distinct (CA key, certificate, payload).

    The same few certificates come with every transaction, endorsement and
    registry request. The key is the exact input, and the payload holds
    user-id, org and public key, so a certificate claimed under another
    identity is checked afresh.
    """
    return crypto.verify(ca_public_key, certificate, payload)


def may_write(caller: Identity, orgs: Mapping[str, Organization]) -> bool:
    """True iff *caller* may write at all.

    Its organization must be a producer organization, and its certificate
    must verify under that organization's CA.
    """
    org = orgs.get(caller.org)
    return org is not None and org.kind == ORG_PRODUCER and verify_identity(caller, orgs)


def authenticate(
    claim: object, signature: object, message: bytes, orgs: Mapping[str, Organization]
) -> Identity:
    """The identity *claim* names, once it is proven to have signed *message*.

    *claim* takes the ``to_creator`` form. Its certificate must verify under
    its organization's CA and *signature* under its public key; anything
    else, a malformed claim included, raises ``UnauthorizedError``.
    """
    if not isinstance(claim, Mapping):
        raise UnauthorizedError("identity claim is not an object")
    caller = Identity.from_creator(claim)
    fields = (caller.user_id, caller.org, caller.public_key, caller.certificate)
    if not all(isinstance(value, str) for value in fields) or not verify_identity(caller, orgs):
        raise UnauthorizedError("unknown or forged identity")
    if not crypto.verify(caller.public_key, signature, message):
        raise UnauthorizedError("signature invalid")
    return caller


@dataclass(frozen=True)
class Permission:
    """An owner-signed grant of one write capability on one PID.

    Grants carry the grantor's own certified key material so they can be
    verified by any node without a directory lookup. There is no expiry or
    revocation; a grant is valid for as long as the grantor stays an owner.
    """

    subject: str
    grantee: str
    capability: str
    grantor: str
    grantor_org: str
    grantor_public_key: str
    grantor_certificate: str
    signature: str

    def payload(self) -> bytes:
        return canonical_bytes(
            {
                "capability": self.capability,
                "grantee": self.grantee,
                "grantor": self.grantor,
                "grantor-org": self.grantor_org,
                "grantor-public-key": self.grantor_public_key,
                "subject": self.subject,
            }
        )

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "grantee": self.grantee,
            "capability": self.capability,
            "grantor": self.grantor,
            "grantor-org": self.grantor_org,
            "grantor-public-key": self.grantor_public_key,
            "grantor-certificate": self.grantor_certificate,
            "signature": self.signature,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Permission":
        return cls(
            subject=data["subject"],
            grantee=data["grantee"],
            capability=data["capability"],
            grantor=data["grantor"],
            grantor_org=data["grantor-org"],
            grantor_public_key=data["grantor-public-key"],
            grantor_certificate=data["grantor-certificate"],
            signature=data["signature"],
        )


def grant_permission(
    subject: str,
    grantee: str,
    capability: str,
    grantor: Identity,
    grantor_private_key: str,
) -> Permission:
    """Create a signed grant. Validity is decided later by ``check_auth``."""
    grant = Permission(
        subject=subject,
        grantee=grantee,
        capability=capability,
        grantor=grantor.user_id,
        grantor_org=grantor.org,
        grantor_public_key=grantor.public_key,
        grantor_certificate=grantor.certificate,
        signature="",
    )
    signature = crypto.sign(grantor_private_key, grant.payload())
    return Permission(**{**grant.__dict__, "signature": signature})


def check_auth(
    pid: str,
    capability: str,
    caller: Identity,
    owners: list[str] | None,
    orgs: Mapping[str, Organization],
    permission: Permission | None = None,
) -> bool:
    """The write-permission predicate of every write to an existing resource.

    True iff the caller ``may_write`` and is an owner of *pid* or presents
    a grant of (pid, caller, capability) signed by an owner who also
    ``may_write``. A read-only user is refused even with a grant.
    ``owners=None`` means the resource has no readable state yet; only
    ``may_write`` then applies, so the operation can report
    resource-not-found instead.
    """
    if not may_write(caller, orgs):
        return False
    if owners is None or caller.user_id in owners:
        return True
    if (
        permission is None
        or permission.subject != pid
        or permission.grantee != caller.user_id
        or permission.capability != capability
        or permission.grantor not in owners
    ):
        return False
    grantor = Identity(
        permission.grantor,
        permission.grantor_org,
        permission.grantor_public_key,
        permission.grantor_certificate,
    )
    return may_write(grantor, orgs) and crypto.verify(
        permission.grantor_public_key, permission.signature, permission.payload()
    )


@dataclass
class RegistrationService:
    """Local CA + identity provider for one federation.

    Issues keypairs and certificates, persists public identity records under
    ``identities_dir`` (one JSON file per user, schema
    ``{user-id, org, public-key, certificate}``) and private material under a
    per-user key directory (``$FEDPROV_KEYDIR`` overrides the default).
    Identity records are immutable once issued; writes are serialized.
    """

    ca_keys: dict[str, str]
    organizations: dict[str, Organization]
    identities_dir: Path
    keys_dir: Path
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def create(
        cls,
        org_specs: Iterable[tuple[str, str]],
        ca_dir: Path,
        identities_dir: Path,
        keys_dir: Path,
    ) -> "RegistrationService":
        """Generate a CA per organization and persist private keys to *ca_dir*."""
        ca_dir = Path(ca_dir)
        ca_dir.mkdir(parents=True, exist_ok=True)
        orgs: dict[str, Organization] = {}
        ca_keys: dict[str, str] = {}
        for name, kind in org_specs:
            private_hex, public_hex = crypto.generate_keypair()
            orgs[name] = Organization(name=name, kind=kind, ca_public_key=public_hex)
            ca_keys[name] = private_hex
            write_private_key(ca_dir / f"{name}.key", private_hex)
        service = cls(
            ca_keys=ca_keys,
            organizations=orgs,
            identities_dir=Path(identities_dir),
            keys_dir=Path(keys_dir),
        )
        service.identities_dir.mkdir(parents=True, exist_ok=True)
        service.keys_dir.mkdir(parents=True, exist_ok=True)
        return service

    @classmethod
    def load(
        cls,
        organizations: Iterable[Organization],
        ca_dir: Path,
        identities_dir: Path,
        keys_dir: Path,
    ) -> "RegistrationService":
        """Reopen a service from persisted CA keys and an org list."""
        orgs = {o.name: o for o in organizations}
        ca_keys = {}
        for name in orgs:
            key_path = Path(ca_dir) / f"{name}.key"
            if key_path.exists():
                ca_keys[name] = key_path.read_text().strip()
        return cls(
            ca_keys=ca_keys,
            organizations=orgs,
            identities_dir=Path(identities_dir),
            keys_dir=Path(keys_dir),
        )

    def register_user(self, org: str, user_id: str) -> tuple[Identity, str]:
        """Issue a fresh keypair and certificate; returns (identity, private_key).

        Raises ``UnknownOrgError`` for orgs outside the federation and
        ``DuplicateUserError`` if any organization already has the user id:
        private keys live under ``keys/<user_id>/`` and the ledger names
        owners by bare user id.
        """
        with self._lock:
            if org not in self.organizations or org not in self.ca_keys:
                raise UnknownOrgError(f"organization not in federation: {org!r}")
            for holder in self.organizations:
                if self._record_path(user_id, holder).exists():
                    raise DuplicateUserError(
                        f"user already registered: {user_id!r} in {holder!r}"
                    )
            record_path = self._record_path(user_id, org)
            private_hex, public_hex = crypto.generate_keypair()
            certificate = crypto.sign(
                self.ca_keys[org], certificate_payload(user_id, org, public_hex)
            )
            identity = Identity(
                user_id=user_id,
                org=org,
                public_key=public_hex,
                certificate=certificate,
            )
            record = json.dumps(identity.to_dict(), indent=2, sort_keys=True)
            record_path.write_text(record)
            user_dir = self._user_key_dir(user_id)
            user_dir.mkdir(parents=True, exist_ok=True)
            write_private_key(user_dir / "key", private_hex)
            (user_dir / "identity.json").write_text(record)
            return identity, private_hex

    def _record_path(self, user_id: str, org: str) -> Path:
        return self.identities_dir / f"{user_id}@{org}.json"

    def _user_key_dir(self, user_id: str) -> Path:
        return _keys_base(self.keys_dir) / user_id


def load_identity(path: Path) -> Identity:
    with open(path, "r", encoding="utf-8") as fh:
        return Identity.from_dict(json.load(fh))


def user_credentials(keys_base: Path, user_id: str) -> tuple[Identity, str]:
    """Load (identity, private_key) from a per-user key directory.

    ``keys_base`` is the directory holding one subdirectory per user; the
    ``FEDPROV_KEYDIR`` environment variable overrides it. A user without
    both files there is a ``ConfigError``, as a node without them is.
    """
    base = _keys_base(keys_base)
    user_dir = base / user_id
    identity_path = user_dir / "identity.json"
    key_path = user_dir / "key"
    if not identity_path.exists() or not key_path.exists():
        raise ConfigError(f"no identity material for user {user_id!r} under {base}")
    return load_identity(identity_path), key_path.read_text().strip()


def write_private_key(path: Path, private_hex: str) -> None:
    """Write a private key that only its owner may read or write (mode 0600)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        os.fchmod(fh.fileno(), 0o600)  # a file that already existed keeps its mode otherwise
        fh.write(private_hex)


def _keys_base(default: Path) -> Path:
    override = os.environ.get(KEYDIR_ENV)
    return Path(override) if override else Path(default)
