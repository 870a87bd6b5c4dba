"""Identity issuance, verification, and the authorization predicate."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from fedprov import crypto, identity as identity_mod
from fedprov.errors import ConfigError, DuplicateUserError, UnauthorizedError, UnknownOrgError
from fedprov.federation import FederationConfig, OrgEntry


@pytest.fixture()
def service(tmp_path):
    return identity_mod.RegistrationService.create(
        [("OrgA", "producer"), ("OrgB", "producer"), ("Readers", "consumer-read-only")],
        ca_dir=tmp_path / "cas",
        identities_dir=tmp_path / "identities",
        keys_dir=tmp_path / "keys",
    )


def test_write_right_follows_the_certifying_organization(service, tmp_path):
    """``may_write`` holds exactly for a certified member of a producer org."""
    orgs = service.organizations
    alice, _ = service.register_user("OrgA", "alice")
    bob, _ = service.register_user("OrgB", "bob")
    ruth, _ = service.register_user("Readers", "ruth")
    assert identity_mod.may_write(alice, orgs)
    assert identity_mod.may_write(bob, orgs)
    assert not identity_mod.may_write(ruth, orgs)
    # Claiming a producer org does not help a read-only user's certificate,
    # and neither does an org the federation does not have.
    assert not identity_mod.may_write(dataclasses.replace(ruth, org="OrgA"), orgs)
    assert not identity_mod.may_write(dataclasses.replace(alice, org="Nowhere"), orgs)
    rogue = identity_mod.RegistrationService.create(
        [("OrgA", "producer")], ca_dir=tmp_path / "rogue-cas",
        identities_dir=tmp_path / "rogue-ids", keys_dir=tmp_path / "rogue-keys",
    )
    mallory, _ = rogue.register_user("OrgA", "mallory")
    assert not identity_mod.may_write(mallory, orgs)


def test_creator_round_trip_keeps_identity(service):
    for org, user in (("OrgA", "alice"), ("Readers", "bob")):
        identity, _ = service.register_user(org, user)
        creator = identity.to_creator()
        assert set(creator) == {"user_id", "org", "public_key", "certificate"}
        assert identity_mod.Identity.from_creator(creator) == identity
    stranger = identity_mod.Identity.from_creator({"org": "Nowhere"})
    assert not identity_mod.verify_identity(stranger, service.organizations)
    assert not identity_mod.may_write(stranger, service.organizations)


def test_authenticate_accepts_only_a_proven_claim(service):
    alice, alice_key = service.register_user("OrgA", "alice")
    orgs = service.organizations
    signature = crypto.sign(alice_key, b"message")
    assert identity_mod.authenticate(alice.to_creator(), signature, b"message", orgs) == alice
    for claim, sig in [
        (None, signature),
        ("x", signature),
        ({"user-id": "alice"}, signature),
        ({**alice.to_creator(), "org": ["OrgA"]}, signature),
        ({**alice.to_creator(), "user_id": "bob"}, signature),
        (alice.to_creator(), crypto.sign(alice_key, b"other")),
        (alice.to_creator(), None),
    ]:
        with pytest.raises(UnauthorizedError):
            identity_mod.authenticate(claim, sig, b"message", orgs)


def test_register_duplicate_user_rejected(service):
    service.register_user("OrgA", "alice")
    with pytest.raises(DuplicateUserError):
        service.register_user("OrgA", "alice")


def test_register_unknown_org_rejected(service):
    with pytest.raises(UnknownOrgError):
        service.register_user("OrgZ", "zoe")


def test_user_without_key_material_is_a_config_error(service):
    """As a node without identity material is (``load_node_credentials``)."""
    with pytest.raises(ConfigError, match="no identity material for user 'nobody'"):
        identity_mod.user_credentials(service.keys_dir, "nobody")


def test_same_user_id_refused_in_other_org(service):
    """A user id names one user across the federation: private keys live
    under ``keys/<user_id>/`` and the ledger names owners by bare user id,
    so a namesake in another org would overwrite the first user's key and
    act as its owner."""
    alice, key = service.register_user("OrgA", "alice")
    with pytest.raises(DuplicateUserError, match="'OrgA'"):
        service.register_user("OrgB", "alice")
    assert identity_mod.user_credentials(service.keys_dir, "alice") == (alice, key)
    assert not (service.identities_dir / "alice@OrgB.json").exists()


def test_verify_identity_round_trip(service):
    alice, _ = service.register_user("OrgA", "alice")
    assert identity_mod.verify_identity(alice, service.organizations)


def test_verify_identity_stable_across_reload(service):
    alice, _ = service.register_user("OrgA", "alice")
    path = service.identities_dir / "alice@OrgA.json"
    reloaded = identity_mod.load_identity(path)
    assert reloaded == alice
    assert identity_mod.verify_identity(reloaded, service.organizations)


def test_identity_file_schema(service):
    import json

    service.register_user("OrgA", "alice")
    data = json.loads((service.identities_dir / "alice@OrgA.json").read_text())
    assert set(data) == {"user-id", "org", "public-key", "certificate"}
    assert data["user-id"] == "alice"
    assert data["org"] == "OrgA"


def test_flipped_certificate_byte_fails(service):
    alice, _ = service.register_user("OrgA", "alice")
    tampered_cert = _flip_hex_char(alice.certificate, 5)
    tampered = dataclasses.replace(alice, certificate=tampered_cert)
    assert not identity_mod.verify_identity(tampered, service.organizations)


def test_organization_invariants(tmp_path):
    """``FederationConfig.validate`` is the one check of the organization set."""

    def config(*orgs):
        entries = [
            OrgEntry(name, kind, f"127.0.0.1:{7400 + index}")
            for index, (name, kind) in enumerate(orgs)
        ]
        return FederationConfig(organizations=entries, base_dir=tmp_path)

    config(("A", "producer"), ("R", "consumer-read-only")).validate()
    for bad in [
        config(("A", "producer")),
        config(("A", "producer"), ("R1", "consumer-read-only"), ("R2", "consumer-read-only")),
        config(("A", "producer"), ("A", "producer"), ("R", "consumer-read-only")),
        config(("A", "producer"), ("B", "curator"), ("R", "consumer-read-only")),
        config(("R", "consumer-read-only")),
    ]:
        with pytest.raises(ConfigError):
            bad.validate()


def test_rogue_ca_identity_rejected(service, tmp_path):
    """An identity issued by a CA outside the federation must not verify."""
    rogue = identity_mod.RegistrationService.create(
        [("OrgA", "producer"), ("Shadow", "consumer-read-only")],
        ca_dir=tmp_path / "rogue-cas",
        identities_dir=tmp_path / "rogue-ids",
        keys_dir=tmp_path / "rogue-keys",
    )
    mallory, _ = rogue.register_user("OrgA", "mallory")
    # Claims org "OrgA", but signed by the rogue CA, not the federation's.
    assert not identity_mod.verify_identity(mallory, service.organizations)


# -- check_auth ----------------------------------------------------------------


@pytest.fixture()
def auth_fixture(service):
    alice, alice_key = service.register_user("OrgA", "alice")
    bob, bob_key = service.register_user("OrgB", "bob")
    ruth, ruth_key = service.register_user("Readers", "ruth")
    return {
        "orgs": service.organizations,
        "alice": (alice, alice_key),
        "bob": (bob, bob_key),
        "ruth": (ruth, ruth_key),
    }


def test_owner_passes_without_grant(auth_fixture):
    alice, _ = auth_fixture["alice"]
    assert identity_mod.check_auth(
        "21.P/000001", "update-provenance", alice, ["alice"], auth_fixture["orgs"]
    )


def test_consumer_always_fails_even_with_grant(auth_fixture):
    alice, alice_key = auth_fixture["alice"]
    ruth, _ = auth_fixture["ruth"]
    grant = identity_mod.grant_permission(
        "21.P/000001", "ruth", "update-provenance", alice, alice_key
    )
    for capability in identity_mod.WRITE_CAPABILITIES:
        assert not identity_mod.check_auth(
            "21.P/000001", capability, ruth, ["alice", "ruth"],
            auth_fixture["orgs"], grant,
        )


def test_stranger_without_grant_fails(auth_fixture):
    bob, _ = auth_fixture["bob"]
    assert not identity_mod.check_auth(
        "21.P/000001", "update-provenance", bob, ["alice"], auth_fixture["orgs"]
    )


def test_owner_signed_grant_accepted(auth_fixture):
    alice, alice_key = auth_fixture["alice"]
    bob, _ = auth_fixture["bob"]
    grant = identity_mod.grant_permission(
        "21.P/000001", "bob", "update-provenance", alice, alice_key
    )
    assert identity_mod.check_auth(
        "21.P/000001", "update-provenance", bob, ["alice"], auth_fixture["orgs"], grant
    )


def test_grant_replay_wrong_context_fails(auth_fixture):
    """A valid grant must not authorize other (caller, pid, capability) tuples."""
    alice, alice_key = auth_fixture["alice"]
    bob, _ = auth_fixture["bob"]
    grant = identity_mod.grant_permission(
        "21.P/000001", "bob", "update-provenance", alice, alice_key
    )
    orgs = auth_fixture["orgs"]
    assert not identity_mod.check_auth(
        "21.P/000002", "update-provenance", bob, ["alice"], orgs, grant
    )
    assert not identity_mod.check_auth(
        "21.P/000001", "invalidate-artifact", bob, ["alice"], orgs, grant
    )
    assert not identity_mod.check_auth(
        "21.P/000001", "update-provenance", bob, ["carol"], orgs, grant
    )


def test_missing_state_defers_to_role(auth_fixture):
    """With no owners list (unwritten pid) producers pass, read-only users fail."""
    alice, _ = auth_fixture["alice"]
    ruth, _ = auth_fixture["ruth"]
    orgs = auth_fixture["orgs"]
    assert identity_mod.check_auth("21.P/000009", "update-provenance", alice, None, orgs)
    assert not identity_mod.check_auth("21.P/000009", "update-provenance", ruth, None, orgs)


_FIELDS = st.sampled_from(
    ["subject", "grantee", "capability", "grantor", "grantor_org",
     "grantor_public_key", "grantor_certificate", "signature"]
)


@given(field=_FIELDS, data=st.data())
@settings(max_examples=40, deadline=None)
def test_grant_forgery_resistance(field, data, tmp_path_factory):
    """Mutating any field of a signed grant makes check_auth false."""
    fixture = _forgery_fixture(tmp_path_factory)
    alice, alice_key = fixture["alice"]
    bob, _ = fixture["bob"]
    orgs = fixture["orgs"]
    grant = identity_mod.grant_permission(
        "21.P/000001", "bob", "update-provenance", alice, alice_key
    )
    original = getattr(grant, field)
    mutated_value = data.draw(
        st.text(min_size=1, max_size=16).filter(lambda s: s != original)
    )
    if field in ("grantor_public_key", "grantor_certificate", "signature"):
        mutated_value = _flip_hex_char(original, data.draw(st.integers(0, len(original) - 1)))
    forged = dataclasses.replace(grant, **{field: mutated_value})
    assert not identity_mod.check_auth(
        "21.P/000001", "update-provenance", bob, ["alice"], orgs, forged
    )


_FORGERY_CACHE: dict = {}


def _forgery_fixture(tmp_path_factory):
    if not _FORGERY_CACHE:
        base = tmp_path_factory.mktemp("forgery")
        service = identity_mod.RegistrationService.create(
            [("OrgA", "producer"), ("OrgB", "producer"),
             ("Readers", "consumer-read-only")],
            ca_dir=base / "cas",
            identities_dir=base / "identities",
            keys_dir=base / "keys",
        )
        _FORGERY_CACHE["alice"] = service.register_user("OrgA", "alice")
        _FORGERY_CACHE["bob"] = service.register_user("OrgB", "bob")
        _FORGERY_CACHE["orgs"] = service.organizations
    return _FORGERY_CACHE


def test_sign_verify_round_trip():
    private_hex, public_hex = crypto.generate_keypair()
    signature = crypto.sign(private_hex, b"message")
    assert crypto.verify(public_hex, signature, b"message")
    assert not crypto.verify(public_hex, signature, b"other")


@pytest.mark.parametrize("bad", [None, 7, ["00"], {"hex": "00"}, 2.5])
def test_verify_refuses_non_string_key_or_signature(bad):
    private_hex, public_hex = crypto.generate_keypair()
    signature = crypto.sign(private_hex, b"message")
    assert crypto.verify(public_hex, bad, b"message") is False
    assert crypto.verify(bad, signature, b"message") is False


def _flip_hex_char(hex_string: str, index: int) -> str:
    replacement = "0" if hex_string[index] != "0" else "1"
    return hex_string[:index] + replacement + hex_string[index + 1:]


def test_every_private_key_of_a_bootstrapped_federation_is_owner_only(fed, monkeypatch):
    monkeypatch.delenv(identity_mod.KEYDIR_ENV, raising=False)
    fed.register_user("OrgA", "alice")
    fed.register_user("Readers", "ruth")
    config = fed.config
    keys = (
        sorted(config.ca_dir.glob("*.key"))
        + [config.node_dir(org.name) / "node.key" for org in config.organizations]
        + sorted(config.keys_dir.glob("*/key"))
    )
    orgs = len(config.organizations)
    # one CA key and one node key per org, a user key per node and per user
    assert len(keys) == 3 * orgs + 2
    assert {str(path): oct(path.stat().st_mode & 0o777) for path in keys} == {
        str(path): oct(0o600) for path in keys
    }


def test_write_private_key_tightens_an_existing_file(tmp_path):
    path = tmp_path / "key"
    path.write_text("old")
    path.chmod(0o644)
    identity_mod.write_private_key(path, "00ff")
    assert path.read_text() == "00ff"
    assert path.stat().st_mode & 0o777 == 0o600
