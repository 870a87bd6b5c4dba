"""PID minting, resolution, and linear version chains."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fedprov import identity as identity_mod
from fedprov.errors import (
    BrokenChainError,
    KindMismatchError,
    SuccessorExistsError,
    UnauthorizedError,
    UnknownPIDError,
)
from fedprov.pid_registry import PID, PIDRegistry


@pytest.fixture()
def registry(tmp_path):
    return PIDRegistry(tmp_path / "registry", "21.P")


def _service(root):
    return identity_mod.RegistrationService.create(
        [("OrgA", "producer"), ("OrgB", "producer"), ("Readers", "consumer-read-only")],
        ca_dir=root / "cas",
        identities_dir=root / "ids",
        keys_dir=root / "keys",
    )


@pytest.fixture()
def service(tmp_path):
    return _service(tmp_path)


@pytest.fixture()
def orgs(service):
    return service.organizations


@pytest.fixture()
def owner(service):
    identity, _ = service.register_user("OrgA", "alice")
    return identity


def test_first_mint_suffix(registry):
    record = registry.mint("artifact", "cas://x", "x", owner="alice")
    assert record.pid == "21.P/000001"
    assert record.version_number == 1
    assert record.predecessor is None and record.successor is None


def test_mints_are_distinct(registry):
    first = registry.mint("artifact", "cas://x", "x", owner="alice")
    second = registry.mint("artifact", "cas://y", "y", owner="alice")
    assert first.pid != second.pid


def test_mint_with_empty_uri_fillable_later(registry, owner):
    record = registry.mint("artifact", "", "", owner="alice")
    assert record.target_uri == ""


def test_resolve_round_trip(registry):
    record = registry.mint("artifact", "cas://x", "x", owner="alice")
    assert registry.resolve(record.pid) == record
    # Resolution stability: the resolved record answers for the queried pid.
    assert registry.resolve(record.pid).pid == record.pid


def test_resolve_malformed_pid(registry):
    with pytest.raises(UnknownPIDError):
        registry.resolve("no-slash-here")


def test_resolve_unknown_pid(registry):
    with pytest.raises(UnknownPIDError):
        registry.resolve("21.P/999999")


def test_pid_parse():
    pid = PID.parse("21.P/000001")
    assert (pid.prefix, pid.suffix) == ("21.P", "000001")
    assert str(pid) == "21.P/000001"


def _next_version(registry, predecessor, caller, orgs, checksum="cn", **kwargs):
    """Mint the version after *predecessor* as *caller*, as the registry service does."""
    return registry.mint(
        "provenance-record", f"cas://{checksum}", checksum, owner=caller.user_id,
        predecessor=predecessor, caller=caller, orgs=orgs, **kwargs,
    )


def test_link_builds_chain(registry, owner, orgs):
    v1 = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    v2 = _next_version(registry, v1.pid, owner, orgs)
    assert registry.resolve(v1.pid).successor == v2.pid
    assert registry.resolve(v2.pid) == v2
    assert (v2.predecessor, v2.successor, v2.version_number) == (v1.pid, None, 2)


def test_link_refuses_fork(registry, owner, orgs):
    v1 = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    v2 = _next_version(registry, v1.pid, owner, orgs)
    count = len(registry.list_records())
    with pytest.raises(SuccessorExistsError):
        _next_version(registry, v1.pid, owner, orgs)
    assert len(registry.list_records()) == count
    assert registry.resolve(v1.pid).successor == v2.pid


def test_link_refuses_artifacts(registry, owner, orgs):
    artifact = registry.mint("artifact", "cas://a", "ca", owner="alice")
    v1 = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    with pytest.raises(KindMismatchError):
        _next_version(registry, artifact.pid, owner, orgs)
    with pytest.raises(KindMismatchError):
        registry.mint("artifact", "cas://b", "cb", owner="alice",
                      predecessor=v1.pid, caller=owner, orgs=orgs)
    assert len(registry.list_records()) == 2


def test_link_requires_ownership(registry, owner, service, orgs):
    bob, _ = service.register_user("OrgB", "bob")
    v1 = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    with pytest.raises(UnauthorizedError):
        _next_version(registry, v1.pid, bob, orgs)
    # The owner's grant lets bob mint the next version.
    _, alice_key = identity_mod.user_credentials(service.keys_dir, "alice")
    grant = identity_mod.grant_permission(
        v1.pid, "bob", identity_mod.CAP_UPDATE_PROVENANCE, owner, alice_key
    )
    v2 = _next_version(registry, v1.pid, bob, orgs, permission=grant)
    assert registry.resolve(v1.pid).successor == v2.pid
    # A read-only user may not link even to a record minted in its name.
    ruth, _ = service.register_user("Readers", "ruth")
    r1 = registry.mint("provenance-record", "cas://3", "c3", owner="ruth")
    with pytest.raises(UnauthorizedError):
        _next_version(registry, r1.pid, ruth, orgs)
    # Without a caller to check, nothing is linked.
    with pytest.raises(UnauthorizedError):
        registry.mint("provenance-record", "cas://4", "c4", owner="alice", predecessor=v2.pid)
    assert registry.resolve(v2.pid).successor is None
    assert registry.resolve(r1.pid).successor is None
    assert len(registry.list_records()) == 3


def test_version_history_from_any_member(registry, owner, orgs):
    pids = [registry.mint("provenance-record", "cas://0", "c0", owner="alice").pid]
    for _ in range(2):
        pids.append(_next_version(registry, pids[-1], owner, orgs).pid)
    for member in pids:
        chain = registry.version_history(member)
        assert [r.pid for r in chain] == pids
        assert [r.version_number for r in chain] == [1, 2, 3]


def test_single_version_history(registry):
    record = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    assert [r.pid for r in registry.version_history(record.pid)] == [record.pid]


def test_broken_chain_detected(registry, owner, orgs):
    v1 = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    v2 = _next_version(registry, v1.pid, owner, orgs)
    v3 = _next_version(registry, v2.pid, owner, orgs)
    # Delete the middle record file to simulate registry corruption.
    registry._record_path(PID.parse(v2.pid).suffix).unlink()
    with pytest.raises(BrokenChainError):
        registry.version_history(v1.pid)
    with pytest.raises(BrokenChainError):
        registry.version_history(v3.pid)


def test_registry_reopen_preserves_counter(tmp_path, owner):
    registry = PIDRegistry(tmp_path / "registry", "21.P")
    registry.mint("artifact", "cas://1", "c1", owner="alice")
    reopened = PIDRegistry(tmp_path / "registry", "21.P")
    record = reopened.mint("artifact", "cas://2", "c2", owner="alice")
    assert record.pid == "21.P/000002"


def test_rollback_link_restores_state(registry, owner, orgs):
    v1 = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    before = registry.state_digest()
    v2 = _next_version(registry, v1.pid, owner, orgs)
    registry.discard(v2.pid, owner)
    assert registry.state_digest() == before
    assert registry.resolve(v1.pid).successor is None


def test_discard_never_lowers_the_suffix_counter(registry, owner):
    registry.mint("artifact", "cas://1", "c1", owner="alice")
    second = registry.mint("artifact", "cas://2", "c2", owner="alice")
    registry.discard(second.pid, owner)
    third = registry.mint("artifact", "cas://3", "c3", owner="alice")
    assert third.pid == "21.P/000003"


def test_discarded_suffix_not_minted_again_after_reopen(tmp_path, owner):
    registry = PIDRegistry(tmp_path / "registry", "21.P")
    registry.mint("artifact", "cas://1", "c1", owner="alice")
    second = registry.mint("artifact", "cas://2", "c2", owner="alice")
    registry.discard(second.pid, owner)
    reopened = PIDRegistry(tmp_path / "registry", "21.P")
    assert reopened.mint("artifact", "cas://3", "c3", owner="alice").pid == "21.P/000003"
    # Records above the mark still count.
    reopened.mint("artifact", "cas://4", "c4", owner="alice")
    again = PIDRegistry(tmp_path / "registry", "21.P")
    assert again.mint("artifact", "cas://5", "c5", owner="alice").pid == "21.P/000005"


def test_discard_only_by_the_minter(registry, service):
    record = registry.mint("artifact", "cas://1", "c1", owner="alice")
    stranger, _ = service.register_user("OrgB", "bob")
    with pytest.raises(UnauthorizedError):
        registry.discard(record.pid, stranger)
    spoofed = registry.mint("artifact", "cas://2", "c2", owner="alice",
                            metadata={"owner": "bob"})
    assert spoofed.metadata["owner"] == "alice"
    assert registry.resolve(record.pid) == record


@pytest.mark.parametrize(
    "pid", ["21.P/../../planted", "21.P/..", "21.P/000001/../../../planted", "21.P/"]
)
def test_suffix_other_than_digits_never_becomes_a_path(registry, owner, pid):
    registry.mint("artifact", "cas://1", "c1", owner="alice")
    planted = registry.root.parent / "planted.json"
    planted.write_text(json.dumps(
        registry.mint("artifact", "cas://p", "cp", owner="alice").to_dict()
    ))
    with pytest.raises(UnknownPIDError):
        registry.resolve(pid)
    with pytest.raises(UnknownPIDError):
        registry.discard(pid, owner)
    assert planted.exists()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_chains_stay_linear(seed, tmp_path_factory):
    """Random sequences of first and next-version mints never produce forks or
    divergent histories."""
    alice, orgs = _linear_owner(tmp_path_factory)
    rng = random.Random(seed)
    root = tmp_path_factory.mktemp("linear")
    registry = PIDRegistry(root / "registry", "21.P")
    heads: list[str] = []
    members: list[list[str]] = []
    for _ in range(rng.randint(3, 12)):
        if heads and rng.random() < 0.6:
            index = rng.randrange(len(heads))
            try:
                new = _next_version(registry, heads[index], alice, orgs)
            except SuccessorExistsError:
                continue
            heads[index] = new.pid
            members[index].append(new.pid)
        else:
            record = registry.mint("provenance-record", "cas://r", "cr", owner="alice")
            heads.append(record.pid)
            members.append([record.pid])
    for chain_members in members:
        histories = [
            [r.pid for r in registry.version_history(member)]
            for member in chain_members
        ]
        assert all(h == histories[0] for h in histories)
        versions = [r.version_number for r in registry.version_history(chain_members[0])]
        assert versions == list(range(1, len(versions) + 1))


_LINEAR_OWNER: list = []


def _linear_owner(tmp_path_factory):
    """One registered owner and its federation's orgs, shared by all examples."""
    if not _LINEAR_OWNER:
        service = _service(tmp_path_factory.mktemp("linear-ids"))
        _LINEAR_OWNER.extend([service.register_user("OrgA", "alice")[0], service.organizations])
    return _LINEAR_OWNER
