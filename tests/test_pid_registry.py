"""PID reservation, resolution from the committed ledger, and linear
version chains."""

from __future__ import annotations

import json
import random
import sys
import threading
from types import SimpleNamespace

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
from fedprov.ledger.blocks import READ_WRITE_CONFLICT, VALID
from fedprov.pid_registry import PID, PIDRegistry


class Ledger:
    """Stands in for the registry's host node: a list of committed blocks."""

    def __init__(self):
        self.blocks = []

    def commit(self, key, version, checksum, validation=VALID):
        write = {key: {"version": version, "checksum": checksum}}
        self.blocks.append(SimpleNamespace(
            transactions=[{"validation": validation, "result": {"writes": write}}]
        ))


def committed(registry, record, key=None):
    """*record*, its ledger write committed under *key* (its own PID by default)."""
    registry.ledger.commit(key or record.pid, record.version_number, record.checksum)
    return record


def _record_files(registry) -> int:
    return len(list(registry.records_dir.glob("*.json")))


@pytest.fixture()
def registry(tmp_path):
    return PIDRegistry(tmp_path / "registry", "21.P", Ledger())


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
    record = committed(registry, registry.mint("artifact", "cas://x", "x", owner="alice"))
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


def _first_version(registry, checksum="c1", owner="alice"):
    return committed(registry, registry.mint(
        "provenance-record", f"cas://{checksum}", checksum, owner=owner
    ))


def test_reservation_resolves_only_once_committed(registry):
    record = registry.mint("artifact", "cas://x", "x", owner="alice")
    with pytest.raises(UnknownPIDError):
        registry.resolve(record.pid)
    registry.ledger.commit(record.pid, 1, "another checksum")
    registry.ledger.commit(record.pid, 1, "x", validation=READ_WRITE_CONFLICT)
    with pytest.raises(UnknownPIDError):
        registry.resolve(record.pid)
    assert registry.list_records() == []
    registry.ledger.commit(record.pid, 1, "x")
    assert registry.resolve(record.pid) == record
    assert registry.list_records() == [record]


def test_view_advances_from_a_watermark(registry):
    """Each request reads only the blocks committed since the last one."""
    read_from = []

    class Blocks(list):
        def __getitem__(self, index):
            if isinstance(index, slice):
                read_from.append(index.start)
            return super().__getitem__(index)

    registry.ledger.blocks = Blocks()
    records = [committed(registry, registry.mint("artifact", f"cas://{n}", f"c{n}",
                                                 owner="alice")) for n in range(3)]
    for record in records:
        registry.resolve(record.pid)
    assert read_from == [0, 3, 3]


def test_link_builds_chain(registry, owner, orgs):
    v1 = _first_version(registry)
    v2 = _next_version(registry, v1.pid, owner, orgs)
    assert registry.resolve(v1.pid).successor is None
    with pytest.raises(UnknownPIDError):
        registry.resolve(v2.pid)
    committed(registry, v2, key=v1.pid)
    assert registry.resolve(v1.pid).successor == v2.pid
    assert registry.resolve(v2.pid) == v2
    assert (v2.predecessor, v2.successor, v2.version_number) == (v1.pid, None, 2)


def test_rollback_link_restores_state(registry, owner, orgs):
    """A next version whose ledger write never commits, or is rejected,
    leaves the committed state as it was before the reservation."""
    v1 = _first_version(registry)
    before = registry.state_digest()
    v2 = _next_version(registry, v1.pid, owner, orgs)
    assert registry.state_digest() == before
    registry.ledger.commit(v1.pid, v2.version_number, v2.checksum,
                           validation=READ_WRITE_CONFLICT)
    assert registry.state_digest() == before
    assert registry.resolve(v1.pid).successor is None


def test_link_refuses_fork(registry, owner, orgs):
    v1 = _first_version(registry)
    v2 = committed(registry, _next_version(registry, v1.pid, owner, orgs), key=v1.pid)
    count = _record_files(registry)
    with pytest.raises(SuccessorExistsError):
        _next_version(registry, v1.pid, owner, orgs, checksum="other")
    assert _record_files(registry) == count
    assert registry.resolve(v1.pid).successor == v2.pid


def test_ledger_picks_one_of_two_reservations(registry, owner, orgs):
    v1 = _first_version(registry)
    first = _next_version(registry, v1.pid, owner, orgs, checksum="ca")
    second = _next_version(registry, v1.pid, owner, orgs, checksum="cb")
    committed(registry, second, key=v1.pid)
    assert registry.resolve(v1.pid).successor == second.pid
    assert [r.pid for r in registry.version_history(first.predecessor)] == [v1.pid, second.pid]
    with pytest.raises(UnknownPIDError):
        registry.resolve(first.pid)


def test_retried_next_version_names_one_pid(registry, owner, service, orgs):
    """A next version with the predecessor and checksum of a reservation is
    that reservation, still owned by its first reserver."""
    v1 = _first_version(registry)
    reserved = _next_version(registry, v1.pid, owner, orgs)
    assert _next_version(registry, v1.pid, owner, orgs) == reserved
    bob, _ = service.register_user("OrgB", "bob")
    _, alice_key = identity_mod.user_credentials(service.keys_dir, "alice")
    grant = identity_mod.grant_permission(
        v1.pid, "bob", identity_mod.CAP_UPDATE_PROVENANCE, owner, alice_key
    )
    retried = _next_version(registry, v1.pid, bob, orgs, permission=grant)
    assert retried == reserved and retried.metadata["owner"] == "alice"
    assert _record_files(registry) == 2


def test_concurrent_retries_and_commits_keep_one_pid_per_version(registry, owner, orgs):
    """Threads reserve the same next versions while blocks commit and
    others resolve: each (predecessor, checksum) names one PID, and every
    answer comes from committed writes only."""
    v1 = _first_version(registry)
    minted, answers, errors = [], [], []
    interval = sys.getswitchinterval()

    def reserve(checksum):
        try:
            for _ in range(20):
                minted.append((checksum, _next_version(registry, v1.pid, owner, orgs,
                                                       checksum=checksum).pid))
                answers.append(registry.version_history(v1.pid))
        except Exception as exc:  # reported below; a thread must not die silently
            errors.append(exc)

    def commit_noise():
        for n in range(200):
            registry.ledger.commit(f"21.P/other{n}", 1, "x")

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reserve, args=(f"c{n % 2}",)) for n in range(6)]
        threads.append(threading.Thread(target=commit_noise))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len({pid for checksum, pid in minted if checksum == "c0"}) == 1
    assert len({pid for checksum, pid in minted if checksum == "c1"}) == 1
    assert _record_files(registry) == 3
    assert all([r.pid for r in chain] == [v1.pid] for chain in answers)


def test_link_refuses_artifacts(registry, owner, orgs):
    artifact = committed(registry, registry.mint("artifact", "cas://a", "ca", owner="alice"))
    v1 = _first_version(registry)
    with pytest.raises(KindMismatchError):
        _next_version(registry, artifact.pid, owner, orgs)
    with pytest.raises(KindMismatchError):
        registry.mint("artifact", "cas://b", "cb", owner="alice",
                      predecessor=v1.pid, caller=owner, orgs=orgs)
    assert _record_files(registry) == 2


def test_link_needs_a_committed_predecessor(registry, owner, orgs):
    reserved = registry.mint("provenance-record", "cas://1", "c1", owner="alice")
    with pytest.raises(UnknownPIDError):
        _next_version(registry, reserved.pid, owner, orgs)
    assert _record_files(registry) == 1


def test_link_requires_ownership(registry, owner, service, orgs):
    bob, _ = service.register_user("OrgB", "bob")
    v1 = _first_version(registry)
    with pytest.raises(UnauthorizedError):
        _next_version(registry, v1.pid, bob, orgs)
    # The owner's grant lets bob mint the next version.
    _, alice_key = identity_mod.user_credentials(service.keys_dir, "alice")
    grant = identity_mod.grant_permission(
        v1.pid, "bob", identity_mod.CAP_UPDATE_PROVENANCE, owner, alice_key
    )
    v2 = _next_version(registry, v1.pid, bob, orgs, permission=grant)
    committed(registry, v2, key=v1.pid)
    assert registry.resolve(v1.pid).successor == v2.pid
    # A read-only user may not link even to a record minted in its name.
    ruth, _ = service.register_user("Readers", "ruth")
    r1 = _first_version(registry, "c3", owner="ruth")
    with pytest.raises(UnauthorizedError):
        _next_version(registry, r1.pid, ruth, orgs)
    # Without a caller to check, nothing is linked.
    with pytest.raises(UnauthorizedError):
        registry.mint("provenance-record", "cas://4", "c4", owner="alice", predecessor=v2.pid)
    assert registry.resolve(v2.pid).successor is None
    assert registry.resolve(r1.pid).successor is None
    assert _record_files(registry) == 3


def test_version_history_from_any_member(registry, owner, orgs):
    pids = [_first_version(registry, "c0").pid]
    for _ in range(2):
        pids.append(committed(registry, _next_version(registry, pids[-1], owner, orgs),
                              key=pids[0]).pid)
    for member in pids:
        chain = registry.version_history(member)
        assert [r.pid for r in chain] == pids
        assert [r.version_number for r in chain] == [1, 2, 3]


def test_single_version_history(registry):
    record = _first_version(registry)
    assert [r.pid for r in registry.version_history(record.pid)] == [record.pid]


def test_broken_chain_detected(registry, owner, orgs):
    v1 = _first_version(registry)
    v2 = committed(registry, _next_version(registry, v1.pid, owner, orgs), key=v1.pid)
    v3 = committed(registry, _next_version(registry, v2.pid, owner, orgs), key=v1.pid)
    # Delete the middle record file to simulate registry corruption.
    registry._record_path(PID.parse(v2.pid).suffix).unlink()
    with pytest.raises(BrokenChainError):
        registry.version_history(v1.pid)
    with pytest.raises(BrokenChainError):
        registry.version_history(v3.pid)


def test_registry_reopen_preserves_counter(tmp_path, owner):
    registry = PIDRegistry(tmp_path / "registry", "21.P", Ledger())
    registry.mint("artifact", "cas://1", "c1", owner="alice")
    reopened = PIDRegistry(tmp_path / "registry", "21.P", Ledger())
    record = reopened.mint("artifact", "cas://2", "c2", owner="alice")
    assert record.pid == "21.P/000002"


def test_discarded_suffix_not_minted_again_after_reopen(tmp_path, owner):
    """Releases that discarded records kept the highest suffix handed out in
    ``high_water``; it is still read at open, and never written again."""
    root = tmp_path / "registry"
    PIDRegistry(root, "21.P", Ledger()).mint("artifact", "cas://1", "c1", owner="alice")
    (root / "high_water").write_text("2\n")  # 21.P/000002 was discarded
    reopened = PIDRegistry(root, "21.P", Ledger())
    assert reopened.mint("artifact", "cas://3", "c3", owner="alice").pid == "21.P/000003"
    # Records above the mark still count.
    reopened.mint("artifact", "cas://4", "c4", owner="alice")
    again = PIDRegistry(root, "21.P", Ledger())
    assert again.mint("artifact", "cas://5", "c5", owner="alice").pid == "21.P/000005"
    assert (root / "high_water").read_text() == "2\n"


def test_minted_record_names_its_minter_as_owner(registry):
    spoofed = registry.mint("artifact", "cas://2", "c2", owner="alice",
                            metadata={"owner": "bob"})
    assert spoofed.metadata["owner"] == "alice"


def test_stored_successor_is_ignored(registry, owner, orgs):
    """Record files written by older releases name their successor; the
    answer derives it from the ledger instead, and new files omit it."""
    v1 = _first_version(registry)
    v2 = _next_version(registry, v1.pid, owner, orgs)
    assert "successor" not in json.loads(registry._record_path("000002").read_text())
    path = registry._record_path("000001")
    path.write_text(json.dumps({**json.loads(path.read_text()), "successor": v2.pid}))
    assert registry.resolve(v1.pid).successor is None
    committed(registry, v2, key=v1.pid)
    assert registry.resolve(v1.pid).successor == v2.pid


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
    assert planted.exists()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_chains_stay_linear(seed, tmp_path_factory):
    """Random sequences of first and next-version reservations, some of them
    committed as the chaincode would (one write per key and version), never
    produce forks or divergent histories, and a reservation that never
    committed never resolves."""
    alice, orgs = _linear_owner(tmp_path_factory)
    rng = random.Random(seed)
    root = tmp_path_factory.mktemp("linear")
    registry = PIDRegistry(root / "registry", "21.P", Ledger())
    heads: list[str] = []
    members: list[list[str]] = []
    uncommitted: list[str] = []
    for step in range(rng.randint(3, 12)):
        if heads and rng.random() < 0.6:
            index = rng.randrange(len(heads))
            try:
                new = _next_version(registry, heads[index], alice, orgs, checksum=f"c{step}")
            except SuccessorExistsError:
                continue
            if rng.random() < 0.7:
                committed(registry, new, key=members[index][0])
                heads[index] = new.pid
                members[index].append(new.pid)
            else:
                uncommitted.append(new.pid)
        else:
            record = _first_version(registry, "cr")
            heads.append(record.pid)
            members.append([record.pid])
    for chain_members in members:
        histories = [
            [r.pid for r in registry.version_history(member)]
            for member in chain_members
        ]
        assert all(h == chain_members for h in histories)
        versions = [r.version_number for r in registry.version_history(chain_members[0])]
        assert versions == list(range(1, len(versions) + 1))
    for pid in uncommitted:
        with pytest.raises(UnknownPIDError):
            registry.resolve(pid)


_LINEAR_OWNER: list = []


def _linear_owner(tmp_path_factory):
    """One registered owner and its federation's orgs, shared by all examples."""
    if not _LINEAR_OWNER:
        service = _service(tmp_path_factory.mktemp("linear-ids"))
        _LINEAR_OWNER.extend([service.register_user("OrgA", "alice")[0], service.organizations])
    return _LINEAR_OWNER
