"""PID reservation, and resolution from the index of committed transactions.

A MINT only reserves a suffix for its minter. The ledger names every PID: a
version-1 write names its key, and an ``update-prov`` names its ``new_pid``.
A naming counts only when the committing transaction's creator is the PID's
minter.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import publish_raw, register_default_users
from fedprov import crypto, pid_registry
from fedprov.canonical import canonical_bytes
from fedprov.errors import BrokenChainError, FedprovError, UnknownPIDError
from fedprov.ledger.blocks import READ_WRITE_CONFLICT, VALID
from fedprov.ledger.chaincode import TX_INVALIDATE, TX_PUBLISH, TX_UPDATE_PROV
from fedprov.ledger.values import KIND_ARTIFACT, KIND_PROVENANCE
from fedprov.pid_registry import PID, PIDRegistry

_LEGACY = object()  # an update-prov written before updates named their PID


class Ledger:
    """Stands in for the registry's host node: committed blocks, read by height."""

    def __init__(self):
        self._blocks = []

    def committed_since(self, height):
        return self._blocks[height:]

    def commit(self, key, version, checksum, *, creator="alice", new_pid=None,
               kind=None, object_kind=KIND_PROVENANCE, validation=VALID):
        """One transaction writing *version* of *key*: a publish at version 1,
        else an ``update-prov`` naming *new_pid* (none if it is ``_LEGACY``)."""
        kind = kind or (TX_PUBLISH if version == 1 else TX_UPDATE_PROV)
        args = {} if new_pid in (None, _LEGACY) else {"new_pid": new_pid}
        value = {"uri": f"cas://{checksum}", "checksum": checksum, "version": version,
                 "kind": object_kind}
        self._blocks.append(SimpleNamespace(transactions=[{
            "validation": validation,
            "body": {"kind": kind, "args": args, "creator": {"user_id": creator}},
            "result": {"writes": {key: value}},
        }]))


@pytest.fixture()
def registry(tmp_path):
    return PIDRegistry(tmp_path / "registry", "21.P", Ledger())


def _first_version(registry, checksum="c1", owner="alice"):
    """A PID minted by *owner* and committed by *owner* as version 1."""
    pid = registry.mint(owner)["pid"]
    registry.ledger.commit(pid, 1, checksum, creator=owner)
    return pid


def _next_version(registry, key, version, checksum="cn", owner="alice"):
    """A PID minted by *owner*, named by *owner*'s update of *key* to *version*."""
    pid = registry.mint(owner)["pid"]
    registry.ledger.commit(key, version, checksum, creator=owner, new_pid=pid)
    return pid


def _history(registry, pid):
    return [record.pid for record in registry.version_history(pid)]


def test_first_mint_suffix(registry):
    record = registry.mint("alice")
    assert record["pid"] == "21.P/000001"
    assert record["metadata"]["owner"] == "alice"


def test_mints_are_distinct(registry):
    assert registry.mint("alice")["pid"] != registry.mint("alice")["pid"]


def test_mint_writes_only_the_pid_and_its_minter(registry):
    record = registry.mint("alice")
    stored = json.loads((registry.records_dir / "000001.json").read_text())
    assert stored == record
    assert sorted(stored) == ["metadata", "pid"]
    assert sorted(stored["metadata"]) == ["created_at", "owner"]


def test_resolve_round_trip(registry):
    pid = _first_version(registry, "x")
    record = registry.resolve(pid)
    assert (record.pid, record.target_uri, record.checksum, record.object_kind,
            record.version_number, record.predecessor, record.successor) == (
        pid, "cas://x", "x", KIND_PROVENANCE, 1, None, None)
    assert record.metadata["owner"] == "alice"


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


def test_reservation_resolves_only_once_committed(registry):
    pid = registry.mint("alice")["pid"]
    with pytest.raises(UnknownPIDError):
        registry.resolve(pid)
    registry.ledger.commit(pid, 1, "x", validation=READ_WRITE_CONFLICT)
    with pytest.raises(UnknownPIDError):
        registry.resolve(pid)
    assert registry.list_records() == []
    registry.ledger.commit(pid, 1, "x")
    assert registry.resolve(pid).checksum == "x"
    assert registry.list_records() == [registry.resolve(pid)]


def test_view_advances_from_a_watermark(registry):
    """Each request reads only the blocks committed since the last one."""
    read_from = []
    committed_since = registry.ledger.committed_since
    registry.ledger.committed_since = lambda height: (
        read_from.append(height) or committed_since(height))
    pids = [_first_version(registry, f"c{n}") for n in range(3)]  # a MINT reads too
    for pid in pids:
        registry.resolve(pid)
    assert read_from == [0, 0, 1, 2, 3, 3]


def test_opening_parses_no_record_file(tmp_path, monkeypatch):
    root = tmp_path / "registry"
    first = PIDRegistry(root, "21.P", Ledger())
    for _ in range(5):
        first.mint("alice")

    class NoParsing:
        def __getattr__(self, name):
            raise AssertionError(f"json.{name} called while opening")

    monkeypatch.setattr(pid_registry, "json", NoParsing())
    reopened = PIDRegistry(root, "21.P", Ledger())
    assert reopened._next_suffix() == "000006"


def test_link_builds_chain(registry):
    v1 = _first_version(registry)
    v2 = registry.mint("alice")["pid"]
    assert registry.resolve(v1).successor is None
    with pytest.raises(UnknownPIDError):
        registry.resolve(v2)
    registry.ledger.commit(v1, 2, "cn", new_pid=v2)
    assert registry.resolve(v1).successor == v2
    record = registry.resolve(v2)
    assert (record.predecessor, record.successor, record.version_number) == (v1, None, 2)
    assert (record.target_uri, record.checksum) == ("cas://cn", "cn")


def test_rollback_link_restores_state(registry):
    """A next version whose ledger write never commits, or is rejected,
    leaves the committed state as it was before the reservation."""
    v1 = _first_version(registry)
    before = registry.state_digest()
    v2 = registry.mint("alice")["pid"]
    assert registry.state_digest() == before
    registry.ledger.commit(v1, 2, "cn", new_pid=v2, validation=READ_WRITE_CONFLICT)
    assert registry.state_digest() == before
    assert registry.resolve(v1).successor is None


def test_link_refuses_fork(registry):
    """A PID named twice keeps its first place: a second chain naming it
    ends before that version."""
    v1 = _first_version(registry, "c1")
    v2 = _next_version(registry, v1, 2)
    other = _first_version(registry, "c2")
    registry.ledger.commit(other, 2, "cx", new_pid=v2)
    assert _history(registry, v2) == [v1, v2]
    assert _history(registry, other) == [other]


def test_ledger_picks_one_of_two_reservations(registry):
    v1 = _first_version(registry)
    first = registry.mint("alice")["pid"]
    second = _next_version(registry, v1, 2, "cb")
    assert registry.resolve(v1).successor == second
    assert _history(registry, v1) == [v1, second]
    with pytest.raises(UnknownPIDError):
        registry.resolve(first)


def test_link_refuses_artifacts(registry):
    """An artifact's later writes (its invalidation) name no PID."""
    artifact = registry.mint("alice")["pid"]
    registry.ledger.commit(artifact, 1, "ca", object_kind=KIND_ARTIFACT)
    registry.ledger.commit(artifact, 2, "ca", object_kind=KIND_ARTIFACT, kind=TX_INVALIDATE)
    record = registry.resolve(artifact)
    assert (record.object_kind, record.version_number, record.successor) == (
        KIND_ARTIFACT, 1, None)
    assert _history(registry, artifact) == [artifact]


def test_link_needs_a_committed_predecessor(registry):
    """A version whose chain's first version names no counted PID counts
    nothing either."""
    registry.ledger.commit("21.P/subject", 1, "c1")  # a key no MINT reserved
    v2 = _next_version(registry, "21.P/subject", 2)
    with pytest.raises(UnknownPIDError):
        registry.resolve(v2)


def test_link_requires_ownership(registry):
    """A version committed under a PID by anyone but its minter names
    nothing, and the chain's history ends at the version before it."""
    v1 = _first_version(registry)
    squatted = registry.mint("alice")["pid"]
    registry.ledger.commit(v1, 2, "cb", creator="bob", new_pid=squatted)
    assert _history(registry, v1) == [v1]
    assert registry.resolve(v1).successor is None
    with pytest.raises(UnknownPIDError):
        registry.resolve(squatted)
    # The chain ends there, whoever names version 3.
    v3 = _next_version(registry, v1, 3)
    with pytest.raises(UnknownPIDError):
        registry.resolve(v3)
    # A grantee who reserved the PID it commits names it.
    w1 = _first_version(registry, "c2")
    w2 = _next_version(registry, w1, 2, owner="bob")
    assert _history(registry, w1) == [w1, w2]
    assert registry.resolve(w2).metadata["owner"] == "bob"


def test_version_history_from_any_member(registry):
    pids = [_first_version(registry, "c0")]
    for version in (2, 3):
        pids.append(_next_version(registry, pids[0], version, f"c{version}"))
    for member in pids:
        chain = registry.version_history(member)
        assert [r.pid for r in chain] == pids
        assert [r.version_number for r in chain] == [1, 2, 3]
        assert [r.predecessor for r in chain] == [None, *pids[:2]]
        assert [r.successor for r in chain] == [*pids[1:], None]


def test_single_version_history(registry):
    pid = _first_version(registry)
    assert _history(registry, pid) == [pid]


def test_broken_chain_detected(registry):
    v1 = _first_version(registry)
    v2 = _next_version(registry, v1, 2)
    v3 = _next_version(registry, v1, 3, "c3")
    # Delete the middle record file to simulate registry corruption. The
    # running registry read each minter once; a restart reads the files.
    registry._record_path(PID.parse(v2).suffix).unlink()
    reopened = PIDRegistry(registry.root, "21.P", registry.ledger)
    for pid in (v1, v2, v3):
        with pytest.raises(BrokenChainError):
            reopened.version_history(pid)
        with pytest.raises(BrokenChainError):
            reopened.resolve(pid)
    with pytest.raises(BrokenChainError):
        reopened.state_digest()
    # A garbled record file is damage too.
    registry._record_path(PID.parse(v2).suffix).write_text("{not json")
    with pytest.raises(BrokenChainError):
        PIDRegistry(registry.root, "21.P", registry.ledger).version_history(v1)


def test_suffix_named_before_its_reservation_is_skipped(registry):
    """MINT skips a suffix the ledger already names and writes it a record
    without an owner, so it stays unknown after a restart instead of
    reading as a deleted record."""
    squatted = "21.P/000001"
    registry.ledger.commit(squatted, 1, "cs", creator="bob")
    with pytest.raises(UnknownPIDError):
        registry.resolve(squatted)  # above the counter: never handed out
    assert registry.mint("alice")["pid"] == "21.P/000002"
    stored = json.loads(registry._record_path("000001").read_text())
    assert stored == {"pid": squatted, "metadata": {}}
    reopened = PIDRegistry(registry.root, "21.P", registry.ledger)
    with pytest.raises(UnknownPIDError):
        reopened.resolve(squatted)
    assert reopened.list_records() == []


def test_registry_reopen_preserves_counter(tmp_path):
    registry = PIDRegistry(tmp_path / "registry", "21.P", Ledger())
    registry.mint("alice")
    reopened = PIDRegistry(tmp_path / "registry", "21.P", Ledger())
    assert reopened.mint("alice")["pid"] == "21.P/000002"


def test_discarded_suffix_not_minted_again_after_reopen(tmp_path):
    """Releases that discarded records kept the highest suffix handed out in
    ``high_water``; it is still read at open, and never written again."""
    root = tmp_path / "registry"
    PIDRegistry(root, "21.P", Ledger()).mint("alice")
    (root / "high_water").write_text("2\n")  # 21.P/000002 was discarded
    reopened = PIDRegistry(root, "21.P", Ledger())
    assert reopened.mint("alice")["pid"] == "21.P/000003"
    # Records above the mark still count.
    reopened.mint("alice")
    again = PIDRegistry(root, "21.P", Ledger())
    assert again.mint("alice")["pid"] == "21.P/000005"
    assert (root / "high_water").read_text() == "2\n"


def test_minted_record_names_its_minter_as_owner(fed):
    """A MINT request is the empty object; one that carries metadata is
    refused, so a record only ever names its minter as owner."""
    alice, key = fed.register_user("OrgA", "alice")

    def mint(request):
        return fed.transport(fed.config.orderer_org().listen_address)("MINT", {
            "caller": alice.to_creator(),
            "request": request,
            "signature": crypto.sign(key, canonical_bytes(request)),
        })

    with pytest.raises(FedprovError, match="malformed request"):
        mint({"metadata": {"owner": "bob"}})
    metadata = mint({})["record"]["metadata"]
    assert metadata["owner"] == "alice"
    assert sorted(metadata) == ["created_at", "owner"]


def test_a_reservation_committed_by_another_producer_never_resolves(fed):
    """bob commits the PIDs alice reserved, with her checksums, before she
    does: neither PID resolves, and alice may still publish under her own."""
    users = register_default_users(fed)
    alice, bob = users["alice"], users["bob"]
    artifact_pid, prov_pid = alice["registry"].mint()["pid"], alice["registry"].mint()["pid"]
    assert publish_raw(bob["ledger"], artifact_pid, "cas://a", "ca", ["bob"],
                       prov=(prov_pid, "cas://d", "cd")).ok
    registry = fed.client().registry()
    for pid in (artifact_pid, prov_pid):
        with pytest.raises(UnknownPIDError):
            registry.resolve(pid)
        with pytest.raises(UnknownPIDError):
            registry.version_history(pid)
    assert fed.registry.list_records() == []


def _parent_format(registry, owner, checksum, version, predecessor):
    """A record file as releases before ``new_pid`` wrote it; its PID."""
    record = registry.mint(owner)
    data = {**record, "target_uri": f"cas://{checksum}", "checksum": checksum,
            "object_kind": KIND_PROVENANCE, "version_number": version,
            "predecessor": predecessor}
    registry._record_path(PID.parse(record["pid"]).suffix).write_text(json.dumps(data))
    return record["pid"]


def test_legacy_update_names_its_record_by_predecessor_and_checksum(registry):
    v1 = _parent_format(registry, "alice", "c1", 1, None)
    registry.ledger.commit(v1, 1, "c1")
    decoy = _parent_format(registry, "alice", "other", 2, v1)
    v2 = _parent_format(registry, "bob", "c2", 2, v1)
    _parent_format(registry, "alice", "c2", 2, v1)  # a retry: the lower suffix wins
    registry.ledger.commit(v1, 2, "c2", new_pid=_LEGACY)
    v3 = _next_version(registry, v1, 3, "c3")
    assert _history(registry, v1) == [v1, v2, v3]
    assert registry.resolve(v2).metadata["owner"] == "bob"
    with pytest.raises(UnknownPIDError):
        registry.resolve(decoy)


def test_stored_successor_is_ignored(registry):
    """Record files written by older releases name their successor; the
    answer derives it from the ledger instead."""
    v1 = _parent_format(registry, "alice", "c1", 1, None)
    registry.ledger.commit(v1, 1, "c1")
    v2 = registry.mint("alice")["pid"]
    path = registry._record_path(PID.parse(v1).suffix)
    path.write_text(json.dumps({**json.loads(path.read_text()), "successor": v2}))
    reopened = PIDRegistry(registry.root, "21.P", registry.ledger)
    assert reopened.resolve(v1).successor is None
    registry.ledger.commit(v1, 2, "c2", new_pid=v2)
    assert reopened.resolve(v1).successor == v2


@pytest.mark.parametrize(
    "pid", ["21.P/../../planted", "21.P/..", "21.P/000001/../../../planted", "21.P/"]
)
def test_suffix_other_than_digits_never_becomes_a_path(registry, pid):
    """A key committed on the ledger names a PID, but only a suffix of
    digits is looked up as a record file."""
    planted = registry.root.parent / "planted.json"
    planted.write_text(json.dumps(registry.mint("alice")))
    registry.ledger.commit(pid, 1, "cp")
    with pytest.raises(UnknownPIDError):
        registry.resolve(pid)
    assert planted.exists()


def test_concurrent_mints_and_commits_answer_committed_pids_only(registry):
    """Threads mint, commit and resolve at once: every PID is distinct and
    every answer names committed PIDs only."""
    v1 = _first_version(registry)
    minted, answers, errors = [], [], []
    interval = sys.getswitchinterval()

    def reserve():
        try:
            for _ in range(20):
                minted.append(registry.mint("alice")["pid"])
                answers.append(_history(registry, v1))
        except Exception as exc:  # reported below; a thread must not die silently
            errors.append(exc)

    def commit_noise():
        for n in range(200):
            registry.ledger.commit(f"21.P/other{n}", 1, "x")

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reserve) for _ in range(6)]
        threads.append(threading.Thread(target=commit_noise))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(set(minted)) == len(minted) == 120
    assert all(answer == [v1] for answer in answers)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_chains_stay_linear(seed, tmp_path_factory):
    """Random sequences of first and next versions, some committed as the
    chaincode would (one write per key and version, by alice or by bob),
    never produce forks or divergent histories; a reservation that never
    committed, or that bob committed, never resolves."""
    rng = random.Random(seed)
    root = tmp_path_factory.mktemp("linear")
    registry = PIDRegistry(root / "registry", "21.P", Ledger())
    keys: list[str] = []
    heights: list[int] = []  # the newest version on the ledger, per key
    members: list[list[str]] = []
    unresolved: list[str] = []
    for step in range(rng.randint(3, 12)):
        if keys and rng.random() < 0.6:
            index = rng.randrange(len(keys))
            pid = registry.mint("alice")["pid"]
            roll = rng.random()
            if roll < 0.2:
                unresolved.append(pid)
                continue  # never committed
            creator = "bob" if roll < 0.35 else "alice"
            heights[index] += 1
            registry.ledger.commit(keys[index], heights[index], f"c{step}", creator=creator,
                                   new_pid=pid)
            if creator == "alice" and len(members[index]) + 1 == heights[index]:
                members[index].append(pid)
            else:
                unresolved.append(pid)  # bob's, or after bob's: the chain ended
        else:
            keys.append(_first_version(registry, "cr"))
            heights.append(1)
            members.append([keys[-1]])
    for chain_members in members:
        for member in chain_members:
            assert _history(registry, member) == chain_members
        versions = [r.version_number for r in registry.version_history(chain_members[0])]
        assert versions == list(range(1, len(versions) + 1))
    for pid in unresolved:
        with pytest.raises(UnknownPIDError):
            registry.resolve(pid)
