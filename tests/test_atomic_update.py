"""The write coordinator: its checks, and what a run that fails at any
point leaves behind.

The ledger transaction is a run's only commit point and nothing is ever
undone. So a failed run must leave nothing observable: the ledger is
unchanged or holds the whole write, no RESOLVE or HISTORY answer names a PID
whose write did not commit, no ledger value names a blob the run left, no
record or blob is ever deleted, and the chain can still be updated.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from conftest import publish_raw, register_default_users, simple_doc
from fedprov import cli, identity as identity_mod
from fedprov.errors import (
    IllegalUpdateError,
    InvalidDocumentError,
    LedgerRejectedError,
    SuccessorExistsError,
    TransportError,
    UnauthorizedError,
    UnknownPIDError,
)
from fedprov.harness import Federation
from fedprov.ledger.blocks import VALID
from fedprov.ledger.chaincode import MSG_VERSION_CONFLICT
from fedprov.ledger.client import Receipt
from fedprov.prov import ProvDocument
from fedprov.prov_store import ENRICHMENT


@pytest.fixture()
def published(fed):
    """A provenance record committed end to end, plus updaters per user."""
    users = register_default_users(fed)
    alice = users["alice"]
    store = fed.store
    doc = simple_doc()
    uri, checksum, _ = store.store_document(doc)
    registry = fed.client(alice["identity"], alice["key"]).registry()
    record = registry.mint()
    receipt = publish_raw(alice["ledger"], "21.P/subject", prov=(record["pid"], uri, checksum))
    assert receipt.ok
    return fed, users, record["pid"], doc


def enriched_copy(doc, marker="enriched"):
    new = ProvDocument.from_dict(doc.to_dict())
    new.entities[0] = dataclasses.replace(
        new.entities[0], attributes={**new.entities[0].attributes, "note": marker}
    )
    return new


def test_update_happy_path(published):
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    result = updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert result.classification == ENRICHMENT
    assert result.new_pid != pid

    registry = fed.client().registry()
    chain = registry.version_history(pid)
    assert [r["version_number"] for r in chain] == [1, 2]
    assert chain[1]["pid"] == result.new_pid
    # Ledger view advanced under the chain-base pid.
    value = users["alice"]["ledger"].hlf_read(pid)
    assert value.version == 2
    assert value.checksum == result.checksum
    # The old version stays fetchable byte-exact.
    old_record = chain[0]
    fed.store.fetch_document(old_record["target_uri"], old_record["checksum"])


def test_old_version_must_be_newest(published):
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    updater.update(pid, enriched_copy(doc, "one"), users["alice"]["identity"])
    with pytest.raises(SuccessorExistsError):
        updater.update(pid, enriched_copy(doc, "two"), users["alice"]["identity"])


def test_illegal_update_changes_nothing(published):
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = fed.system_digest()
    bad = ProvDocument.from_dict(doc.to_dict())
    bad.relations = bad.relations[1:]
    with pytest.raises(IllegalUpdateError):
        updater.update(pid, bad, users["alice"]["identity"])
    assert fed.system_digest() == before


def test_stranger_without_grant_rejected_before_side_effects(published):
    fed, users, pid, doc = published
    updater = fed.client(users["bob"]["identity"], users["bob"]["key"]).updater()
    before = fed.system_digest()
    with pytest.raises(UnauthorizedError):
        updater.update(pid, enriched_copy(doc), users["bob"]["identity"])
    assert fed.system_digest() == before


def test_grant_allows_update_by_non_owner(published):
    fed, users, pid, doc = published
    grant = identity_mod.grant_permission(
        pid, "bob", "update-provenance",
        users["alice"]["identity"], users["alice"]["key"],
    )
    updater = fed.client(users["bob"]["identity"], users["bob"]["key"]).updater()
    result = updater.update(
        pid, enriched_copy(doc), users["bob"]["identity"], permission=grant
    )
    assert result.classification == ENRICHMENT


def test_unknown_pid(published):
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    with pytest.raises(UnknownPIDError):
        updater.update("21.P/424242", enriched_copy(doc), users["alice"]["identity"])


# -- what a failed run leaves --------------------------------------------------


class Crash(RuntimeError):
    """The writer's process dies: nothing after this point of the run runs."""


def _dying(updater, monkeypatch, step, call=1, after=False, error=None):
    """Make the *call*-th call of *step* fail, before its work or *after* it."""
    real = getattr(updater, step)
    calls = []

    def dying(*args, **kwargs):
        calls.append(args)
        if len(calls) != call:
            return real(*args, **kwargs)
        if after:
            real(*args, **kwargs)
        raise error or Crash(f"died {'after' if after else 'at'} {step} call {call}")

    monkeypatch.setattr(updater, step, dying)


def _reservations(fed) -> set[str]:
    return {f"{fed.config.pid_prefix}/{path.stem}"
            for path in fed.registry.records_dir.glob("*.json")}


def _ledger_checksums(fed) -> set[str]:
    """Every checksum a committed ledger value ever held."""
    return {
        value["checksum"]
        for block in fed.nodes["OrgA"].committed_since(0)
        for tx in block.transactions if tx.get("validation") == VALID
        for value in tx["result"]["writes"].values()
    }


def _observed(fed) -> dict:
    return {
        "ledger": fed.nodes["OrgA"].state_dump(),
        "registry": fed.registry.state_digest(),
        "reserved": _reservations(fed),
        "blobs": set(fed.store.list_checksums()),
    }


def _committed_whole_or_nothing(fed, before) -> bool:
    """Assert that the run since *before* committed whole or left nothing
    observable; True if it committed."""
    reserved = _reservations(fed) - before["reserved"]
    blobs = set(fed.store.list_checksums())
    assert before["reserved"] <= _reservations(fed) and before["blobs"] <= blobs
    left, named = blobs - before["blobs"], _ledger_checksums(fed)
    if fed.nodes["OrgA"].state_dump() != before["ledger"]:
        for pid in reserved:
            assert cli.verify_pid(fed.client(), pid)["result"] == "VERIFIED", pid
        assert left <= named
        return True
    assert fed.registry.state_digest() == before["registry"]
    for pid in reserved:
        with pytest.raises(UnknownPIDError):
            fed.registry.resolve(pid)
    for record in fed.registry.list_records():
        for member in fed.registry.version_history(record.pid):
            assert {member.pid, member.successor} & reserved == set()
    assert not left & named
    return False


def _update_head(fed, user, pid, marker="after"):
    """Update the newest version of *pid*'s chain; the result, verified."""
    head = fed.client().registry().version_history(pid)[-1]["pid"]
    result = fed.client(user["identity"], user["key"]).updater().update(
        head, annotated(_document(fed, head), marker), user["identity"]
    )
    assert cli.verify_pid(fed.client(), result.new_pid)["result"] == "VERIFIED"
    return result


@pytest.mark.parametrize("failing_step", ["_step_store", "_step_mint", "_step_ledger"])
def test_rollback_completeness_per_failure_point(published, failing_step, monkeypatch):
    """A step that fails before its work leaves nothing of the run
    observable, although nothing is undone, and the chain updatable."""
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = _observed(fed)
    _dying(updater, monkeypatch, failing_step,
           error=LedgerRejectedError(f"injected failure at {failing_step}"))
    with pytest.raises(LedgerRejectedError):
        updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert not _committed_whole_or_nothing(fed, before)
    assert _update_head(fed, users["alice"], pid).classification == ENRICHMENT


@pytest.mark.parametrize("step", ["_step_store", "_step_mint", "_step_ledger"])
def test_update_crash_after_each_step(published, step, monkeypatch):
    fed, users, pid, doc = published
    alice = users["alice"]
    updater = fed.client(alice["identity"], alice["key"]).updater()
    before = _observed(fed)
    _dying(updater, monkeypatch, step, after=True)
    with pytest.raises(Crash):
        updater.update(pid, enriched_copy(doc), alice["identity"])
    assert _committed_whole_or_nothing(fed, before) == (step == "_step_ledger")
    _update_head(fed, alice, pid)


def test_ledger_rejection_rolls_back_registry_and_blob(published, monkeypatch):
    """A policy failure at the last step leaves no new version visible, and
    its blob is named by no ledger value."""
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = _observed(fed)
    _dying(updater, monkeypatch, "_step_ledger",
           error=LedgerRejectedError("endorsement policy unmet (injected)"))
    with pytest.raises(LedgerRejectedError):
        updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert not _committed_whole_or_nothing(fed, before)
    assert len(fed.client().registry().version_history(pid)) == 1


def test_shared_blob_survives_rollback(published, monkeypatch):
    """A failed run deletes no blob, neither one that existed before it nor
    its own."""
    fed, users, pid, doc = published
    new_doc = enriched_copy(doc)
    uri, checksum, created = fed.store.store_document(new_doc)  # pre-existing
    assert created
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    _dying(updater, monkeypatch, "_step_ledger", error=LedgerRejectedError("injected"))
    with pytest.raises(LedgerRejectedError):
        updater.update(pid, new_doc, users["alice"]["identity"])
    fed.store.fetch_document(uri, checksum)


def test_lost_mint_reply_is_rolled_back(published, monkeypatch):
    """The registry reserves a PID, but its reply is lost: the reservation
    never resolves, and the retry reserves and names a fresh one."""
    fed, users, pid, doc = published
    alice = users["alice"]
    updater = fed.client(alice["identity"], alice["key"]).updater()
    before = _observed(fed)
    real_transport = updater.registry.transport

    def reply_lost(kind, payload):
        response = real_transport(kind, payload)
        if kind == "MINT":
            raise TransportError("connection closed mid-message")
        return response

    monkeypatch.setattr(updater.registry, "transport", reply_lost)
    with pytest.raises(TransportError):
        updater.update(pid, enriched_copy(doc), alice["identity"])
    assert not _committed_whole_or_nothing(fed, before)
    (lost,) = _reservations(fed) - before["reserved"]
    retry = fed.client(alice["identity"], alice["key"]).updater()
    new_pid = retry.update(pid, enriched_copy(doc), alice["identity"]).new_pid
    assert new_pid != lost
    assert cli.verify_pid(fed.client(), new_pid)["result"] == "VERIFIED"
    with pytest.raises(UnknownPIDError):
        fed.client().registry().resolve(lost)


def test_refused_mint_leaves_another_runs_version_alone(published, monkeypatch):
    """Another run supersedes the old version while this run reserves its
    PID; the ledger refuses this run's write as a version conflict, and the
    other run's version stands."""
    fed, users, pid, doc = published
    alice = users["alice"]
    updater = fed.client(alice["identity"], alice["key"]).updater()
    real_mint = updater._step_mint

    def overtaken(*args, **kwargs):
        other = fed.client(alice["identity"], alice["key"]).updater()
        other.update(pid, enriched_copy(doc, "first"), alice["identity"])
        return real_mint(*args, **kwargs)

    monkeypatch.setattr(updater, "_step_mint", overtaken)
    with pytest.raises(LedgerRejectedError) as refused:
        updater.update(pid, enriched_copy(doc, "second"), alice["identity"])
    assert refused.value.receipt["message"] == MSG_VERSION_CONFLICT
    assert cli.exit_code_for(refused.value) == cli.EXIT_DUPLICATE
    chain = fed.client().registry().version_history(pid)
    assert [r["version_number"] for r in chain] == [1, 2]
    assert alice["ledger"].hlf_read(pid).checksum == chain[1]["checksum"]
    assert cli.verify_pid(fed.client(), chain[1]["pid"])["result"] == "VERIFIED"


def test_stale_update_is_refused_by_the_ledger(published, monkeypatch):
    """Two updaters start from version 1. The second reserves its version,
    then writes the ledger after the first has committed: the ledger refuses
    it as a version conflict, and its PID never resolves."""
    fed, users, pid, doc = published
    alice = users["alice"]
    second = fed.client(alice["identity"], alice["key"]).updater()
    real_ledger = second._step_ledger
    first_result = []

    def after_the_first(*args, **kwargs):
        first = fed.client(alice["identity"], alice["key"]).updater()
        first_result.append(first.update(pid, enriched_copy(doc, "first"), alice["identity"]))
        return real_ledger(*args, **kwargs)

    monkeypatch.setattr(second, "_step_ledger", after_the_first)
    before = _reservations(fed)
    with pytest.raises(LedgerRejectedError) as refused:
        second.update(pid, enriched_copy(doc, "second"), alice["identity"])
    assert refused.value.receipt["message"] == MSG_VERSION_CONFLICT
    assert cli.exit_code_for(refused.value) == cli.EXIT_DUPLICATE
    chain = fed.client().registry().version_history(pid)
    assert [r["pid"] for r in chain] == [pid, first_result[0].new_pid]
    (stale,) = _reservations(fed) - before - {first_result[0].new_pid}
    with pytest.raises(UnknownPIDError):
        fed.client().registry().resolve(stale)
    assert alice["ledger"].hlf_read(pid).version == 2


# -- publish ------------------------------------------------------------------


@pytest.fixture()
def publisher(fed):
    users = register_default_users(fed)
    alice = users["alice"]
    return fed, users, fed.client(alice["identity"], alice["key"]).updater()


def test_publish_happy_path(publisher):
    fed, users, updater = publisher
    body = updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    ledger = users["alice"]["ledger"]
    assert ledger.hlf_read(body["artifact_pid"]).checksum == body["artifact_checksum"]
    assert ledger.hlf_read(body["prov_pid"]).checksum == body["doc_checksum"]
    registry = fed.client().registry()
    assert registry.resolve(body["artifact_pid"])["checksum"] == body["artifact_checksum"]
    assert registry.resolve(body["prov_pid"])["checksum"] == body["doc_checksum"]


_PUBLISH_STEPS = [("_step_store", 1), ("_step_mint", 1), ("_step_store", 2),
                  ("_step_mint", 2), ("_step_ledger", 1)]


@pytest.mark.parametrize("failing_step, call", _PUBLISH_STEPS)
def test_publish_rollback_completeness_per_failure_point(
    publisher, failing_step, call, monkeypatch
):
    """A publish step that fails before its work leaves nothing of the run
    observable, although nothing is undone."""
    fed, users, updater = publisher
    alice = users["alice"]["identity"]
    before = _observed(fed)
    _dying(updater, monkeypatch, failing_step, call,
           error=LedgerRejectedError(f"injected failure at {failing_step} call {call}"))
    with pytest.raises(LedgerRejectedError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), alice)
    assert not _committed_whole_or_nothing(fed, before)
    clean = fed.client(alice, users["alice"]["key"]).updater()
    assert clean.publish(b"a,b\n1,2\n", simple_doc(), alice)["receipts"]


@pytest.mark.parametrize("step, call", _PUBLISH_STEPS)
def test_publish_crash_after_each_step(publisher, step, call, monkeypatch):
    fed, users, updater = publisher
    alice = users["alice"]
    before = _observed(fed)
    _dying(updater, monkeypatch, step, call, after=True)
    with pytest.raises(Crash):
        updater.publish(b"a,b\n1,2\n", simple_doc(), alice["identity"])
    assert _committed_whole_or_nothing(fed, before) == (step == "_step_ledger")
    body = fed.client(alice["identity"], alice["key"]).updater().publish(
        b"a,b\n1,2\n", simple_doc(), alice["identity"]
    )
    _update_head(fed, alice, body["prov_pid"])


def test_refused_publish_is_undone_whole(publisher, monkeypatch):
    """One transaction creates both records: if it does not commit, neither
    record reaches the ledger and neither PID resolves."""
    fed, users, updater = publisher
    before = _observed(fed)
    ordered = []

    def conflicting(envelope):
        ordered.append(envelope)
        return Receipt(envelope["tx_id"], None, "INVALID:read-write-conflict",
                       "INVALID:read-write-conflict")

    monkeypatch.setattr(updater.ledger, "order", conflicting)
    with pytest.raises(LedgerRejectedError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    assert [envelope["body"]["kind"] for envelope in ordered] == ["publish"]
    assert not _committed_whole_or_nothing(fed, before)
    assert len(_reservations(fed) - before["reserved"]) == 2


def _citing(doc, local_id, pid):
    """*doc* with entity *local_id*'s artifact PID set to *pid*."""
    return doc.with_entity(dataclasses.replace(doc.entity_map()[local_id], artifact_pid=pid))


def test_a_document_citing_a_non_artifact_pid_is_refused(publisher):
    """Lineage reads every cited PID as an artifact on the ledger, so one
    document citing a provenance record's PID would break every trace in
    the federation. Publish and update refuse it before they store, reserve
    or order anything."""
    fed, users, updater = publisher
    alice = users["alice"]["identity"]
    first = updater.publish(b"a\n", simple_doc(), alice)
    record = fed.client().registry().resolve(first["prov_pid"])
    stored = fed.store.fetch_document(record["target_uri"], record["checksum"])
    before, height = _observed(fed), fed.nodes["OrgA"].height()
    cites_provenance = f"artifact PID {first['prov_pid']!r} names a provenance-record"
    with pytest.raises(InvalidDocumentError, match=cites_provenance):
        updater.publish(b"b\n", _citing(simple_doc(), "e-in", first["prov_pid"]), alice)
    with pytest.raises(InvalidDocumentError, match=cites_provenance):
        updater.update(first["prov_pid"], _citing(stored, "e-in", first["prov_pid"]), alice)
    assert _observed(fed) == before and fed.nodes["OrgA"].height() == height
    assert cli.trace_artifact(fed.client(), first["artifact_pid"])["paths"]
    cites_artifact = _citing(simple_doc(), "e-in", first["artifact_pid"])
    assert updater.publish(b"b\n", cites_artifact, alice)["receipts"]


# -- an unknown outcome is settled by the ledger -----------------------------------


def _all_verified(fed):
    ctx = fed.client()
    for record in fed.registry.list_records():
        assert cli.verify_pid(ctx, record.pid)["result"] == "VERIFIED", record.pid


def _order_reply_lost(updater, monkeypatch, delivered: bool):
    """ORDER raises ``TransportError``, after (*delivered*) or before the commit."""
    real_order = updater.ledger.order

    def order(envelope):
        if delivered:
            real_order(envelope)
        raise TransportError("connection closed mid-message")

    monkeypatch.setattr(updater.ledger, "order", order)


def test_lost_order_reply_after_commit_returns_the_publish(publisher, monkeypatch):
    fed, users, updater = publisher
    before = _observed(fed)
    _order_reply_lost(updater, monkeypatch, delivered=True)
    body = updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    history = users["alice"]["ledger"].get_history(body["artifact_pid"])
    for receipt in body["receipts"].values():
        assert receipt["status"] == "VALID"
        assert (receipt["tx_id"], receipt["height"]) == (history[0]["tx_id"],
                                                         history[0]["height"])
    assert _committed_whole_or_nothing(fed, before)
    _all_verified(fed)


def test_lost_order_reply_after_commit_returns_the_update(published, monkeypatch):
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = _observed(fed)
    _order_reply_lost(updater, monkeypatch, delivered=True)
    result = updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert result.receipt["status"] == "VALID"
    assert users["alice"]["ledger"].hlf_read(pid).checksum == result.checksum
    assert _committed_whole_or_nothing(fed, before)
    _all_verified(fed)


def test_lost_order_before_commit_rolls_the_publish_back(publisher, monkeypatch):
    """An ORDER that never reached the orderer publishes nothing visible."""
    fed, users, updater = publisher
    before = _observed(fed)
    _order_reply_lost(updater, monkeypatch, delivered=False)
    with pytest.raises(TransportError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    assert not _committed_whole_or_nothing(fed, before)


def test_late_order_commit_is_visible_through_resolve(publisher, monkeypatch):
    """The client's ORDER raises ``TransportError`` and the real ORDER goes
    out 0.3 s later: the verb fails, then the write commits, and both PIDs
    resolve and verify."""
    fed, users, updater = publisher
    before = _observed(fed)
    real_order = updater.ledger.order
    late = []

    def order(envelope):
        late.append(threading.Timer(0.3, real_order, args=(envelope,)))
        late[-1].start()
        raise TransportError("timed out")

    monkeypatch.setattr(updater.ledger, "order", order)
    with pytest.raises(TransportError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    late[0].join()
    reserved = _reservations(fed) - before["reserved"]
    assert len(reserved) == 2
    registry = fed.client().registry()
    for pid in reserved:
        assert registry.resolve(pid)["pid"] == pid
        assert cli.verify_pid(fed.client(), pid)["result"] == "VERIFIED"
    assert _committed_whole_or_nothing(fed, before)


def test_restart_answers_the_same_and_reserves_above_every_reservation(
    published, monkeypatch
):
    fed, users, pid, doc = published
    alice = users["alice"]
    updater = fed.client(alice["identity"], alice["key"]).updater()
    _dying(updater, monkeypatch, "_step_ledger", error=LedgerRejectedError("injected"))
    head = _update_head(fed, alice, pid, "one").new_pid
    with pytest.raises(LedgerRejectedError):
        updater.update(head, annotated(_document(fed, head), "refused"), alice["identity"])

    def answers(federation):
        registry = federation.client().registry()
        out = {}
        for reserved in sorted(_reservations(federation)):
            try:
                out[reserved] = (registry.resolve(reserved), registry.version_history(reserved))
            except UnknownPIDError:
                out[reserved] = None
        return out

    seen = answers(fed)
    assert None in seen.values()  # the refused run's reservation
    fed.stop()
    restarted = Federation.start(fed.config_path)
    try:
        assert answers(restarted) == seen
        newest = max(int(p.rsplit("/", 1)[1]) for p in seen)
        assert int(restarted.registry._next_suffix()) > newest
    finally:
        restarted.stop()


# -- a grant names the version chain's first PID, the ledger key -----------------


def annotated(doc, key):
    """*doc* with one more attribute on its first entity: an enrichment."""
    first = doc.entities[0]
    return doc.with_entity(
        dataclasses.replace(first, attributes={**first.attributes, key: "yes"})
    )


def _document(fed, pid):
    record = fed.client().registry().resolve(pid)
    return fed.store.fetch_document(record["target_uri"], record["checksum"])


@pytest.fixture()
def second_version(publisher):
    """Alice publishes (21.P/000001, 21.P/000002), then updates to 21.P/000003."""
    fed, users, updater = publisher
    alice = users["alice"]
    body = updater.publish(b"a,b\n1,2\n", simple_doc(), alice["identity"])
    assert (body["artifact_pid"], body["prov_pid"]) == ("21.P/000001", "21.P/000002")
    v2 = updater.update("21.P/000002", annotated(_document(fed, "21.P/000002"), "one"),
                        alice["identity"])
    assert v2.new_pid == "21.P/000003"
    return fed, users


def test_grant_on_the_first_version_covers_every_version(second_version):
    fed, users = second_version
    alice, bob = users["alice"], users["bob"]
    grant = identity_mod.grant_permission(
        "21.P/000002", "bob", identity_mod.CAP_UPDATE_PROVENANCE,
        alice["identity"], alice["key"],
    )
    bob_updater = fed.client(bob["identity"], bob["key"]).updater()
    v3 = bob_updater.update("21.P/000003", annotated(_document(fed, "21.P/000003"), "two"),
                            bob["identity"], permission=grant)
    assert v3.receipt["status"] == "VALID"
    # The chain stays alice's: bob needs the grant again, alice needs none.
    before = fed.system_digest()
    with pytest.raises(UnauthorizedError):
        bob_updater.update(v3.new_pid, annotated(_document(fed, v3.new_pid), "three"),
                           bob["identity"])
    assert fed.system_digest() == before
    alice_updater = fed.client(alice["identity"], alice["key"]).updater()
    v4 = alice_updater.update(v3.new_pid, annotated(_document(fed, v3.new_pid), "four"),
                              alice["identity"])
    assert users["alice"]["ledger"].hlf_read("21.P/000002").version == 4
    assert v4.receipt["status"] == "VALID"
    _all_verified(fed)


def test_grant_on_a_later_version_is_refused_before_any_write(second_version):
    fed, users = second_version
    alice, bob = users["alice"], users["bob"]
    grant = identity_mod.grant_permission(
        "21.P/000003", "bob", identity_mod.CAP_UPDATE_PROVENANCE,
        alice["identity"], alice["key"],
    )
    bob_updater = fed.client(bob["identity"], bob["key"]).updater()
    before = fed.system_digest()
    with pytest.raises(UnauthorizedError):
        bob_updater.update("21.P/000003", annotated(_document(fed, "21.P/000003"), "two"),
                           bob["identity"], permission=grant)
    assert fed.system_digest() == before  # refused before the run stored anything
