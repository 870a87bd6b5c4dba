"""The atomic update protocol: ordering, rollback completeness, repair."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import register_default_users, simple_doc
from fedprov import cli, identity as identity_mod
from fedprov.errors import (
    IllegalUpdateError,
    LedgerRejectedError,
    SuccessorExistsError,
    TransportError,
    UnauthorizedError,
    UnknownPIDError,
)
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
    record = registry.mint("provenance-record", uri, checksum)
    receipt = alice["ledger"].hlf_create(
        record["pid"], uri, checksum, ["alice"], "provenance-record"
    )
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


@pytest.mark.parametrize("failing_step", ["_step_store", "_step_mint", "_step_ledger"])
def test_rollback_completeness_per_failure_point(published, failing_step, monkeypatch):
    """A failure at any protocol step leaves the system digest unchanged.

    The failing step itself performs no work (its own atomicity is the
    store/registry/ledger layer's contract); every already-completed step
    must be compensated.
    """
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = fed.system_digest()

    def exploding(*args, **kwargs):
        raise LedgerRejectedError(f"injected failure at {failing_step}")

    monkeypatch.setattr(updater, failing_step, exploding)
    with pytest.raises(LedgerRejectedError):
        updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert fed.system_digest() == before
    # The record is still updatable afterwards (nothing half-linked).
    clean = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    result = clean.update(pid, enriched_copy(doc, "after"), users["alice"]["identity"])
    assert result.classification == ENRICHMENT


def test_ledger_rejection_rolls_back_registry_and_blob(published, monkeypatch):
    """Policy failure at the last step leaves no new version anywhere."""
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = fed.system_digest()

    def refuse(*args, **kwargs):
        raise LedgerRejectedError("endorsement policy unmet (injected)")

    monkeypatch.setattr(updater, "_step_ledger", refuse)
    with pytest.raises(LedgerRejectedError):
        updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert fed.system_digest() == before
    chain = fed.client().registry().version_history(pid)
    assert len(chain) == 1


def test_shared_blob_survives_rollback(published, monkeypatch):
    """Rollback must not delete a blob that existed before the update."""
    fed, users, pid, doc = published
    new_doc = enriched_copy(doc)
    uri, checksum, created = fed.store.store_document(new_doc)  # pre-existing
    assert created
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    monkeypatch.setattr(
        updater, "_step_ledger",
        lambda *a, **k: (_ for _ in ()).throw(LedgerRejectedError("injected")),
    )
    with pytest.raises(LedgerRejectedError):
        updater.update(pid, new_doc, users["alice"]["identity"])
    # Blob still present: this update did not create it.
    fed.store.fetch_document(uri, checksum)


def test_repair_rolls_back_crashed_update(published, monkeypatch):
    """A crash after the linked mint (before ledger) is undone by journal repair."""
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = fed.system_digest()

    class Crash(RuntimeError):
        pass

    def crash(*args, **kwargs):
        raise Crash("simulated process death")

    # The "process dies" mid-protocol: neither the final step nor the
    # in-line compensation runs, and no abort is journaled.
    monkeypatch.setattr(updater, "_step_ledger", crash)
    monkeypatch.setattr(updater, "_rollback", crash)
    with pytest.raises(Crash):
        updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert fed.system_digest() != before  # half-done state left behind

    recovery = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    repaired = recovery.repair()
    assert repaired == 1
    assert fed.system_digest() == before


def _assert_updatable_again(fed, users, pid, doc):
    assert len(fed.client().registry().version_history(pid)) == 1
    clean = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    result = clean.update(pid, enriched_copy(doc, "after"), users["alice"]["identity"])
    assert users["alice"]["ledger"].hlf_read(pid).version == 2
    assert cli.verify_pid(fed.client(), result.new_pid)["result"] == "VERIFIED"


def test_lost_mint_reply_is_rolled_back(published, monkeypatch):
    """The registry mints and links the new version, but its reply is lost:
    the rollback finds the version through its predecessor and discards it."""
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = fed.system_digest()
    real_transport = updater.registry.transport

    def reply_lost(kind, payload):
        response = real_transport(kind, payload)
        if kind == "MINT":
            raise TransportError("connection closed mid-message")
        return response

    monkeypatch.setattr(updater.registry, "transport", reply_lost)
    with pytest.raises(TransportError):
        updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert fed.system_digest() == before
    assert updater.journal.pending() == {}
    _assert_updatable_again(fed, users, pid, doc)


def test_repair_discards_a_version_minted_but_never_journaled(published, monkeypatch):
    """The process dies between the MINT's reply and the journal entry naming
    its PID: repair finds the linked version through its predecessor."""
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    before = fed.system_digest()
    real_record = updater.journal.record

    class Crash(RuntimeError):
        pass

    def record(update_id, event, data=None):
        if event == "mint":
            raise Crash("simulated process death")
        real_record(update_id, event, data)

    def crash(*args, **kwargs):
        raise Crash("simulated process death")

    monkeypatch.setattr(updater.journal, "record", record)
    monkeypatch.setattr(updater, "_rollback", crash)
    with pytest.raises(Crash):
        updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert len(fed.client().registry().version_history(pid)) == 2  # linked, unnamed

    recovery = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    assert recovery.repair() == 1
    assert recovery.journal.pending() == {}
    assert fed.system_digest() == before
    _assert_updatable_again(fed, users, pid, doc)


def test_refused_mint_leaves_another_runs_version_alone(published, monkeypatch):
    """Another run supersedes the old version first; this run's MINT is refused,
    and its rollback does not discard the other run's version."""
    fed, users, pid, doc = published
    alice = users["alice"]
    updater = fed.client(alice["identity"], alice["key"]).updater()
    real_mint = updater._step_mint

    def overtaken(*args, **kwargs):
        other = fed.client(alice["identity"], alice["key"]).updater()
        other.update(pid, enriched_copy(doc, "first"), alice["identity"])
        return real_mint(*args, **kwargs)

    monkeypatch.setattr(updater, "_step_mint", overtaken)
    with pytest.raises(SuccessorExistsError):
        updater.update(pid, enriched_copy(doc, "second"), alice["identity"])
    chain = fed.client().registry().version_history(pid)
    assert [r["version_number"] for r in chain] == [1, 2]
    assert alice["ledger"].hlf_read(pid).checksum == chain[1]["checksum"]
    assert cli.verify_pid(fed.client(), chain[1]["pid"])["result"] == "VERIFIED"


# -- publish runs on the same journal and rollback ------------------------------


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
    assert updater.journal.pending() == {}


@pytest.mark.parametrize(
    "failing_step, call",
    [("_step_store", 1), ("_step_mint", 1), ("_step_store", 2), ("_step_mint", 2),
     ("_step_ledger", 1)],
)
def test_publish_rollback_completeness_per_failure_point(
    publisher, failing_step, call, monkeypatch
):
    """A failure at any publish step leaves the system digest unchanged."""
    fed, users, updater = publisher
    alice = users["alice"]["identity"]
    before = fed.system_digest()
    real = getattr(updater, failing_step)
    calls = []

    def exploding(*args, **kwargs):
        calls.append(args)
        if len(calls) == call:
            raise LedgerRejectedError(f"injected failure at {failing_step} call {call}")
        return real(*args, **kwargs)

    monkeypatch.setattr(updater, failing_step, exploding)
    with pytest.raises(LedgerRejectedError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), alice)
    assert fed.system_digest() == before
    assert updater.journal.pending() == {}
    clean = fed.client(alice, users["alice"]["key"]).updater()
    assert clean.publish(b"a,b\n1,2\n", simple_doc(), alice)["receipts"]


def _crash_publish(fed, users, monkeypatch, who="alice"):
    """Publish as *who*, dying after both mints but before the ledger write."""
    updater = fed.client(users[who]["identity"], users[who]["key"]).updater()

    class Crash(RuntimeError):
        pass

    def crash(*args, **kwargs):
        raise Crash("simulated process death")

    monkeypatch.setattr(updater, "_step_ledger", crash)
    monkeypatch.setattr(updater, "_rollback", crash)
    with pytest.raises(Crash):
        updater.publish(b"a,b\n1,2\n", simple_doc(), users[who]["identity"])


def test_repair_rolls_back_crashed_publish(publisher, monkeypatch):
    fed, users, _ = publisher
    before = fed.system_digest()
    _crash_publish(fed, users, monkeypatch)
    assert fed.system_digest() != before  # two blobs and two PIDs left behind

    recovery = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    assert recovery.repair() == 1
    assert fed.system_digest() == before
    assert recovery.journal.pending() == {}


def test_repair_by_non_owner_is_refused_and_deletes_no_record(publisher, monkeypatch):
    fed, users, _ = publisher
    before = fed.system_digest()
    _crash_publish(fed, users, monkeypatch)
    crashed = fed.system_digest()

    stranger = fed.client(users["bob"]["identity"], users["bob"]["key"]).updater()
    with pytest.raises(UnauthorizedError):
        stranger.repair()
    assert fed.system_digest() == crashed
    assert len(stranger.journal.pending()) == 1

    owner = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    assert owner.repair() == 1
    assert fed.system_digest() == before


def test_refused_publish_is_undone_whole(publisher, monkeypatch):
    """One transaction creates both records: if it does not commit, neither
    record reaches the ledger and every blob and PID the publish wrote is
    rolled back."""
    fed, users, updater = publisher
    before = fed.system_digest()
    ordered = []

    def conflicting(envelope):
        ordered.append(envelope)
        return Receipt(envelope["tx_id"], None, "INVALID:read-write-conflict",
                       "INVALID:read-write-conflict")

    monkeypatch.setattr(updater.ledger, "order", conflicting)
    with pytest.raises(LedgerRejectedError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    assert [envelope["body"]["kind"] for envelope in ordered] == ["publish"]
    assert fed.system_digest() == before
    assert updater.journal.pending() == {}


# -- an unknown outcome is settled by the ledger: a committed write stays -------


class Crash(RuntimeError):
    pass


def _dying_at_commit(fed, user, monkeypatch):
    """An updater whose process dies after the ledger commit, before the
    journal's ``commit``: nothing after that point runs."""
    updater = fed.client(user["identity"], user["key"]).updater()
    real_record = updater.journal.record

    def record(update_id, event, data=None):
        if event == "commit":
            raise Crash("simulated process death")
        real_record(update_id, event, data)

    def crash(*args, **kwargs):
        raise Crash("simulated process death")

    monkeypatch.setattr(updater.journal, "record", record)
    monkeypatch.setattr(updater, "_rollback", crash)
    return updater


def _all_verified(fed):
    ctx = fed.client()
    for record in fed.registry.list_records():
        assert cli.verify_pid(ctx, record.pid)["result"] == "VERIFIED", record.pid


def _repaired_forward(fed, user) -> None:
    recovery = fed.client(user["identity"], user["key"]).updater()
    assert recovery.repair() == 1
    assert recovery.journal.pending() == {}
    assert recovery.journal.entries()[-1]["event"] == "commit"


def test_repair_rolls_forward_a_publish_that_committed(publisher, monkeypatch):
    fed, users, _ = publisher
    alice = users["alice"]
    with pytest.raises(Crash):
        _dying_at_commit(fed, alice, monkeypatch).publish(
            b"a,b\n1,2\n", simple_doc(), alice["identity"]
        )
    committed = fed.system_digest()
    _repaired_forward(fed, alice)
    assert fed.system_digest() == committed
    assert len(fed.registry.list_records()) == 2
    _all_verified(fed)


def test_repair_rolls_forward_an_update_that_committed(published, monkeypatch):
    fed, users, pid, doc = published
    alice = users["alice"]
    with pytest.raises(Crash):
        _dying_at_commit(fed, alice, monkeypatch).update(
            pid, enriched_copy(doc), alice["identity"]
        )
    committed = fed.system_digest()
    _repaired_forward(fed, alice)
    assert fed.system_digest() == committed
    chain = fed.client().registry().version_history(pid)
    assert [r["version_number"] for r in chain] == [1, 2]
    assert alice["ledger"].hlf_read(pid).checksum == chain[1]["checksum"]
    _all_verified(fed)


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
    _order_reply_lost(updater, monkeypatch, delivered=True)
    body = updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    history = users["alice"]["ledger"].get_history(body["artifact_pid"])
    for receipt in body["receipts"].values():
        assert receipt["status"] == "VALID"
        assert (receipt["tx_id"], receipt["height"]) == (history[0]["tx_id"],
                                                         history[0]["height"])
    assert updater.journal.pending() == {}
    _all_verified(fed)


def test_lost_order_reply_after_commit_returns_the_update(published, monkeypatch):
    fed, users, pid, doc = published
    updater = fed.client(users["alice"]["identity"], users["alice"]["key"]).updater()
    _order_reply_lost(updater, monkeypatch, delivered=True)
    result = updater.update(pid, enriched_copy(doc), users["alice"]["identity"])
    assert result.receipt["status"] == "VALID"
    assert users["alice"]["ledger"].hlf_read(pid).checksum == result.checksum
    assert updater.journal.pending() == {}
    _all_verified(fed)


def test_lost_order_before_commit_rolls_the_publish_back(publisher, monkeypatch):
    fed, users, updater = publisher
    before = fed.system_digest()
    _order_reply_lost(updater, monkeypatch, delivered=False)
    with pytest.raises(TransportError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    assert fed.system_digest() == before
    assert updater.journal.pending() == {}


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
    journaled = len(bob_updater.journal.entries())
    with pytest.raises(UnauthorizedError):
        bob_updater.update("21.P/000003", annotated(_document(fed, "21.P/000003"), "two"),
                           bob["identity"], permission=grant)
    assert fed.system_digest() == before
    assert len(bob_updater.journal.entries()) == journaled  # refused before the run began
