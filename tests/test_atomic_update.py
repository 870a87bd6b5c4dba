"""The atomic update protocol: ordering, rollback completeness, repair."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import register_default_users, simple_doc
from fedprov import identity as identity_mod
from fedprov.errors import (
    IllegalUpdateError,
    LedgerRejectedError,
    SuccessorExistsError,
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


@pytest.mark.parametrize("failing_step", ["_step_store", "_step_mint", "_step_link", "_step_ledger"])
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
    """A crash after link (before ledger) is undone by journal repair."""
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
     ("_step_create", 1)],
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
    """Publish as *who*, dying after both mints but before anything is ordered."""
    updater = fed.client(users[who]["identity"], users[who]["key"]).updater()

    class Crash(RuntimeError):
        pass

    def crash(*args, **kwargs):
        raise Crash("simulated process death")

    monkeypatch.setattr(updater, "_step_create", crash)
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


def test_partly_committed_publish_is_refused_not_undone(publisher, monkeypatch):
    """If one create commits and the other does not, nothing is rolled back:
    the committed artifact keeps its registry record and its blob."""
    fed, users, updater = publisher
    real_order_all = updater.ledger.order_all
    artifact_pid = None

    def artifact_only(envelopes):
        nonlocal artifact_pid
        artifact_pid = envelopes[0]["body"]["pid"]
        refused = Receipt(envelopes[1]["tx_id"], None, "INVALID:read-write-conflict",
                          "INVALID:read-write-conflict")
        return real_order_all(envelopes[:1]) + [refused]

    monkeypatch.setattr(updater.ledger, "order_all", artifact_only)
    with pytest.raises(LedgerRejectedError):
        updater.publish(b"a,b\n1,2\n", simple_doc(), users["alice"]["identity"])
    value = users["alice"]["ledger"].hlf_read(artifact_pid)
    record = fed.client().registry().resolve(artifact_pid)
    assert record["checksum"] == value.checksum
    fed.store.fetch_bytes(value.uri, value.checksum)
    assert updater.journal.pending() == {}
