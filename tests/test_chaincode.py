"""Chaincode semantics: the update algorithm's outcomes and the CRUD matrix."""

from __future__ import annotations

import pytest

from conftest import publish_raw, register_default_users
from fedprov import identity as identity_mod
from fedprov.ledger import chaincode
from fedprov.ledger.client import STATUS_REJECTED

# Kinds that older ledgers hold but that no longer simulate.
RETIRED_KINDS = ("create-artifact", "create-prov")


@pytest.fixture()
def ready(fed):
    users = register_default_users(fed)
    alice = users["alice"]["ledger"]
    # One provenance record and one artifact owned by alice.
    assert publish_raw(alice, "21.P/a1", "cas://a1", "c-a1",
                       prov=("21.P/p1", "cas://p1", "c-p1")).ok
    return fed, users


def test_update_owner_existing(ready):
    fed, users = ready
    receipt = users["alice"]["ledger"].hlf_update_prov("21.P/p1", "cas://p2", "c-p2", 2, "21.P/p2")
    assert receipt.message == chaincode.MSG_UPDATED
    value = users["alice"]["ledger"].hlf_read("21.P/p1")
    assert value.version == 2
    assert value.checksum == "c-p2"


def test_update_writes_the_version_it_states(ready):
    fed, users = ready
    alice = users["alice"]["ledger"]
    receipt = alice.hlf_update_prov("21.P/p1", "cas://p2", "c-p2", version=2, new_pid="21.P/p2")
    assert receipt.message == chaincode.MSG_UPDATED
    assert alice.hlf_read("21.P/p1").version == 2


@pytest.mark.parametrize("version", [1, 2, 4])
def test_update_of_another_version_is_a_version_conflict(ready, version):
    """Only the current version plus one may be written: a stale update is refused."""
    fed, users = ready
    alice = users["alice"]["ledger"]
    assert alice.hlf_update_prov("21.P/p1", "cas://p2", "c-p2", version=2, new_pid="21.P/p2").ok
    height = fed.nodes["OrgA"].height()
    receipt = alice.hlf_update_prov("21.P/p1", "cas://p3", "c-p3", version=version,
                                    new_pid="21.P/p3")
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, chaincode.MSG_VERSION_CONFLICT)
    assert alice.hlf_read("21.P/p1").checksum == "c-p2"
    assert fed.nodes["OrgA"].height() == height


_ABSENT = object()


@pytest.mark.parametrize("version", ["2", 2.0, True, None, [2], _ABSENT],
                         ids=["string", "float", "bool", "null", "list", "absent"])
def test_update_with_a_version_that_is_not_an_integer_is_a_bad_request(ready, version):
    """Every update states the version it writes; there is no blind update."""
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    args = {"new_uri": "cas://x", "new_checksum": "cx", "new_pid": "21.P/x"}
    if version is not _ABSENT:
        args["version"] = version
    receipt = users["alice"]["ledger"].submit(chaincode.TX_UPDATE_PROV, "21.P/p1", args)
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, chaincode.MSG_BAD_REQUEST)
    assert fed.nodes["OrgA"].height() == height
    assert users["alice"]["ledger"].hlf_read("21.P/p1").version == 1


@pytest.mark.parametrize("new_pid", [_ABSENT, 7, None, ["21.P/p2"], "21.P/p1"],
                         ids=["absent", "int", "null", "list", "chain-key"])
def test_update_naming_no_new_pid_is_a_bad_request(ready, new_pid):
    """Every update names its version's PID: a string other than the chain's key."""
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    args = {"new_uri": "cas://x", "new_checksum": "cx", "version": 2, "new_pid": new_pid}
    if new_pid is _ABSENT:
        del args["new_pid"]
    receipt = users["alice"]["ledger"].submit(chaincode.TX_UPDATE_PROV, "21.P/p1", args)
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, chaincode.MSG_BAD_REQUEST)
    assert fed.nodes["OrgA"].height() == height
    assert users["alice"]["ledger"].hlf_read("21.P/p1").version == 1


def test_update_unknown_pid(ready):
    fed, users = ready
    receipt = users["alice"]["ledger"].hlf_update_prov("21.P/none", "cas://x", "cx", 2, "21.P/x")
    assert receipt.message == chaincode.MSG_NOT_FOUND
    assert receipt.status == STATUS_REJECTED


def test_update_stranger_rejected(ready):
    fed, users = ready
    receipt = users["bob"]["ledger"].hlf_update_prov("21.P/p1", "cas://x", "cx", 2, "21.P/x")
    assert receipt.message == chaincode.MSG_UNAUTHORIZED


def test_update_with_grant_accepted(ready):
    fed, users = ready
    grant = identity_mod.grant_permission(
        "21.P/p1", "bob", "update-provenance",
        users["alice"]["identity"], users["alice"]["key"],
    )
    receipt = users["bob"]["ledger"].hlf_update_prov(
        "21.P/p1", "cas://x", "cx", 2, "21.P/x", permission=grant
    )
    assert receipt.message == chaincode.MSG_UPDATED


def test_update_consumer_rejected(ready):
    fed, users = ready
    receipt = users["ruth"]["ledger"].hlf_update_prov("21.P/p1", "cas://x", "cx", 2, "21.P/x")
    assert receipt.message == chaincode.MSG_UNAUTHORIZED


def test_update_artifact_pid_rejected(ready):
    """Table row: artifacts have no Update."""
    fed, users = ready
    receipt = users["alice"]["ledger"].hlf_update_prov("21.P/a1", "cas://x", "cx", 2, "21.P/x")
    assert receipt.message == chaincode.MSG_ARTIFACT_UPDATE
    assert users["alice"]["ledger"].hlf_read("21.P/a1").version == 1


def test_create_twice_rejected(ready):
    fed, users = ready
    receipt = publish_raw(users["alice"]["ledger"], "21.P/a1", "cas://other", "c-other")
    assert receipt.message == chaincode.MSG_EXISTS
    assert users["alice"]["ledger"].hlf_read("21.P/a1").checksum == "c-a1"


def test_consumer_create_rejected(ready):
    fed, users = ready
    receipt = publish_raw(users["ruth"]["ledger"], "21.P/new", "cas://n", "cn", ["ruth"])
    assert receipt.message == chaincode.MSG_UNAUTHORIZED


def test_read_is_role_independent(ready):
    fed, users = ready
    producer_view = users["alice"]["ledger"].hlf_read("21.P/a1")
    consumer_view = users["ruth"]["ledger"].hlf_read("21.P/a1")
    assert producer_view == consumer_view
    assert users["ruth"]["ledger"].hlf_read("21.P/never") is None


def test_invalidate_keeps_value(ready):
    fed, users = ready
    receipt = users["alice"]["ledger"].hlf_invalidate("21.P/a1", reason="bad batch")
    assert receipt.message == chaincode.MSG_INVALIDATED
    value = users["alice"]["ledger"].hlf_read("21.P/a1")
    assert value.status == "invalidated"
    assert value.uri == "cas://a1"
    assert value.checksum == "c-a1"
    assert value.version == 2


def test_invalidate_twice_idempotent(ready):
    fed, users = ready
    users["alice"]["ledger"].hlf_invalidate("21.P/a1")
    digest_before = fed.nodes["OrgA"].state_digest()
    second = users["alice"]["ledger"].hlf_invalidate("21.P/a1")
    assert second.message == chaincode.MSG_ALREADY_INVALIDATED
    assert fed.nodes["OrgA"].state_digest() == digest_before


def test_invalidate_provenance_rejected(ready):
    """Table row: provenance documents have no Delete."""
    fed, users = ready
    receipt = users["alice"]["ledger"].hlf_invalidate("21.P/p1")
    assert receipt.message == chaincode.MSG_PROV_INVALIDATE
    assert users["alice"]["ledger"].hlf_read("21.P/p1").status == "valid"


def test_flag_affected_requires_invalidated_source(ready):
    fed, users = ready
    receipt = users["bob"]["ledger"].flag_affected(["21.P/a1"], "21.P/p1")
    assert receipt.message == chaincode.MSG_SOURCE_NOT_INVALIDATED


def test_flag_affected_after_invalidation(ready):
    fed, users = ready
    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/a2", "cas://a2", "c-a2").ok
    alice.hlf_invalidate("21.P/a1")
    receipt = users["bob"]["ledger"].flag_affected(["21.P/a2"], "21.P/a1")
    assert receipt.message == chaincode.MSG_FLAGGED
    value = alice.hlf_read("21.P/a2")
    assert value.status == "affected"
    assert value.status_source == "21.P/a1"


# -- multi-target flag-affected ------------------------------------------------------


@pytest.fixture()
def cascade(ready):
    """a1 invalidated; a2, a3, a4 valid artifacts derived from it."""
    fed, users = ready
    alice = users["alice"]["ledger"]
    for name in ("a2", "a3", "a4"):
        assert publish_raw(alice, f"21.P/{name}", f"cas://{name}", f"c-{name}").ok
    assert alice.hlf_invalidate("21.P/a1").ok
    return fed, users


def _statuses(ledger, *pids):
    values = {pid: ledger.hlf_read(pid) for pid in pids}
    return {pid: (value.status, value.version) for pid, value in values.items()}


def test_flag_affected_writes_only_valid_targets(cascade):
    fed, users = cascade
    bob = users["bob"]["ledger"]
    assert bob.flag_affected(["21.P/a2"], "21.P/a1").message == chaincode.MSG_FLAGGED
    height = fed.nodes["OrgA"].height()

    receipt = bob.flag_affected(["21.P/a4", "21.P/a2", "21.P/a3"], "21.P/a1")
    assert receipt.ok and receipt.message == chaincode.MSG_FLAGGED
    assert receipt.height == height + 1
    tx = fed.nodes["OrgA"].block(receipt.height).transactions[0]
    assert sorted(tx["result"]["writes"]) == ["21.P/a3", "21.P/a4"]
    assert sorted(tx["result"]["reads"]) == ["21.P/a1", "21.P/a2", "21.P/a3", "21.P/a4"]
    assert _statuses(bob, "21.P/a2", "21.P/a3", "21.P/a4") == {
        "21.P/a2": ("affected", 2), "21.P/a3": ("affected", 2), "21.P/a4": ("affected", 2),
    }
    assert bob.hlf_read("21.P/a3").status_source == "21.P/a1"


def test_flag_affected_all_already_flagged_writes_nothing(cascade):
    fed, users = cascade
    bob = users["bob"]["ledger"]
    assert bob.flag_affected(["21.P/a2", "21.P/a3"], "21.P/a1").ok
    digest_before = fed.nodes["OrgA"].state_digest()
    receipt = bob.flag_affected(["21.P/a2", "21.P/a3"], "21.P/a1")
    assert receipt.message == chaincode.MSG_ALREADY_FLAGGED
    assert fed.nodes["OrgA"].state_digest() == digest_before


@pytest.mark.parametrize(
    "bad_target, message",
    [("21.P/none", chaincode.MSG_NOT_FOUND), ("21.P/p1", chaincode.MSG_PROV_INVALIDATE)],
    ids=["missing", "provenance"],
)
def test_flag_affected_bad_target_refuses_whole_tx(cascade, bad_target, message):
    fed, users = cascade
    height = fed.nodes["OrgA"].height()
    digest_before = fed.nodes["OrgA"].state_digest()
    receipt = users["bob"]["ledger"].flag_affected(["21.P/a2", bad_target, "21.P/a3"], "21.P/a1")
    assert receipt.message == message
    assert receipt.status == STATUS_REJECTED
    assert fed.nodes["OrgA"].height() == height
    assert fed.nodes["OrgA"].state_digest() == digest_before


def test_flag_affected_consumer_rejected(cascade):
    fed, users = cascade
    receipt = users["ruth"]["ledger"].flag_affected(["21.P/a2"], "21.P/a1")
    assert receipt.message == chaincode.MSG_UNAUTHORIZED
    assert users["ruth"]["ledger"].hlf_read("21.P/a2").status == "valid"


def test_flag_affected_valid_source_rejected(cascade):
    fed, users = cascade
    receipt = users["bob"]["ledger"].flag_affected(["21.P/a3"], "21.P/a2")
    assert receipt.message == chaincode.MSG_SOURCE_NOT_INVALIDATED
    assert users["bob"]["ledger"].hlf_read("21.P/a3").status == "valid"


@pytest.mark.parametrize(
    "targets",
    ["21.P/a2", None, [], ["21.P/a2", 7], ["21.P/a2", "21.P/a2"], ["21.P/a2", "21.P/a1"]],
    ids=["string", "null", "empty", "non-string", "duplicate", "source"],
)
def test_flag_affected_malformed_targets_rejected(cascade, targets):
    fed, users = cascade
    height = fed.nodes["OrgA"].height()
    receipt = users["bob"]["ledger"].submit(
        chaincode.TX_FLAG_AFFECTED, "21.P/a1", {"targets": targets}
    )
    assert receipt.message == chaincode.MSG_BAD_REQUEST
    assert receipt.status == STATUS_REJECTED
    assert fed.nodes["OrgA"].height() == height


# -- publish: both records in one transaction -----------------------------------


def _publish(ledger, artifact_pid, provenance):
    return ledger.submit(
        chaincode.TX_PUBLISH, artifact_pid,
        {"uri": "cas://art", "checksum": "c-art", "owners": ["alice"],
         "provenance": provenance},
    )


def test_publish_creates_both_records_in_one_transaction(ready):
    fed, users = ready
    alice = users["alice"]["ledger"]
    receipt = _publish(alice, "21.P/a9", {"pid": "21.P/p9", "uri": "cas://doc",
                                          "checksum": "c-doc"})
    assert receipt.message == chaincode.MSG_CREATED
    artifact, record = alice.hlf_read("21.P/a9"), alice.hlf_read("21.P/p9")
    assert (artifact.kind, artifact.checksum) == (chaincode.KIND_ARTIFACT, "c-art")
    assert (record.kind, record.uri, record.checksum) == (
        chaincode.KIND_PROVENANCE, "cas://doc", "c-doc")
    assert artifact.owners == record.owners == ("alice",)
    assert artifact.timestamp == record.timestamp
    assert artifact.version == record.version == 1
    for pid in ("21.P/a9", "21.P/p9"):
        assert [(h["kind"], h["tx_id"]) for h in alice.get_history(pid)] == [
            ("publish", receipt.tx_id)]


@pytest.mark.parametrize("taken", ["artifact", "provenance"])
def test_publish_refused_if_either_record_exists(ready, taken):
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    artifact_pid = "21.P/a1" if taken == "artifact" else "21.P/a9"
    prov_pid = "21.P/p1" if taken == "provenance" else "21.P/p9"
    receipt = _publish(users["alice"]["ledger"], artifact_pid,
                       {"pid": prov_pid, "uri": "cas://doc", "checksum": "c-doc"})
    assert receipt.message == chaincode.MSG_EXISTS
    assert receipt.status == STATUS_REJECTED
    assert fed.nodes["OrgA"].height() == height


@pytest.mark.parametrize(
    "provenance",
    [None, "21.P/p9", {"pid": "21.P/a9", "uri": "cas://d", "checksum": "cd"},
     {"pid": "21.P/p9", "uri": "cas://d"}, {"pid": 9, "uri": "cas://d", "checksum": "cd"}],
    ids=["missing", "string", "same-pid", "no-checksum", "non-string-pid"],
)
def test_publish_malformed_provenance_rejected(ready, provenance):
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    receipt = _publish(users["alice"]["ledger"], "21.P/a9", provenance)
    assert receipt.message == chaincode.MSG_BAD_REQUEST
    assert fed.nodes["OrgA"].height() == height


def test_publish_consumer_rejected(ready):
    fed, users = ready
    receipt = _publish(users["ruth"]["ledger"], "21.P/a9",
                       {"pid": "21.P/p9", "uri": "cas://d", "checksum": "cd"})
    assert receipt.message == chaincode.MSG_UNAUTHORIZED


@pytest.mark.parametrize("kind", chaincode.TX_KINDS + RETIRED_KINDS)
def test_args_that_are_not_an_object_are_a_bad_request(ready, kind):
    fed, users = ready
    receipt = users["alice"]["ledger"].submit(kind, "21.P/a1", ["not", "an", "object"])
    assert receipt.message == chaincode.MSG_BAD_REQUEST
    assert receipt.status == STATUS_REJECTED


def test_malformed_grant_is_a_bad_request(ready):
    fed, users = ready
    receipt = users["bob"]["ledger"].submit(
        chaincode.TX_UPDATE_PROV, "21.P/p1",
        {"new_uri": "cas://x", "new_checksum": "cx", "version": 2, "new_pid": "21.P/x",
         "permission": {"subject": "21.P/p1"}},
    )
    assert receipt.message == chaincode.MSG_BAD_REQUEST


# -- owners of a new record ------------------------------------------------------

_CREATES = RETIRED_KINDS + (chaincode.TX_PUBLISH,)


def _create_args(kind, **extra):
    args = {"uri": "cas://n", "checksum": "c-n", **extra}
    if kind == chaincode.TX_PUBLISH:
        args["provenance"] = {"pid": "21.P/p9", "uri": "cas://doc", "checksum": "c-doc"}
    return args


@pytest.mark.parametrize("kind", _CREATES)
@pytest.mark.parametrize("owners", ["alice", [1, 2], [], None],
                         ids=["string", "non-strings", "empty", "null"])
def test_malformed_owners_are_a_bad_request(ready, kind, owners):
    """A string would commit as one owner per character, locking its owner out.
    A retired create kind is refused whatever its owners."""
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    receipt = users["alice"]["ledger"].submit(kind, "21.P/a9", _create_args(kind, owners=owners))
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, chaincode.MSG_BAD_REQUEST)
    assert fed.nodes["OrgA"].height() == height


def test_absent_owners_make_the_caller_owner(ready):
    fed, users = ready
    alice = users["alice"]["ledger"]
    receipt = alice.submit(chaincode.TX_PUBLISH, "21.P/a9", _create_args(chaincode.TX_PUBLISH))
    assert receipt.message == chaincode.MSG_CREATED
    assert alice.hlf_read("21.P/a9").owners == ("alice",)
    assert alice.hlf_read("21.P/p9").owners == ("alice",)


@pytest.mark.parametrize("kind", RETIRED_KINDS)
def test_retired_create_kinds_are_a_bad_request(ready, kind):
    """``publish`` is the only create. Older ledgers still hold these kinds
    and replay them; a new submission is refused and cuts no block."""
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    alice = users["alice"]["ledger"]
    receipt = alice.submit(kind, "21.P/a9", _create_args(kind, owners=["alice"]))
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, chaincode.MSG_BAD_REQUEST)
    assert fed.nodes["OrgA"].height() == height
    assert alice.hlf_read("21.P/a9") is None


# -- the fields a write commits are strings ----------------------------------------

_NOT_A_STRING = [("uri", 5), ("checksum", None), ("uri", ["cas://x"]), ("checksum", _ABSENT)]
_IDS = ["uri-int", "checksum-null", "uri-list", "checksum-absent"]


def _set(args, key, value):
    if value is _ABSENT:
        del args[key]
    else:
        args[key] = value


@pytest.mark.parametrize("field, value", _NOT_A_STRING, ids=_IDS)
def test_publish_of_an_artifact_field_that_is_not_a_string_is_a_bad_request(ready, field, value):
    """``collect_documents`` reads every provenance record, so one such value
    on the ledger would make every trace in the federation fail."""
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    args = _create_args(chaincode.TX_PUBLISH)
    _set(args, field, value)
    receipt = users["alice"]["ledger"].submit(chaincode.TX_PUBLISH, "21.P/a9", args)
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, chaincode.MSG_BAD_REQUEST)
    assert fed.nodes["OrgA"].height() == height


@pytest.mark.parametrize("field, value", _NOT_A_STRING, ids=_IDS)
def test_update_to_a_field_that_is_not_a_string_is_a_bad_request(ready, field, value):
    fed, users = ready
    height = fed.nodes["OrgA"].height()
    args = {"new_uri": "cas://p2", "new_checksum": "c-p2", "version": 2, "new_pid": "21.P/p2"}
    _set(args, f"new_{field}", value)
    receipt = users["alice"]["ledger"].submit(chaincode.TX_UPDATE_PROV, "21.P/p1", args)
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, chaincode.MSG_BAD_REQUEST)
    assert fed.nodes["OrgA"].height() == height
    assert users["alice"]["ledger"].hlf_read("21.P/p1").checksum == "c-p1"
