"""One ``publish`` transaction, endorsed by the producer organizations only.

A publish creates its artifact record and its provenance record in one
ledger transaction. PROPOSE goes to producer nodes only; the read-only node
still commits every block. Ledgers that recorded publishes as two creates
keep replaying and verifying next to the new transactions.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import uuid

import pytest

from conftest import ent, order_in_one_block, publish_raw, register_default_users, simple_doc
from fedprov import cli, clock, crypto
from fedprov.canonical import canonical_bytes
from fedprov.errors import TransportError, UnauthorizedError, UnknownPIDError
from fedprov.federation import load_node_credentials
from fedprov.harness import Federation
from fedprov.ledger import blocks, chaincode
from fedprov.ledger.client import LedgerClient, publish_operation
from fedprov.ledger.values import LedgerValue
from fedprov.transport import TcpTransport


def test_read_only_node_gets_no_proposal_but_commits_every_block(fed, users, monkeypatch):
    """The read-only node is never asked to endorse; it commits each block it
    pulls, before the orderer answers the write."""
    readers = fed.services["Readers"]
    real_handle, real_commit = readers.handle, readers.node.commit
    received, committed = [], []

    def handle(kind, payload):
        received.append(kind)
        return real_handle(kind, payload)

    def commit(block):
        committed.append(block["height"])
        return real_commit(block)

    monkeypatch.setattr(readers, "handle", handle)
    monkeypatch.setattr(readers.node, "commit", commit)
    alice = users["alice"]
    body = fed.client(alice["identity"], alice["key"]).updater().publish(
        b"a,b\n1,2\n", simple_doc(), alice["identity"]
    )
    assert body["receipts"]["artifact"]["status"] == "VALID"
    assert received == []
    assert committed == [body["receipts"]["artifact"]["height"]]
    assert len({node.height() for node in fed.nodes.values()}) == 1
    assert len(set(fed.state_digests().values())) == 1


def _client(fed, user, peers):
    return LedgerClient(
        identity=user["identity"],
        private_key=user["key"],
        peer_transports=peers,
        orderer_transport=TcpTransport(fed.config.orderer_org().listen_address),
        orgs=fed.config.orgs_map(),
        endorsement_policy=fed.config.endorsement_policy,
    )


def _refusing(kind, payload):
    raise UnauthorizedError("creator certificate does not verify")


def _unreachable(kind, payload):
    raise TransportError("cannot reach 127.0.0.1:1")


@pytest.mark.parametrize(
    "peers, raised",
    [({"OrgA": _refusing, "OrgB": _refusing}, UnauthorizedError),
     ({"OrgA": _unreachable, "OrgB": _refusing}, TransportError),
     ({"OrgA": _unreachable, "OrgB": _unreachable}, TransportError)],
    ids=["all-refuse", "one-unreachable", "none-reachable"],
)
def test_endorsement_refusal_keeps_its_type(fed, users, peers, raised):
    client = _client(fed, users["alice"], peers)
    with pytest.raises(raised):
        publish_raw(client, "21.P/x", "cas://x", "cx")


def test_one_refusing_producer_does_not_block_the_other(fed, users, caplog):
    peers = {"OrgA": _refusing,
             "OrgB": TcpTransport(fed.config.org_entry("OrgB").listen_address)}
    with caplog.at_level(logging.WARNING, logger="fedprov.ledger.client"):
        receipt = publish_raw(_client(fed, users["alice"], peers), "21.P/x", "cas://x", "cx")
    assert receipt.status == "VALID"
    (skipped,) = [r for r in caplog.records if r.name == "fedprov.ledger.client"]
    assert skipped.levelno == logging.WARNING
    assert "OrgA" in skipped.getMessage()
    assert "creator certificate does not verify" in skipped.getMessage()


def test_a_query_logs_each_node_it_skips(fed, users, caplog):
    assert publish_raw(users["alice"]["ledger"], "21.P/x", "cas://x", "cx").ok
    peers = {"OrgA": _unreachable,
             "OrgB": TcpTransport(fed.config.org_entry("OrgB").listen_address)}
    with caplog.at_level(logging.WARNING, logger="fedprov.ledger.client"):
        assert _client(fed, users["alice"], peers).hlf_read("21.P/x").checksum == "cx"
    (skipped,) = [r for r in caplog.records if r.name == "fedprov.ledger.client"]
    assert skipped.levelno == logging.WARNING
    assert "OrgA" in skipped.getMessage()
    assert "cannot reach 127.0.0.1:1" in skipped.getMessage()

    caplog.clear()
    none_reachable = _client(fed, users["alice"], {"OrgA": _unreachable, "OrgB": _unreachable})
    with caplog.at_level(logging.WARNING, logger="fedprov.ledger.client"):
        with pytest.raises(TransportError, match="no node reachable for query"):
            none_reachable.get_history("21.P/x")
    assert [r.getMessage().split()[1] for r in caplog.records
            if r.name == "fedprov.ledger.client"] == ["OrgA", "OrgB"]


def test_a_query_moves_on_past_a_node_that_answers_with_an_error(fed, users, monkeypatch,
                                                                  caplog):
    """A node whose handler fails answers with an error, and the next node
    answers the read; with no answer, the last error comes back as its own
    type, and ``TransportError`` only when no node was reachable."""
    assert publish_raw(users["alice"]["ledger"], "21.P/x", "cas://x", "cx").ok

    def unreadable(pid):
        raise PermissionError("unreadable")

    monkeypatch.setattr(fed.nodes["OrgA"], "read", unreadable)
    with caplog.at_level(logging.WARNING, logger="fedprov.ledger.client"):
        assert users["alice"]["ledger"].hlf_read("21.P/x").checksum == "cx"
    (skipped,) = [r for r in caplog.records if r.name == "fedprov.ledger.client"]
    assert "OrgA" in skipped.getMessage() and "unreadable" in skipped.getMessage()

    def unknown(pid):
        raise UnknownPIDError(f"{pid} unknown here")

    monkeypatch.setattr(fed.nodes["OrgB"], "read", unknown)
    peers = {"OrgA": TcpTransport(fed.config.org_entry("OrgA").listen_address),
             "OrgB": TcpTransport(fed.config.org_entry("OrgB").listen_address),
             "Readers": _unreachable}
    with pytest.raises(UnknownPIDError, match="unknown here"):
        _client(fed, users["alice"], peers).hlf_read("21.P/x")


def test_racing_publishes_of_one_provenance_pid_commit_exactly_one(fed, users):
    """Both endorse against the same state; the read-set check at commit
    lets the first one through and refuses the second, which changes
    nothing."""
    alice = users["alice"]["ledger"]

    def envelope(artifact_pid):
        return alice.prepare(*publish_operation(
            artifact_pid, "cas://a", "ca", ["alice"], "21.P/shared", "cas://d", "cd"
        ))

    first, second = envelope("21.P/first"), envelope("21.P/second")
    assert alice.order(first).status == "VALID"
    before = fed.system_digest()
    assert alice.order(second).status == "INVALID:read-write-conflict"
    assert fed.system_digest() == before
    assert alice.hlf_read("21.P/second") is None
    assert alice.hlf_read("21.P/shared").checksum == "cd"
    assert len(set(fed.state_digests().values())) == 1


def test_racing_publishes_in_one_block_commit_exactly_one(fed, users):
    alice = users["alice"]["ledger"]
    envelopes = [
        alice.prepare(*publish_operation(
            f"21.P/a{i}", "cas://a", "ca", ["alice"], "21.P/shared", f"cas://d{i}", f"cd{i}"
        ))
        for i in range(2)
    ]
    statuses = sorted(receipt.status for receipt in order_in_one_block(fed, alice, envelopes))
    assert statuses == ["INVALID:read-write-conflict", "VALID"]
    created = [pid for pid in ("21.P/a0", "21.P/a1") if alice.hlf_read(pid) is not None]
    assert len(created) == 1


def _older_release_envelope(fed, user, kind, pid, args, timestamp, result) -> dict:
    """An ORDER-ready envelope of a transaction this release no longer
    simulates, as an older release's nodes endorsed it: *user* signs the
    body, that release's chaincode *result* is written out, and OrgA's node
    key from ``load_node_credentials`` signs the endorsement."""
    body = {
        "kind": kind,
        "pid": pid,
        "args": args,
        "creator": user["identity"].to_creator(),
        "timestamp": timestamp,
        "nonce": uuid.uuid4().hex,
    }
    tx_id = blocks.tx_id_for(body)
    node, node_key = load_node_credentials(fed.config, "OrgA")
    result_digest = chaincode.SimulationResult.from_dict(result).result_digest()
    endorsement = {
        "org": "OrgA",
        "node_id": node.user_id,
        "node_public_key": node.public_key,
        "node_certificate": node.certificate,
        "signature": crypto.sign(node_key, blocks.endorsement_payload(tx_id, result_digest)),
    }
    return {
        "tx_id": tx_id,
        "body": body,
        "signature": crypto.sign(user["key"], canonical_bytes(body)),
        "result": result,
        "endorsements": [endorsement],
    }


def _legacy_create(fed, user, kind, pid, uri, checksum) -> dict:
    """A ``create-artifact`` or ``create-prov`` envelope, endorsed as before."""
    timestamp = clock.now_iso()
    owners = [user["identity"].user_id]
    object_kind = (
        chaincode.KIND_ARTIFACT if kind == "create-artifact" else chaincode.KIND_PROVENANCE
    )
    value = LedgerValue(uri, checksum, 1, tuple(owners), timestamp, object_kind)
    result = {"message": chaincode.MSG_CREATED, "reads": {pid: None},
              "writes": {pid: value.to_dict()}}
    args = {"uri": uri, "checksum": checksum, "owners": owners}
    return _older_release_envelope(fed, user, kind, pid, args, timestamp, result)


def _parent_format_record(fed, record, uri, checksum, object_kind, version,
                          predecessor=None) -> str:
    """Rewrite the file of the reservation *record* as releases before
    ``new_pid`` wrote it, the record's place and content in it; the PID.

    Those releases wrote every record before this release's registry read
    any, so the reservations are made before any such update commits."""
    data = {**record, "target_uri": uri, "checksum": checksum, "object_kind": object_kind,
            "version_number": version, "predecessor": predecessor}
    path = fed.registry.records_dir / f"{record['pid'].rsplit('/', 1)[1]}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return record["pid"]


def _legacy_publish(fed, user, reserved, payload: bytes, doc) -> tuple[str, str, object]:
    """Publish as releases before the one-transaction ``publish`` did: two
    creates, endorsed apart and ordered one after the other. Returns both
    PIDs and the published document."""
    ctx = fed.client(user["identity"], user["key"])
    store, ledger = ctx.store(), ctx.ledger()
    uri, checksum, _ = store.store_bytes(payload)
    artifact_pid = _parent_format_record(fed, next(reserved), uri, checksum,
                                         chaincode.KIND_ARTIFACT, 1)
    filled = next(e for e in doc.entities if e.local_id == "e-out")
    doc = doc.with_entity(dataclasses.replace(filled, artifact_pid=artifact_pid,
                                              checksum=checksum))
    doc_uri, doc_checksum, _ = store.store_document(doc)
    prov_pid = _parent_format_record(fed, next(reserved), doc_uri, doc_checksum,
                                     chaincode.KIND_PROVENANCE, 1)
    envelopes = [
        _legacy_create(fed, user, "create-artifact", artifact_pid, uri, checksum),
        _legacy_create(fed, user, "create-prov", prov_pid, doc_uri, doc_checksum),
    ]
    assert [ledger.order(envelope).status for envelope in envelopes] == ["VALID", "VALID"]
    return artifact_pid, prov_pid, doc


def _legacy_update_prov(fed, user, reserved, key: str, predecessor: str, doc, note: str,
                        states_version: bool) -> tuple[str, object]:
    """Write the next version of the chain keyed *key*, *doc* enriched with
    *note*, as an ``update-prov`` without ``new_pid``: with ``version`` as
    the release before this one wrote it if *states_version*, else as the
    releases before that. Returns the new version's PID and document."""
    ctx = fed.client(user["identity"], user["key"])
    store, ledger = ctx.store(), ctx.ledger()
    doc = dataclasses.replace(doc, entities=[*doc.entities, ent(f"e-{note}", note)])
    uri, checksum, _ = store.store_document(doc)
    current = ledger.hlf_read(key)
    version = current.version + 1
    new_pid = _parent_format_record(fed, next(reserved), uri, checksum,
                                    chaincode.KIND_PROVENANCE, version, predecessor)
    timestamp = clock.now_iso()
    value = current.evolved(uri=uri, checksum=checksum, version=version, timestamp=timestamp)
    result = {"message": chaincode.MSG_UPDATED, "reads": {key: current.version},
              "writes": {key: value.to_dict()}}
    args = {"new_uri": uri, "new_checksum": checksum}
    if states_version:
        args["version"] = version
    envelope = _older_release_envelope(fed, user, chaincode.TX_UPDATE_PROV, key, args,
                                       timestamp, result)
    assert ledger.order(envelope).status == "VALID"
    return new_pid, doc


def test_legacy_two_create_ledger_replays_next_to_publish_transactions(tmp_path):
    """Older releases wrote two creates per publish and updates that named
    no PID, at first without a version. Commit, replay and audit apply the
    recorded write sets, and the registry finds such a version's PID in its
    record file, so such a chain keeps loading, resolving, verifying and
    taking updates next to the transactions of today."""
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        alice = register_default_users(fed)["alice"]
        ctx = fed.client(alice["identity"], alice["key"])
        reserved = iter([ctx.ledger().mint() for _ in range(4)])
        old_artifact, old_prov, doc = _legacy_publish(fed, alice, reserved, b"old\n",
                                                      simple_doc())
        old_v2, doc = _legacy_update_prov(fed, alice, reserved, old_prov, old_prov, doc,
                                          "note", states_version=False)
        old_v3, doc = _legacy_update_prov(fed, alice, reserved, old_prov, old_v2, doc,
                                          "calibration", states_version=True)
        doc = dataclasses.replace(doc, entities=[*doc.entities, ent("e-today", "today")])
        old_v4 = ctx.updater().update(old_v3, doc, alice["identity"]).new_pid
        derived = simple_doc().with_entity(ent("e-in", "input", artifact_pid=old_artifact))
        new = ctx.updater().publish(b"new\n", derived, alice["identity"])
        digests = fed.state_digests()
    finally:
        fed.stop()

    fed = Federation.start(fed.config_path)
    try:
        assert fed.state_digests() == digests
        chain = cli.federation_verify_chain(fed.client())
        assert chain["all_clear"] and chain["consistent"]
        reader = fed.client()
        versions = [old_prov, old_v2, old_v3, old_v4]
        kinds = {}
        for pid in (old_artifact, *versions, new["artifact_pid"], new["prov_pid"]):
            body = cli.verify_pid(reader, pid)
            assert body["result"] == "VERIFIED", pid
            kinds[pid] = [entry["kind"] for entry in body["ledger_history"]]
        assert kinds[old_artifact] == ["create-artifact"]
        for pid in versions:
            assert kinds[pid] == ["create-prov"] + 3 * [chaincode.TX_UPDATE_PROV]
        assert kinds[new["artifact_pid"]] == kinds[new["prov_pid"]] == [chaincode.TX_PUBLISH]
        for pid in versions:
            history = reader.ledger().version_history(pid)
            assert [(r["pid"], r["version_number"]) for r in history] == [
                (member, number) for number, member in enumerate(versions, 1)
            ]
        paths = cli.trace_artifact(reader, new["artifact_pid"])["paths"]
        assert [[step["artifact"] for step in path["steps"][0::2]] for path in paths] == [
            [new["artifact_pid"], old_artifact]
        ]
        assert paths[0]["steps"][1]["attested_by"]["doc_pid"] == new["prov_pid"]
        assert cli.trace_artifact(reader, old_artifact)["pid"] == old_artifact
    finally:
        fed.stop()
