"""One ``publish`` transaction, endorsed by the producer organizations only.

A publish creates its artifact record and its provenance record in one
ledger transaction. PROPOSE goes to producer nodes only; the read-only node
still commits every block. Ledgers that recorded publishes as two creates
keep replaying and verifying next to the new transactions.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import ent, register_default_users, simple_doc
from fedprov import cli
from fedprov.errors import TransportError, UnauthorizedError
from fedprov.harness import Federation
from fedprov.ledger import chaincode
from fedprov.ledger.client import LedgerClient, create_operation, publish_operation
from fedprov.transport import DirectTransport


def test_read_only_node_gets_no_proposal_but_commits_every_block(fed, users, monkeypatch):
    readers = fed.services["Readers"]
    real_handle = readers.handle
    received = []

    def handle(kind, payload):
        received.append(kind)
        return real_handle(kind, payload)

    monkeypatch.setattr(readers, "handle", handle)
    alice = users["alice"]
    body = fed.client(alice["identity"], alice["key"]).updater().publish(
        b"a,b\n1,2\n", simple_doc(), alice["identity"]
    )
    assert body["receipts"]["artifact"]["status"] == "VALID"
    assert "PROPOSE" not in received
    assert "COMMIT" in received
    assert len({node.height() for node in fed.nodes.values()}) == 1
    assert len(set(fed.state_digests().values())) == 1


def _client(fed, user, peers):
    return LedgerClient(
        identity=user["identity"],
        private_key=user["key"],
        peer_transports=peers,
        orderer_transport=fed.transport(fed.config.orderer_org().listen_address),
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
        client.hlf_create("21.P/x", "cas://x", "cx", ["alice"], "artifact")


def test_one_refusing_producer_does_not_block_the_other(fed, users):
    org_b = fed.services["OrgB"]
    peers = {"OrgA": _refusing, "OrgB": DirectTransport(org_b.handle)}
    receipt = _client(fed, users["alice"], peers).hlf_create(
        "21.P/x", "cas://x", "cx", ["alice"], "artifact"
    )
    assert receipt.status == "VALID"


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
    statuses = sorted(receipt.status for receipt in alice.order_all(envelopes))
    assert statuses == ["INVALID:read-write-conflict", "VALID"]
    created = [pid for pid in ("21.P/a0", "21.P/a1") if alice.hlf_read(pid) is not None]
    assert len(created) == 1


def _legacy_publish(ctx, identity, payload: bytes, doc) -> tuple[str, str]:
    """Publish as releases before the one-transaction ``publish`` did: two
    creates, endorsed apart and ordered in one ORDER request."""
    store, registry, ledger = ctx.store(), ctx.registry(), ctx.ledger()
    uri, checksum, _ = store.store_bytes(payload)
    artifact_pid = registry.mint("artifact", uri, checksum)["pid"]
    filled = next(e for e in doc.entities if e.local_id == "e-out")
    doc = doc.with_entity(dataclasses.replace(filled, artifact_pid=artifact_pid,
                                              checksum=checksum))
    doc_uri, doc_checksum, _ = store.store_document(doc)
    prov_pid = registry.mint("provenance-record", doc_uri, doc_checksum)["pid"]
    owners = [identity.user_id]
    envelopes = [
        ledger.prepare(*create_operation(artifact_pid, uri, checksum, owners, "artifact")),
        ledger.prepare(*create_operation(prov_pid, doc_uri, doc_checksum, owners,
                                         "provenance-record")),
    ]
    assert [r.status for r in ledger.order_all(envelopes)] == ["VALID", "VALID"]
    return artifact_pid, prov_pid


def test_legacy_two_create_ledger_replays_next_to_publish_transactions(tmp_path):
    fed = Federation.bootstrap(tmp_path / "fed", use_tcp=True)
    try:
        alice = register_default_users(fed)["alice"]
        ctx = fed.client(alice["identity"], alice["key"])
        old_artifact, old_prov = _legacy_publish(ctx, alice["identity"], b"old\n", simple_doc())
        derived = simple_doc().with_entity(ent("e-in", "input", artifact_pid=old_artifact))
        new = ctx.updater().publish(b"new\n", derived, alice["identity"])
        digests = fed.state_digests()
    finally:
        fed.stop()

    fed = Federation.start(fed.config_path, use_tcp=True)
    try:
        assert fed.state_digests() == digests
        chain = cli.federation_verify_chain(str(fed.config_path))
        assert chain["all_clear"] and chain["consistent"]
        reader = fed.client()
        kinds = {}
        for pid in (old_artifact, old_prov, new["artifact_pid"], new["prov_pid"]):
            body = cli.verify_pid(reader, pid)
            assert body["result"] == "VERIFIED", pid
            kinds[pid] = body["ledger_history"][0]["kind"]
        assert kinds == {
            old_artifact: chaincode.TX_CREATE_ARTIFACT,
            old_prov: chaincode.TX_CREATE_PROV,
            new["artifact_pid"]: chaincode.TX_PUBLISH,
            new["prov_pid"]: chaincode.TX_PUBLISH,
        }
        paths = cli.trace_artifact(reader, new["artifact_pid"])["paths"]
        assert [[step["artifact"] for step in path["steps"][0::2]] for path in paths] == [
            [new["artifact_pid"], old_artifact]
        ]
        assert paths[0]["steps"][1]["attested_by"]["doc_pid"] == new["prov_pid"]
        assert cli.trace_artifact(reader, old_artifact)["pid"] == old_artifact
    finally:
        fed.stop()
