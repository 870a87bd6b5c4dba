"""The endorse/order/commit pipeline: policies, conflicts, replication."""

from __future__ import annotations

import itertools

import pytest

from conftest import publish_raw
from fedprov import identity as identity_mod
from fedprov.errors import (
    EndorsementPolicyUnmetError,
    SimulationDivergenceError,
)
from fedprov.harness import Federation
from fedprov.ledger import chaincode
from fedprov.ledger.chaincode import simulate
from fedprov.ledger.client import LedgerClient
from fedprov.ledger.policy import POLICY_ALL, POLICY_MAJORITY, policy_satisfied
from fedprov.ledger.values import LedgerValue
from fedprov.transport import DirectTransport


def test_happy_path_create_commits_everywhere(fed, users):
    receipt = publish_raw(users["alice"]["ledger"], "21.P/x", "cas://x", "cx")
    assert receipt.status == "VALID"
    assert receipt.height >= 1
    digests = set(fed.state_digests().values())
    assert len(digests) == 1
    for node in fed.nodes.values():
        assert node.read("21.P/x")["checksum"] == "cx"


def test_receipt_carries_tx_id_and_height(fed, users):
    receipt = publish_raw(users["alice"]["ledger"], "21.P/x", "cas://x", "cx")
    assert len(receipt.tx_id) == 64
    entries = users["alice"]["ledger"].get_history("21.P/x")
    assert entries[0]["height"] == receipt.height


def test_consumer_only_endorsement_fails_policy(fed, users):
    """A proposal endorsed only by the read-only org cannot satisfy any policy."""
    alice = users["alice"]["ledger"]
    consumer_only = LedgerClient(
        identity=users["alice"]["identity"],
        private_key=users["alice"]["key"],
        peer_transports={"Readers": DirectTransport(fed.services["Readers"].handle)},
        orderer_transport=fed.transport(fed.config.orderer_org().listen_address),
        orgs=fed.config.orgs_map(),
        endorsement_policy=fed.config.endorsement_policy,
    )
    with pytest.raises(EndorsementPolicyUnmetError):
        publish_raw(consumer_only, "21.P/x", "cas://x", "cx")
    assert alice.hlf_read("21.P/x") is None


def test_policy_rules_counting():
    orgs = {
        "A": identity_mod.Organization("A", "producer", "00"),
        "B": identity_mod.Organization("B", "producer", "00"),
        "C": identity_mod.Organization("C", "producer", "00"),
        "R": identity_mod.Organization("R", "consumer-read-only", "00"),
    }
    assert policy_satisfied({"A"}, orgs, "any-one-producer-org")
    assert not policy_satisfied({"R"}, orgs, "any-one-producer-org")
    assert not policy_satisfied({"A"}, orgs, POLICY_MAJORITY)
    assert policy_satisfied({"A", "B"}, orgs, POLICY_MAJORITY)
    assert not policy_satisfied({"A", "B", "R"}, orgs, POLICY_ALL)
    assert policy_satisfied({"A", "B", "C"}, orgs, POLICY_ALL)


def test_majority_policy_federation(tmp_path):
    fed = Federation.bootstrap(
        tmp_path / "fed",
        orgs=(("OrgA", "producer"), ("OrgB", "producer"), ("OrgC", "producer"),
              ("Readers", "consumer-read-only")),
        endorsement_policy=POLICY_MAJORITY,
    )
    try:
        alice, key = fed.register_user("OrgA", "alice")
        client = fed.client(alice, key).ledger()
        receipt = publish_raw(client, "21.P/x", "cas://x", "cx")
        assert receipt.status == "VALID"
        # Drop to a single reachable producer: majority of 3 is unreachable.
        lone = LedgerClient(
            identity=alice,
            private_key=key,
            peer_transports={"OrgA": DirectTransport(fed.services["OrgA"].handle)},
            orderer_transport=fed.transport(fed.config.orderer_org().listen_address),
            orgs=fed.config.orgs_map(),
            endorsement_policy=POLICY_MAJORITY,
        )
        with pytest.raises(EndorsementPolicyUnmetError):
            publish_raw(lone, "21.P/y", "cas://y", "cy")
    finally:
        fed.stop()


def test_simulation_divergence_detected(fed, users):
    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/x", "cas://x", "cx").ok
    # Corrupt one node's world state out-of-band.
    rogue_value = fed.nodes["OrgB"].state.get("21.P/x").evolved(checksum="tampered")
    fed.nodes["OrgB"].state.put("21.P/x", rogue_value)
    with pytest.raises(SimulationDivergenceError):
        alice.hlf_invalidate("21.P/x")


def test_concurrent_updates_one_wins(fed, users):
    """Two updates endorsed against the same snapshot: one VALID, one conflict."""
    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/p-artifact", prov=("21.P/p", "cas://1", "c1")).ok

    import uuid

    from fedprov import clock, crypto
    from fedprov.canonical import canonical_bytes

    def endorsed_envelope(new_checksum):
        body = {
            "kind": "update-prov",
            "pid": "21.P/p",
            "args": {"new_uri": f"cas://{new_checksum}", "new_checksum": new_checksum,
                     "version": 2},
            "creator": {
                "user_id": "alice",
                "org": "OrgA",
                "public_key": users["alice"]["identity"].public_key,
                "certificate": users["alice"]["identity"].certificate,
            },
            "timestamp": clock.now_iso(),
            "nonce": uuid.uuid4().hex,
        }
        signature = crypto.sign(users["alice"]["key"], canonical_bytes(body))
        return alice.endorse(body, signature)

    first = endorsed_envelope("c2a")
    second = endorsed_envelope("c2b")  # same read snapshot as first
    receipt_one = alice.order(first)
    receipt_two = alice.order(second)
    statuses = sorted([receipt_one.status, receipt_two.status])
    assert statuses[0] == "INVALID:read-write-conflict"
    assert statuses[1] == "VALID"
    assert alice.hlf_read("21.P/p").version == 2


def test_serializability_against_permutation_oracle(fed, users):
    """Committed state equals a serial execution of the VALID-committed txs."""
    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/p-artifact", prov=("21.P/p", "cas://0", "c0")).ok
    assert publish_raw(alice, "21.P/q-artifact", prov=("21.P/q", "cas://0", "d0")).ok

    import uuid

    from fedprov import clock, crypto
    from fedprov.canonical import canonical_bytes

    def envelope(pid, checksum):
        body = {
            "kind": "update-prov",
            "pid": pid,
            "args": {"new_uri": f"cas://{checksum}", "new_checksum": checksum,
                     "version": 2},
            "creator": {
                "user_id": "alice",
                "org": "OrgA",
                "public_key": users["alice"]["identity"].public_key,
                "certificate": users["alice"]["identity"].certificate,
            },
            "timestamp": clock.now_iso(),
            "nonce": uuid.uuid4().hex,
        }
        signature = crypto.sign(users["alice"]["key"], canonical_bytes(body))
        return alice.endorse(body, signature)

    snapshot = {pid: LedgerValue.from_dict(v) for pid, v in alice.state_dump().items()}
    envelopes = [
        envelope("21.P/p", "c1"),
        envelope("21.P/p", "c2"),
        envelope("21.P/p", "c3"),
        envelope("21.P/q", "d1"),
        envelope("21.P/q", "d2"),
        envelope("21.P/q", "d3"),
    ]
    receipts = [alice.order(env) for env in envelopes]
    valid = [env for env, r in zip(envelopes, receipts) if r.status == "VALID"]
    final = alice.state_dump()

    orgs = fed.config.orgs_map()

    def serial_replay(order):
        state = dict(snapshot)
        for env in order:
            result = simulate(env["body"], orgs, state.get)
            if result.ok:
                for pid, value in result.writes.items():
                    state[pid] = LedgerValue.from_dict(value)
        return {pid: value.to_dict() for pid, value in sorted(state.items())}

    assert any(
        serial_replay(order) == final for order in itertools.permutations(valid)
    )


def test_skewed_timestamp_rejected(fed, users):
    from fedprov.errors import LedgerRejectedError

    with pytest.raises(LedgerRejectedError):
        publish_raw(users["alice"]["ledger"], "21.P/x", "cas://x", "cx",
                    timestamp="1999-01-01T00:00:00.000Z")


def test_get_history_versions_monotonic(fed, users):
    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/p-artifact", prov=("21.P/p", "cas://1", "c1")).ok
    assert alice.hlf_update_prov("21.P/p", "cas://2", "c2", 2).ok
    assert alice.hlf_update_prov("21.P/p", "cas://3", "c3", 3).ok
    entries = alice.get_history("21.P/p")
    assert [e["value"]["version"] for e in entries] == [1, 2, 3]
    assert [e["kind"] for e in entries] == ["publish", "update-prov", "update-prov"]


def test_get_history_unknown_pid_empty(fed, users):
    assert users["alice"]["ledger"].get_history("21.P/none") == []


def test_history_includes_final_invalidation(fed, users):
    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/a", "cas://a", "ca").ok
    assert alice.hlf_invalidate("21.P/a").ok
    entries = alice.get_history("21.P/a")
    assert entries[-1]["kind"] == "invalidate-artifact"
    assert entries[-1]["value"]["status"] == "invalidated"


def test_node_restart_replays_state(fed, users):
    from fedprov.ledger.node import OrgNode

    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/a", "cas://a", "ca").ok
    assert alice.hlf_invalidate("21.P/a").ok
    original = fed.nodes["OrgA"]
    reopened = OrgNode(
        org_name="OrgA",
        node_identity=original.node_identity,
        node_private_key="00" * 32,  # replay only; no signing needed
        orgs=original.orgs,
        endorsement_policy=original.endorsement_policy,
        ledger_path=original.store.path,
    )
    assert reopened.state_digest() == original.state_digest()
    assert reopened.height() == original.height()


def test_rejected_proposals_cut_no_block(fed, users):
    height_before = fed.nodes["OrgA"].height()
    receipt = publish_raw(users["ruth"]["ledger"], "21.P/x", "cas://x", "cx", ["ruth"])
    assert receipt.status == "REJECTED"
    assert receipt.message == chaincode.MSG_UNAUTHORIZED
    assert fed.nodes["OrgA"].height() == height_before


def test_batching_groups_transactions(tmp_path):
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        alice, key = fed.register_user("OrgA", "alice")
        client = fed.client(alice, key).ledger()
        import threading

        receipts = []
        lock = threading.Lock()

        def submit(i):
            r = publish_raw(client, f"21.P/{i}", f"cas://{i}", f"c{i}")
            with lock:
                receipts.append(r)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.status == "VALID" for r in receipts)
        heights = {r.height for r in receipts}
        # Six near-simultaneous submissions share far fewer than six blocks.
        assert len(heights) < 6
    finally:
        fed.stop()


def test_lone_write_does_not_wait_for_a_batch_timeout(tmp_path):
    """A config written before group commit still loads, and one write on an
    idle orderer is cut at once instead of after its old 500 ms timeout."""
    import json
    import time

    fed = Federation.bootstrap(tmp_path / "fed")
    fed.stop()
    config = json.loads(fed.config_path.read_text())
    config["block-timeout-ms"] = 500
    fed.config_path.write_text(json.dumps(config))
    fed = Federation.start(fed.config_path)
    try:
        alice, key = fed.register_user("OrgA", "alice")
        ledger = fed.client(alice, key).ledger()
        started = time.monotonic()
        receipt = publish_raw(ledger, "21.P/lone", "cas://lone", "cl")
        elapsed = time.monotonic() - started
    finally:
        fed.stop()
    assert receipt.status == "VALID"
    assert elapsed < 0.25


@pytest.mark.parametrize("forged_position", [0, 1], ids=["forged-first", "forged-second"])
def test_order_with_one_forged_envelope_queues_neither(fed, users, forged_position):
    """One ORDER request is checked whole before anything is queued."""
    from fedprov.errors import LedgerRejectedError

    alice = users["alice"]["ledger"]
    good = _endorsed(users["alice"], "21.P/g", "good")
    forged = _endorsed(users["alice"], "21.P/f", "forged")
    _replaced_client_signature(forged, users["alice"])
    envelopes = [good]
    envelopes.insert(forged_position, forged)
    before = _heights(fed)

    with pytest.raises(LedgerRejectedError, match="client signature invalid"):
        _bounded(lambda: alice.order_all(envelopes))
    assert _heights(fed) == before
    assert alice.hlf_read("21.P/g") is None
    assert _bounded(lambda: alice.order(good)).status == "VALID"
    assert _all_clear(fed)


def _bounded(call, timeout_s=10.0):
    """Run *call* on a daemon thread; fail instead of hanging if it never returns.

    What *call* raises is raised here.
    """
    import threading

    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except Exception as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout_s)
    assert not worker.is_alive(), "no answer: the ordering service stopped"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _endorsed(user, pid, nonce):
    """A normally endorsed ``publish`` envelope, not yet ordered."""
    from fedprov import clock, crypto
    from fedprov.canonical import canonical_bytes

    body = {
        "kind": chaincode.TX_PUBLISH,
        "pid": pid,
        "args": {"uri": f"cas://{pid}", "checksum": "c", "owners": [user["identity"].user_id],
                 "provenance": {"pid": f"{pid}/prov", "uri": "cas://doc", "checksum": "c-doc"}},
        "creator": user["identity"].to_creator(),
        "timestamp": clock.now_iso(),
        "nonce": nonce,
    }
    return user["ledger"].endorse(body, crypto.sign(user["key"], canonical_bytes(body)))


def _heights(fed):
    return {org: node.height() for org, node in fed.nodes.items()}


def _all_clear(fed):
    return all(node.verify_chain()["ok"] for node in fed.nodes.values())


def test_null_endorsement_signature_rejected_and_orderer_survives(fed, users):
    """A malformed envelope is refused at ORDER; writers after it commit."""
    from fedprov.errors import LedgerRejectedError

    alice = users["alice"]["ledger"]
    envelope = _endorsed(users["alice"], "21.P/m", "null-signature")
    _null_endorsement_signatures(envelope, users["alice"])

    with pytest.raises(LedgerRejectedError, match="endorsement signature invalid"):
        _bounded(lambda: alice.order(envelope))
    assert alice.hlf_read("21.P/m") is None
    after = _bounded(lambda: publish_raw(alice, "21.P/n", "cas://n", "cn"))
    assert after.ok
    assert len(set(fed.state_digests().values())) == 1
    assert _all_clear(fed)


def _null_endorsement_signatures(envelope, user):
    for endorsement in envelope["endorsements"]:
        endorsement["signature"] = None


def _replaced_client_signature(envelope, user):
    from fedprov import crypto

    envelope["signature"] = crypto.sign(user["key"], b"some other message")


def _body_changed_under_tx_id(envelope, user):
    from fedprov import crypto
    from fedprov.canonical import canonical_bytes

    envelope["body"]["args"]["checksum"] = "forged"
    envelope["signature"] = crypto.sign(user["key"], canonical_bytes(envelope["body"]))


def _extra_bad_endorsement(envelope, user):
    extra = dict(envelope["endorsements"][0])
    extra["signature"] = "00" * 64
    envelope["endorsements"].append(extra)


def _endorsements_not_objects(envelope, user):
    envelope["endorsements"] = ["x"]


def _no_result(envelope, user):
    del envelope["result"]


def _note_in_result(envelope, user):
    envelope["result"]["note"] = "uncovered"


def _note_in_endorsement(envelope, user):
    envelope["endorsements"][0]["note"] = "uncovered"


def _note_as_tx_key(envelope, user):
    envelope["note"] = "uncovered"


def _validation_in_envelope(envelope, user):
    envelope["validation"] = "VALID"


@pytest.mark.parametrize(
    "forge, finding",
    [
        (_null_endorsement_signatures, "endorsement signature invalid"),
        (_replaced_client_signature, "client signature invalid"),
        (_body_changed_under_tx_id, "tx_id does not match body"),
        (_extra_bad_endorsement, "endorsement signature invalid"),
        (_endorsements_not_objects, "malformed transaction"),
        (_no_result, "malformed transaction"),
        (_note_in_result, r"result carries uncovered keys \['note'\]"),
        (_note_in_endorsement, r"endorsement carries uncovered keys \['note'\]"),
        (_note_as_tx_key, r"transaction carries uncovered keys \['note'\]"),
        (_validation_in_envelope, r"transaction carries uncovered keys \['validation'\]"),
    ],
    ids=["null-endorsement-signatures", "replaced-client-signature",
         "body-changed-under-tx-id", "extra-bad-endorsement",
         "endorsements-not-objects", "no-result", "note-in-result",
         "note-in-endorsement", "note-as-tx-key", "validation-in-envelope"],
)
def test_forged_envelope_refused_at_order(fed, users, forge, finding):
    """An endorsed envelope edited before ORDER never reaches a block.

    Replicas would otherwise commit it and every chain audit would flag it.
    """
    from fedprov.errors import LedgerRejectedError

    alice = users["alice"]["ledger"]
    envelope = _endorsed(users["alice"], "21.P/f", "forged")
    forge(envelope, users["alice"])
    before = _heights(fed)

    with pytest.raises(LedgerRejectedError, match=finding):
        _bounded(lambda: alice.order(envelope))
    assert _heights(fed) == before
    after = _bounded(lambda: publish_raw(alice, "21.P/n", "cas://n", "cn"))
    assert after.status == "VALID"
    assert _heights(fed) == {org: height + 1 for org, height in before.items()}
    assert _all_clear(fed)


def test_orderer_survives_peer_failing_with_plain_error(fed, users):
    """A peer whose COMMIT fails with any FedprovError misses the block; the
    others commit it and the orderer keeps serving."""
    from fedprov.errors import FedprovError

    def failing(kind, payload):
        raise FedprovError("internal error: 'str' object has no attribute 'get'")

    alice = users["alice"]["ledger"]
    fed.orderer.peers["OrgB"] = failing
    before = _heights(fed)
    first = _bounded(lambda: publish_raw(alice, "21.P/a", "cas://a", "ca"))
    assert first.status == "VALID"
    assert _heights(fed) == {org: height + (org != "OrgB") for org, height in before.items()}
    after = _bounded(lambda: publish_raw(alice, "21.P/b", "cas://b", "cb"))
    assert after.status == "VALID"


def test_orderer_logs_the_peer_that_missed_a_block(fed, users, caplog):
    from fedprov.errors import TransportError

    def unreachable(kind, payload):
        raise TransportError("cannot reach 127.0.0.1:9: refused")

    fed.orderer.peers["OrgB"] = unreachable
    height = fed.nodes["OrgA"].height()
    with caplog.at_level("WARNING", logger="fedprov.ledger.ordering"):
        receipt = _bounded(lambda: publish_raw(users["alice"]["ledger"], "21.P/a", "cas://a", "ca"))
    assert receipt.status == "VALID"
    [record] = [r for r in caplog.records if r.name == "fedprov.ledger.ordering"]
    assert record.levelname == "WARNING"
    assert record.getMessage() == (
        f"OrgB missed block {height + 1}: cannot reach 127.0.0.1:9: refused")

def _block_of(fed, envelope):
    """*envelope* as the next block, the way the orderer would cut it."""
    from fedprov.ledger.blocks import make_block

    tx = {**envelope, "validation": None}
    tip = fed.nodes["OrgA"].blocks[-1]
    return make_block(tip.height + 1, tip.block_hash, [tx]).to_dict()


def _data_hash_mismatch(fed, users):
    from fedprov.ledger.blocks import compute_block_hash, compute_data_hash

    block = _block_of(fed, _endorsed(users["alice"], "21.P/d", "data-hash"))
    block["data_hash"] = compute_data_hash([])
    block["block_hash"] = compute_block_hash(block["height"], block["prev_hash"], block["data_hash"])
    return block


def _body_changed_in_block(fed, users):
    envelope = _endorsed(users["alice"], "21.P/d", "changed-body")
    _body_changed_under_tx_id(envelope, users["alice"])
    return _block_of(fed, envelope)


def _block_without_header(fed, users):
    return {"height": fed.nodes["OrgA"].height() + 1, "transactions": []}


def _uncovered_key_in_block(fed, users):
    envelope = _endorsed(users["alice"], "21.P/d", "uncovered-key")
    _note_in_result(envelope, users["alice"])
    return _block_of(fed, envelope)


@pytest.mark.parametrize(
    "build, finding",
    [(_data_hash_mismatch, "data_hash does not match"),
     (_body_changed_in_block, "tx_id does not match body"),
     (_block_without_header, "malformed block structure"),
     (_uncovered_key_in_block, "result carries uncovered keys")],
    ids=["data-hash-mismatch", "body-changed-under-tx-id", "block-without-header",
         "uncovered-key"],
)
def test_commit_refuses_what_the_audit_flags(fed, users, build, finding):
    from fedprov.errors import LedgerRejectedError

    assert publish_raw(users["alice"]["ledger"], "21.P/a", "cas://a", "ca").ok
    block = build(fed, users)
    for node in fed.nodes.values():
        height, digest = node.height(), node.state_digest()
        with pytest.raises(LedgerRejectedError, match=finding):
            node.commit(block)
        assert (node.height(), node.state_digest()) == (height, digest)
    assert _all_clear(fed)


def test_node_refuses_to_start_on_a_tampered_ledger(fed, users, tmp_path):
    from fedprov.errors import LedgerRejectedError
    from fedprov.ledger.node import OrgNode

    alice = users["alice"]["ledger"]
    for i in range(4):
        assert publish_raw(alice, f"21.P/{i}", f"cas://{i}", f"c{i}").ok
    original = fed.nodes["OrgA"]
    lines = original.store.path.read_bytes().split(b"\n")
    target_height = 3
    line = bytearray(lines[target_height])
    line[line.find(b"cas://") + 6] ^= 0x01
    lines[target_height] = bytes(line)
    tampered = tmp_path / "tampered" / "ledger.jsonl"
    tampered.parent.mkdir()
    tampered.write_bytes(b"\n".join(lines))

    with pytest.raises(LedgerRejectedError, match=f"at height {target_height}:"):
        OrgNode(
            org_name="OrgA",
            node_identity=original.node_identity,
            node_private_key="00" * 32,
            orgs=original.orgs,
            endorsement_policy=original.endorsement_policy,
            ledger_path=tampered,
        )


def test_ledger_client_without_credentials_reads_but_cannot_submit(fed, users):
    from fedprov.errors import UnauthorizedError

    assert publish_raw(users["alice"]["ledger"], "21.P/r", "cas://r", "cr").ok
    anonymous = fed.client().ledger()
    assert anonymous.hlf_read("21.P/r").checksum == "cr"
    height = fed.nodes["OrgA"].height()
    with pytest.raises(UnauthorizedError):
        publish_raw(anonymous, "21.P/s", "cas://s", "cs")
    assert fed.nodes["OrgA"].height() == height
