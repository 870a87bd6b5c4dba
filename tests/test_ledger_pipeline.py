"""The endorse/order/commit pipeline: policies, conflicts, replication."""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from conftest import publish_raw, register_default_users
from fedprov import identity as identity_mod
from fedprov.canonical import canonical_bytes
from fedprov.errors import (
    EndorsementPolicyUnmetError,
    SimulationDivergenceError,
)
from fedprov.harness import Federation
from fedprov.ledger import chaincode, node as node_mod
from fedprov.ledger.blocks import validate_tx
from fedprov.ledger.chaincode import simulate
from fedprov.ledger.client import LedgerClient, publish_operation
from fedprov.ledger.policy import POLICY_ALL, POLICY_MAJORITY, policy_satisfied
from fedprov.ledger.values import LedgerValue
from fedprov.transport import TcpTransport


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
        peer_transports={"Readers": TcpTransport(fed.config.org_entry("Readers").listen_address)},
        orderer_transport=TcpTransport(fed.config.orderer_org().listen_address),
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
            peer_transports={"OrgA": TcpTransport(fed.config.org_entry("OrgA").listen_address)},
            orderer_transport=TcpTransport(fed.config.orderer_org().listen_address),
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
    node = fed.nodes["OrgB"]
    node.view = node.view._replace(
        state={**node.state, "21.P/x": node.state["21.P/x"].evolved(checksum="tampered")})
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
                     "version": 2, "new_pid": f"21.P/{new_checksum}"},
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
                     "version": 2, "new_pid": f"21.P/{checksum}"},
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
    assert alice.hlf_update_prov("21.P/p", "cas://2", "c2", 2, "21.P/p2").ok
    assert alice.hlf_update_prov("21.P/p", "cas://3", "c3", 3, "21.P/p3").ok
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


def test_history_reads_only_the_blocks_that_wrote_the_key(fed, users, monkeypatch):
    from fedprov.ledger.node import OrgNode

    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/a", "cas://a", "ca").ok
    assert publish_raw(alice, "21.P/b", "cas://b", "cb").ok
    assert alice.hlf_invalidate("21.P/a").ok
    node = fed.nodes["OrgA"]
    read = []
    block = OrgNode.block
    monkeypatch.setattr(OrgNode, "block", lambda self, height: read.append(height)
                        or block(self, height))
    entries = node.history("21.P/a")
    assert [entry["height"] for entry in entries] == read == [node.height() - 2, node.height()]
    assert [entry["kind"] for entry in entries] == ["publish", "invalidate-artifact"]


def test_commit_refuses_a_block_not_after_the_tip(fed, users):
    """``validate_block`` alone refuses a block at a committed height, past
    the next one, after another predecessor, or whose stored flags differ
    from the ones replay computes; the node is left as it was."""
    from fedprov.errors import LedgerRejectedError
    from fedprov.ledger.blocks import make_block

    alice = users["alice"]["ledger"]
    # Both endorsed against the same state, so the second meets the first's write.
    first, second = (_endorsed(users["alice"], "21.P/a", nonce) for nonce in ("1", "2"))
    assert alice.order(first).ok
    assert alice.order(second).status == "INVALID:read-write-conflict"
    assert publish_raw(alice, "21.P/b", "cas://b", "cb").ok
    node = fed.nodes["OrgB"]
    tip, tip_hash, digest = node.height(), node.tip_hash(), node.state_digest()
    conflicting = node.block(tip - 1).transactions[0]
    refused = [
        (node.block(tip).to_dict(), f"height field {tip} at position {tip + 1}"),
        (make_block(tip + 2, tip_hash, []).to_dict(), f"height field {tip + 2} at position"),
        (make_block(tip + 1, "0" * 64, []).to_dict(), "prev_hash does not match"),
        (make_block(tip + 1, tip_hash, [{**conflicting, "validation": "VALID"}]).to_dict(),
         "stored validation 'VALID', replay says 'INVALID:read-write-conflict'"),
    ]
    for block, finding in refused:
        with pytest.raises(LedgerRejectedError, match=finding):
            node.commit(block)
    assert (node.height(), node.state_digest()) == (tip, digest)
    assert node.verify_chain()["ok"]


def test_reads_refuse_a_line_changed_after_commit(fed, users):
    """A committed block is read back only with the bytes the node validated."""
    from fedprov.errors import LedgerRejectedError

    assert publish_raw(users["alice"]["ledger"], "21.P/a", "cas://a", "ca").ok
    node = fed.nodes["OrgA"]  # the orderer's, which answers the replicas' pulls
    height = node.height()
    payload = bytearray(node.store.path.read_bytes())
    payload[payload.find(b"cas://a") + len(b"cas://")] ^= 0x01
    node.store.path.write_bytes(bytes(payload))
    with pytest.raises(LedgerRejectedError, match=f"block {height}"):
        node.history("21.P/a")
    with pytest.raises(LedgerRejectedError, match=f"block {height}"):
        fed.orderer.pull("OrgB", height)


def test_rejected_proposals_cut_no_block(fed, users):
    height_before = fed.nodes["OrgA"].height()
    receipt = publish_raw(users["ruth"]["ledger"], "21.P/x", "cas://x", "cx", ["ruth"])
    assert receipt.status == "REJECTED"
    assert receipt.message == chaincode.MSG_UNAUTHORIZED
    assert fed.nodes["OrgA"].height() == height_before


def test_batching_groups_transactions(tmp_path, monkeypatch):
    """Envelopes that queue while a block is being delivered share the next one."""
    from fedprov.ledger import ordering

    monkeypatch.setattr(ordering, "ACK_TIMEOUT_S", 10.0)  # OrgB stays in sync while held
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        alice, key = fed.register_user("OrgA", "alice")
        client = fed.client(alice, key).ledger()
        first_height = fed.nodes["OrgA"].height() + 1
        delivering, gate = threading.Event(), threading.Event()
        # The orderer waits for OrgB to pull past the first block, and OrgB
        # holds its commit of it until five more envelopes are queued.
        _hold_commit(fed.nodes["OrgB"], first_height, delivering, gate)
        receipts = {}

        def submit(i):
            receipts[i] = publish_raw(client, f"21.P/{i}", f"cas://{i}", f"c{i}")

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
        threads[0].start()
        assert delivering.wait(10)
        for t in threads[1:]:
            t.start()
        deadline = time.monotonic() + 10
        while len(fed.orderer._queue) < 5 and time.monotonic() < deadline:
            time.sleep(0.005)
        gate.set()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert all(r.status == "VALID" for r in receipts.values())
        heights = {r.height for r in receipts.values()}
        assert len(heights) < 6
        # The five held back behind the first block went into one block.
        assert receipts[0].height == first_height
        assert len({receipts[i].height for i in range(1, 6)}) == 1
    finally:
        fed.stop()


def _hold_commit(node, height, holding, release):
    """Make *node* set *holding*, then wait for *release*, before it commits
    the block at *height*."""
    commit = node.commit

    def held(block):
        if block["height"] == height:
            holding.set()
            release.wait(10)
        return commit(block)

    node.commit = held


def test_duplicate_tx_id_refused_at_order(fed, users):
    """An envelope whose transaction id is committed or queued is refused at
    ORDER (exit 12), and no height moves."""
    from fedprov import cli
    from fedprov.errors import LedgerRejectedError

    alice = users["alice"]["ledger"]
    envelope = _endorsed(users["alice"], "21.P/d", "once")
    assert alice.order(envelope).status == "VALID"
    before = _heights(fed)
    with pytest.raises(LedgerRejectedError, match="envelope refused: duplicate tx_id") as refused:
        _bounded(lambda: alice.order(envelope))
    assert cli.exit_code_for(refused.value) == 12
    assert _heights(fed) == before

    # While OrgB holds the next block, a second envelope waits in the queue.
    holding, release = threading.Event(), threading.Event()
    _hold_commit(fed.nodes["OrgB"], before["OrgA"] + 1, holding, release)
    first, queued = (_endorsed(users["alice"], f"21.P/{n}", n) for n in ("f", "q"))
    writers = [threading.Thread(target=alice.order, args=(e,)) for e in (first, queued)]
    writers[0].start()
    assert holding.wait(10)
    writers[1].start()
    deadline = time.monotonic() + 10
    while not fed.orderer._queue and time.monotonic() < deadline:
        time.sleep(0.005)
    with pytest.raises(LedgerRejectedError, match="duplicate tx_id"):
        alice.order(queued)
    release.set()
    for writer in writers:
        writer.join(10)
    assert not any(writer.is_alive() for writer in writers)
    assert _heights(fed) == {org: height + 2 for org, height in before.items()}
    assert _all_clear(fed)


def test_forged_commit_is_an_unknown_message_kind(fed, users):
    """No node takes a block from a sender: COMMIT is not a message kind."""
    from fedprov.errors import FedprovError
    from fedprov.ledger.blocks import make_block

    assert publish_raw(users["alice"]["ledger"], "21.P/a", "cas://a", "ca").ok
    node = fed.nodes["OrgB"]
    forged = make_block(node.height() + 1, node.tip_hash(), []).to_dict()
    before = _heights(fed), fed.state_digests()
    with pytest.raises(FedprovError, match="unknown message kind: 'COMMIT'"):
        TcpTransport(fed.config.org_entry("OrgB").listen_address)("COMMIT", {"block": forged})
    assert publish_raw(users["alice"]["ledger"], "21.P/b", "cas://b", "cb").ok
    heights, digests = _heights(fed), fed.state_digests()
    assert heights == {org: height + 1 for org, height in before[0].items()}
    assert len(set(digests.values())) == 1
    assert len({node.tip_hash() for node in fed.nodes.values()}) == 1


def test_lagging_replica_catches_up_when_its_pull_loop_restarts(tmp_path, monkeypatch):
    """A replica that misses three blocks pulls them once its loop runs
    again, two blocks per answer here, and ends with the same tip and state
    digest; nobody steps in."""
    from fedprov.ledger import ordering
    from fedprov.services import Puller

    monkeypatch.setattr(ordering, "MAX_PULL_BLOCKS", 2)
    monkeypatch.setattr(ordering, "ACK_TIMEOUT_S", 0.5)  # each write waits out the stopped puller
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        users = register_default_users(fed)
        service = fed.services["OrgB"]
        service.puller.stopping.set()
        service.puller.join(10)
        for i in range(3):
            assert publish_raw(users["alice"]["ledger"], f"21.P/{i}", "cas://x", "cx").ok
        tip = fed.nodes["OrgA"].height()
        assert fed.nodes["OrgB"].height() == tip - 3
        service.puller = Puller(service.node, service.puller.orderer)
        service.puller.start()
        _await_heights(fed, tip)
        assert len(set(fed.state_digests().values())) == 1
        assert len({node.tip_hash() for node in fed.nodes.values()}) == 1
    finally:
        fed.stop()


def _await_heights(fed, height, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while any(node.height() != height for node in fed.nodes.values()):
        assert time.monotonic() < deadline, f"replicas stuck at {_heights(fed)}"
        time.sleep(0.01)


def test_federation_stop_returns_at_once_while_pulls_wait(tmp_path):
    """Closing the orderer wakes the pulls waiting at its tip, so stopping a
    TCP federation does not wait them out."""
    from fedprov.ledger.ordering import PULL_WAIT_S

    fed = Federation.bootstrap(tmp_path / "fed")
    time.sleep(PULL_WAIT_S / 2)  # both replicas' pulls now wait at the tip
    started = time.monotonic()
    fed.stop()
    assert time.monotonic() - started < 1.0
    assert not any(service.puller and service.puller.is_alive()
                   for service in fed.services.values())


def test_readers_see_whole_blocks_while_commits_install_new_states(fed, users, monkeypatch):
    """Threads dump a node's state while blocks of three publishes commit to
    it: every dump holds whole blocks, never part of one. Each transaction's
    validation sleeps, so the dumps overlap commits half applied."""
    alice = users["alice"]["ledger"]
    node = fed.nodes["OrgA"]
    base = len(node.state)

    def slow_validate_tx(*args):
        time.sleep(0.002)
        return validate_tx(*args)

    monkeypatch.setattr(node_mod, "validate_tx", slow_validate_tx)
    stop = threading.Event()
    sizes, errors = [], []

    def dump_repeatedly():
        try:
            while not stop.is_set():
                sizes.append(len(node.state_dump()) - base)
        except Exception as exc:  # reported below; the thread must not die silently
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=dump_repeatedly) for _ in range(3)]
    try:
        for reader in readers:
            reader.start()
        for b in range(8):
            envelopes = [
                alice.prepare(*publish_operation(
                    f"21.P/{b}-{i}", "cas://x", "cx", ["alice"], f"21.P/{b}-{i}/prov",
                    "cas://doc", "c-doc",
                ))
                for i in range(3)
            ]
            assert node.commit(_block_of(fed, *envelopes))["flags"] == ["VALID"] * 3
    finally:
        stop.set()
        for reader in readers:
            reader.join(10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not errors
    # Each publish writes two keys, so a whole block adds six.
    assert sizes and all(size % 6 == 0 for size in sizes)
    assert len(node.state) - base == 8 * 6


def test_queries_see_no_torn_view_while_a_commit_is_indexed(fed, users):
    """A commit held after its line is indexed, before its view is installed:
    QUERY height pairs a height with that height's own block hash and state
    digest, and QUERY state answers a state of the height and tip it names.
    Once the commit finishes, both answer the new block whole, and a state
    read unless at the old tip ships the new state."""
    alice = users["alice"]["ledger"]
    node, service = fed.nodes["OrgA"], fed.services["OrgA"]
    envelope = alice.prepare(*publish_operation(
        "21.P/held", "cas://x", "cx", ["alice"], "21.P/held/prov", "cas://doc", "c-doc"))
    before = service.handle("QUERY", {"op": "state"})
    before_digest = node.state_digest()
    indexed, release = threading.Event(), threading.Event()

    class HeldHeights(dict):
        def __setitem__(self, tx_id, height):
            super().__setitem__(tx_id, height)
            if tx_id == envelope["tx_id"]:
                indexed.set()
                release.wait(10)

    node.tx_heights = HeldHeights(node.tx_heights)
    committing = threading.Thread(target=node.commit, args=(_block_of(fed, envelope),))
    committing.start()
    try:
        assert indexed.wait(10)
        height = service.handle("QUERY", {"op": "height"})
        assert node.block(height["height"]).block_hash == height["tip_hash"]
        assert height["state_digest"] == before_digest
        during = service.handle("QUERY", {"op": "state"})
    finally:
        release.set()
        committing.join(10)
    assert not committing.is_alive()
    assert during == before

    after = service.handle("QUERY", {"op": "state", "unless_tip": before["tip_hash"]})
    assert after["height"] == before["height"] + 1
    assert after["tip_hash"] == node.block(after["height"]).block_hash
    assert node.state_digest() != before_digest
    # Each publish writes two keys.
    assert len(after["state"]) == len(before["state"]) + 2
    assert service.handle("QUERY", {"op": "state", "unless_tip": after["tip_hash"]}) == {
        "ok": True, "height": after["height"], "tip_hash": after["tip_hash"]}


def test_history_lists_no_block_above_the_height_while_a_commit_is_indexed(fed, users):
    """A two-transaction commit held after its first transaction is indexed:
    QUERY history of the key that transaction wrote lists no entry above
    QUERY height, as QUERY read does not show the write yet. Once the commit
    finishes, history lists it at the new height."""
    alice = users["alice"]["ledger"]
    node, service = fed.nodes["OrgA"], fed.services["OrgA"]
    envelopes = sorted(
        (alice.prepare(*publish_operation(
            f"21.P/held-{n}", "cas://x", f"c{n}", ["alice"], f"21.P/held-{n}/prov",
            "cas://doc", "c-doc")) for n in range(2)),
        key=lambda envelope: envelope["tx_id"])
    first, second = envelopes
    pid = first["body"]["pid"]
    block = _block_of(fed, *envelopes)
    indexed, release = threading.Event(), threading.Event()

    class HeldHeights(dict):
        def __setitem__(self, tx_id, height):
            super().__setitem__(tx_id, height)
            if tx_id == second["tx_id"]:
                indexed.set()
                release.wait(10)

    node.tx_heights = HeldHeights(node.tx_heights)
    committing = threading.Thread(target=node.commit, args=(block,))
    committing.start()
    try:
        assert indexed.wait(10)
        height = service.handle("QUERY", {"op": "height"})["height"]
        history = service.handle("QUERY", {"op": "history", "pid": pid})["entries"]
        read = service.handle("QUERY", {"op": "read", "pid": pid})
    finally:
        release.set()
        committing.join(10)
    assert not committing.is_alive()
    assert height == block["height"] - 1
    assert read["value"] is None
    assert [entry for entry in history if entry["height"] > height] == []

    after = service.handle("QUERY", {"op": "history", "pid": pid})["entries"]
    assert [entry["height"] for entry in after] == [block["height"]]


def test_audit_waits_for_a_block_being_appended(fed, users):
    """An audit during an append sees the ledger as the last finished commit
    left it, never the half-written line."""
    node = fed.nodes["OrgA"]
    half_written, release = threading.Event(), threading.Event()

    def slow_append(block):
        line = canonical_bytes(block.to_dict()) + b"\n"
        with open(node.store.path, "ab") as fh:
            fh.write(line[: len(line) // 2])
            fh.flush()
            half_written.set()
            release.wait(10)
            fh.write(line[len(line) // 2 :])
        return line

    node.store.append = slow_append
    writer = threading.Thread(
        target=publish_raw, args=(users["alice"]["ledger"], "21.P/torn", "cas://t", "ct")
    )
    writer.start()
    assert half_written.wait(10)
    reports = []
    auditor = threading.Thread(target=lambda: reports.append(node.verify_chain()))
    auditor.start()
    auditor.join(0.5)
    release.set()
    auditor.join(10)
    writer.join(10)
    assert not auditor.is_alive() and not writer.is_alive()
    assert reports == [{"ok": True, "first_divergent_height": None, "findings": []}]
    assert node.verify_chain()["ok"]


def test_lone_write_does_not_wait_for_a_batch_timeout(tmp_path):
    """A config written before group commit still loads, and one write on an
    idle orderer is cut at once instead of after its old 500 ms timeout.
    The former block-cap and clock-skew keys load too and are ignored: at 0
    they would cut empty blocks forever and refuse every timestamp, so a
    write stamped 10 s ago would never return."""
    import json
    import time
    from datetime import datetime, timedelta, timezone

    fed = Federation.bootstrap(tmp_path / "fed")
    fed.stop()
    config = json.loads(fed.config_path.read_text())
    config.update({"block-timeout-ms": 500, "max-block-txs": 0, "max-clock-skew-ms": 0})
    fed.config_path.write_text(json.dumps(config))
    fed = Federation.start(fed.config_path)
    try:
        alice, key = fed.register_user("OrgA", "alice")
        ledger = fed.client(alice, key).ledger()
        started = time.monotonic()
        receipt = _bounded(lambda: publish_raw(ledger, "21.P/lone", "cas://lone", "cl"))
        elapsed = time.monotonic() - started
        stamped = datetime.now(timezone.utc) - timedelta(seconds=10)
        late = _bounded(lambda: publish_raw(
            ledger, "21.P/late", "cas://late", "cl",
            timestamp=stamped.strftime("%Y-%m-%dT%H:%M:%S.000Z"),
        ))
    finally:
        fed.stop()
    assert receipt.status == "VALID"
    assert elapsed < 0.25
    assert late.status == "VALID"


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


@pytest.mark.parametrize("payload", [{}, {"envelope": None}, {"envelope": ["x"]}],
                         ids=["no-envelope", "null", "list"])
def test_order_without_an_envelope_object_is_refused(fed, users, payload):
    """An ORDER whose ``envelope`` is not an object is a malformed
    transaction (exit 12), and the orderer keeps serving."""
    from fedprov import cli
    from fedprov.errors import LedgerRejectedError

    orderer = TcpTransport(fed.config.orderer_org().listen_address)
    before = _heights(fed)
    with pytest.raises(LedgerRejectedError, match="malformed transaction") as refused:
        _bounded(lambda: orderer("ORDER", payload))
    assert cli.exit_code_for(refused.value) == 12
    assert _heights(fed) == before
    assert _bounded(lambda: publish_raw(users["alice"]["ledger"], "21.P/n", "cas://n", "cn")).ok


def test_orderer_survives_peer_failing_with_plain_error(fed, users, monkeypatch):
    """A replica whose commits fail with any FedprovError misses the blocks;
    the others commit them, the orderer keeps serving, and the replica
    catches up once its commits succeed again."""
    from fedprov.errors import FedprovError
    from fedprov.ledger import ordering

    monkeypatch.setattr(ordering, "ACK_TIMEOUT_S", 0.5)  # the first write waits out OrgB

    def failing(block):
        raise FedprovError("internal error: 'str' object has no attribute 'get'")

    alice = users["alice"]["ledger"]
    fed.nodes["OrgB"].commit = failing
    before = _heights(fed)
    first = _bounded(lambda: publish_raw(alice, "21.P/a", "cas://a", "ca"))
    assert first.status == "VALID"
    assert _heights(fed) == {org: height + (org != "OrgB") for org, height in before.items()}
    after = _bounded(lambda: publish_raw(alice, "21.P/b", "cas://b", "cb"))
    assert after.status == "VALID"
    del fed.nodes["OrgB"].commit
    _await_heights(fed, after.height)
    assert len(set(fed.state_digests().values())) == 1


def test_orderer_logs_the_peer_that_missed_a_block(fed, users, caplog, monkeypatch):
    """The orderer logs once that a replica is out of sync, and the replica
    logs once that it cannot pull, however many blocks or retries follow."""
    from fedprov.errors import TransportError
    from fedprov.ledger import ordering

    monkeypatch.setattr(ordering, "ACK_TIMEOUT_S", 0.5)  # the first write waits out OrgB

    def unreachable(kind, payload):
        raise TransportError("cannot reach 127.0.0.1:9: refused")

    puller = fed.services["OrgB"].puller
    height = fed.nodes["OrgA"].height()
    with caplog.at_level("WARNING"):
        puller.orderer = unreachable
        for pid in ("21.P/a", "21.P/b"):
            receipt = _bounded(lambda: publish_raw(users["alice"]["ledger"], pid, "cas://a", "ca"))
            assert receipt.status == "VALID"
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("fedprov.services", "WARNING", "OrgB cannot pull blocks: cannot reach 127.0.0.1:9: refused"),
        ("fedprov.ledger.ordering", "WARNING",
         f"OrgB is out of sync: it did not pull past block {height + 1} "
         f"within {ordering.ACK_TIMEOUT_S:.1f} s"),
    ]


def _block_of(fed, *envelopes):
    """*envelopes* as the next block, the way the orderer would cut it."""
    from fedprov.ledger.blocks import make_block

    txs = sorted(({**envelope, "validation": None} for envelope in envelopes),
                 key=lambda tx: tx["tx_id"])
    node = fed.nodes["OrgA"]
    return make_block(node.height() + 1, node.tip_hash(), txs).to_dict()


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
