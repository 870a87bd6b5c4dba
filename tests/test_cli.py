"""CLI behavior: exit-code contract, verification, federation actions."""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import publish_raw, register_default_users
from fedprov import cli, identity as identity_mod, transport
from fedprov.errors import FedprovError, TransportError
from fedprov.harness import Federation
from fedprov.ledger.client import LedgerClient, Receipt
from fedprov.lineage import notifications
from fedprov.prov_store import ProvStore
from fedprov.transport import TcpTransport
from fedprov.updates import AtomicUpdater


@pytest.fixture()
def live(fed, monkeypatch):
    users = register_default_users(fed)
    monkeypatch.setenv("FEDPROV_KEYDIR", str(fed.config.keys_dir))
    return fed, users


def write_sample(fed, name, content):
    path = fed.config.base_dir / name
    path.write_text(content)
    return str(path)


def write_doc(fed, name, doc_dict):
    path = fed.config.base_dir / name
    path.write_text(json.dumps(doc_dict))
    return str(path)


def simple_doc_dict(entity_id="e-x", activity_id="a-x"):
    return {
        "entities": [{"local_id": entity_id, "label": "artifact"}],
        "activities": [{"local_id": activity_id, "label": "step"}],
        "agents": [],
        "relations": [
            {"kind": "was-generated-by", "source": entity_id, "target": activity_id}
        ],
        "created_at": "2026-01-01T00:00:00.000Z",
    }


def invoke(fed, *argv):
    return cli.run(["--config", str(fed.config_path), *argv])


def test_publish_creates_both_records(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a,b\n1,2\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK
    ledger = users["alice"]["ledger"]
    assert len(ledger.get_history(body["artifact_pid"])) == 1
    assert len(ledger.get_history(body["prov_pid"])) == 1
    assert ledger.hlf_read(body["artifact_pid"]).version == 1
    assert ledger.hlf_read(body["prov_pid"]).version == 1


@pytest.mark.parametrize("refused", ["artifact", "provenance"])
def test_publish_orders_nothing_when_a_create_is_refused(live, refused, monkeypatch):
    """Both creates are endorsed before either is ordered, so a refused one
    leaves no artifact on the ledger without its provenance record; the PIDs
    it reserved never resolve, and the next publish reserves fresh PIDs.
    Here bob commits one of alice's reservations first."""
    fed, users = live
    real_mint = AtomicUpdater._step_mint
    reserved, before = [], {}

    def squatted_mint(updater):
        reserved.append(real_mint(updater))
        if len(reserved) == (1 if refused == "artifact" else 2):
            bob = users["bob"]["ledger"]
            if refused == "artifact":
                assert publish_raw(bob, reserved[-1], "cas://squat", "squat", ["bob"]).ok
            else:
                assert publish_raw(bob, "21.P/squatter", owners=["bob"],
                                   prov=(reserved[-1], "cas://squat", "squat")).ok
            before["heights"] = {org: node.height() for org, node in fed.nodes.items()}
            before["registry"] = fed.registry.state_digest()
        return reserved[-1]

    monkeypatch.setattr(AtomicUpdater, "_step_mint", squatted_mint)
    file_path = write_sample(fed, "d.csv", "a,b\n1,2\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_DUPLICATE
    assert body["receipt"]["status"] == "REJECTED"
    assert {org: node.height() for org, node in fed.nodes.items()} == before["heights"]
    assert fed.registry.state_digest() == before["registry"]
    assert len(reserved) == 2
    for pid in reserved:
        code, _ = invoke(fed, "verify", pid)
        assert code == cli.EXIT_UNKNOWN_PID

    monkeypatch.setattr(AtomicUpdater, "_step_mint", real_mint)
    code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK
    assert not set(reserved) & {body["artifact_pid"], body["prov_pid"]}


def test_a_pid_committed_before_its_reservation_is_never_reserved(live):
    """A PID that a committed transaction names is never handed out, so
    every PID's naming was committed after its reservation."""
    fed, users = live
    next_suffix = fed.registry._next_suffix()
    squatted = f"{fed.config.pid_prefix}/{next_suffix}"
    assert publish_raw(users["alice"]["ledger"], squatted, "cas://squat", "squat").ok
    file_path = write_sample(fed, "d.csv", "a,b\n1,2\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK
    assert squatted not in (body["artifact_pid"], body["prov_pid"])
    code, _ = invoke(fed, "verify", squatted)
    assert code == cli.EXIT_UNKNOWN_PID


def test_publish_consumer_identity_unauthorized(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a,b\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, body = invoke(fed, "--identity", "ruth", "publish", file_path, doc_path)
    assert code == cli.EXIT_UNAUTHORIZED
    assert fed.nodes["OrgA"].height() == 0


def test_publish_unreadable_file_commits_nothing(live):
    fed, users = live
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    height = fed.nodes["OrgA"].height()
    code, body = invoke(
        fed, "--identity", "alice", "publish", str(fed.config.base_dir / "absent.bin"), doc_path
    )
    assert code == cli.EXIT_IO
    assert fed.nodes["OrgA"].height() == height


def test_publish_invalid_document(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    bad = simple_doc_dict()
    bad["relations"].append({"kind": "used", "source": "ghost", "target": "e-x"})
    doc_path = write_doc(fed, "bad.json", bad)
    code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_INVALID_DOCUMENT


MALFORMED_DOCUMENTS = {
    "a list": lambda doc: [doc],
    "an entity without local_id": lambda doc: {
        **doc, "entities": [{"label": "artifact"}]},
    "a relation without kind": lambda doc: {
        **doc, "relations": [{"source": "e-x", "target": "a-x"}]},
    "entities not a list": lambda doc: {**doc, "entities": 5},
}


@pytest.mark.parametrize("verb", ["publish", "update-prov"])
@pytest.mark.parametrize("shape", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_exits_15_naming_the_file(live, verb, shape):
    fed, users = live
    target = _publish(fed, "alice", "base")["prov_pid"] if verb == "update-prov" else None
    doc_path = write_doc(fed, "bad.json", MALFORMED_DOCUMENTS[shape](simple_doc_dict()))
    argv = {
        "publish": ["publish", write_sample(fed, "d.csv", "a\n"), doc_path],
        "update-prov": ["update-prov", target, doc_path],
    }[verb]
    height = fed.nodes["OrgA"].height()
    code, body = invoke(fed, "--identity", "alice", *argv)
    assert code == cli.EXIT_INVALID_DOCUMENT, body
    assert body["error_type"] == "InvalidDocumentError"
    assert doc_path in body["error"]
    assert fed.nodes["OrgA"].height() == height


@pytest.mark.parametrize("verb", ["update-prov", "invalidate"])
@pytest.mark.parametrize("content", ["not json", '{"subject": "21.P/000001"}', "[]"],
                         ids=["not-json", "no-grantee", "a-list"])
def test_malformed_grant_is_a_usage_error_naming_the_file(live, verb, content):
    fed, _ = live
    grant_path = fed.config.base_dir / "grant.json"
    grant_path.write_text(content)
    argv = {
        "update-prov": ["update-prov", "21.P/000002", write_doc(fed, "d.json", simple_doc_dict())],
        "invalidate": ["invalidate", "21.P/000001"],
    }[verb]
    code, body = invoke(fed, "--identity", "alice", *argv, "--grant", str(grant_path))
    assert code == cli.EXIT_USAGE, body
    assert str(grant_path) in body["error"]
    assert fed.nodes["OrgA"].height() == 0


def test_identity_without_key_material_is_a_config_error(live):
    fed, _ = live
    code, body = invoke(fed, "--identity", "nobody", "verify", "21.P/000001")
    assert code == cli.EXIT_CONFIG, body
    assert "no identity material for user 'nobody'" in body["error"]


def test_client_verbs_load_no_server_module(live):
    """``verify`` and ``trace`` through ``cli.main`` in a fresh interpreter
    load none of the server side."""
    fed, _ = live
    pid = _publish(fed, "alice", "d")["artifact_pid"]
    script = """
import json, sys
from fedprov import cli
config, pid = sys.argv[1:]
codes = [cli.main(["--config", config, "--json", verb, pid]) for verb in ("verify", "trace")]
server = {"fedprov.services", "fedprov.ledger.node", "fedprov.ledger.ordering",
          "fedprov.pid_registry"}
print(json.dumps({"codes": codes, "loaded": sorted(server & set(sys.modules))}))
"""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(
        path for path in (str(src_dir), os.environ.get("PYTHONPATH")) if path
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(fed.config_path), pid],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"codes": [0, 0], "loaded": []}


def test_verify_and_mismatch_after_disk_tamper(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a,b\n1,2\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK

    code, body = invoke(fed, "verify", published["artifact_pid"])
    assert code == cli.EXIT_OK
    assert body["result"] == "VERIFIED"

    blob = fed.store.blob_path(published["artifact_checksum"])
    payload = bytearray(blob.read_bytes())
    payload[0] ^= 0xFF
    blob.write_bytes(bytes(payload))

    code, body = invoke(fed, "verify", published["artifact_pid"])
    assert code == cli.EXIT_MISMATCH
    assert body["result"] == "MISMATCH"


def test_verify_unknown_pid(live):
    fed, _ = live
    code, body = invoke(fed, "verify", "21.P/999999")
    assert code == cli.EXIT_UNKNOWN_PID


def test_a_node_fault_that_is_not_a_fedprov_error_exits_1(live, monkeypatch):
    """A node handler that fails with an error of its own (here
    ``PermissionError``, which the client would map to exit 19) answers
    ``internal error``, and ``verify`` exits 1 on every federation."""
    fed, _ = live
    file_path = write_sample(fed, "d.csv", "a,b\n1,2\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK

    def unreadable(pid):
        raise PermissionError("history unreadable")

    for node in fed.nodes.values():
        monkeypatch.setattr(node, "history", unreadable)
    code, body = invoke(fed, "verify", published["artifact_pid"])
    assert code == cli.EXIT_ERROR
    assert body["error"] == "internal error: history unreadable"


def test_update_prov_rejects_artifact_pid(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK
    code, body = invoke(
        fed, "--identity", "alice", "update-prov", published["artifact_pid"], doc_path
    )
    assert code == cli.EXIT_DUPLICATE  # kind mismatch family


def test_update_prov_illegal_leaves_registry_unchanged(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK

    registry_digest = fed.registry.state_digest()
    stripped = simple_doc_dict()
    stripped["relations"] = []
    bad_path = write_doc(fed, "strip.json", stripped)
    code, body = invoke(
        fed, "--identity", "alice", "update-prov", published["prov_pid"], bad_path
    )
    assert code == cli.EXIT_ILLEGAL_UPDATE
    assert fed.registry.state_digest() == registry_digest


def test_invalidate_without_cascade_defers_flags(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    code, body = invoke(fed, "--identity", "alice", "invalidate", published["artifact_pid"])
    assert code == cli.EXIT_OK
    assert body["affected"] == []
    value = users["alice"]["ledger"].hlf_read(published["artifact_pid"])
    assert value.status == "invalidated"


def test_invalidate_consumer_unauthorized(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    code, body = invoke(fed, "--identity", "ruth", "invalidate", published["artifact_pid"])
    assert code == cli.EXIT_UNAUTHORIZED
    assert "Error: Unauthorized user" in body["error"]


def test_trace_source_artifact_single_path(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    code, body = invoke(fed, "trace", published["artifact_pid"])
    assert code == cli.EXIT_OK
    assert len(body["paths"]) == 1
    steps = body["paths"][0]["steps"]
    assert steps[0]["artifact"] == published["artifact_pid"]
    assert len(steps) == 1


def test_trace_unknown_pid(live):
    fed, _ = live
    code, body = invoke(fed, "trace", "21.P/424242")
    assert code == cli.EXIT_UNKNOWN_PID


def test_trace_dot_dump(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    code, body = invoke(fed, "trace", published["artifact_pid"], "--dot")
    assert code == cli.EXIT_OK
    assert body["dot"].startswith("digraph provenance {")
    assert published["artifact_pid"] in body["dot"]


def test_endorsement_policy_unmet_exit_code(tmp_path, monkeypatch):
    """All-producer policy with one producer node down: exit 12, no commit."""
    from fedprov.ledger.policy import POLICY_ALL

    fed = Federation.bootstrap(tmp_path / "fed", endorsement_policy=POLICY_ALL)
    monkeypatch.setenv("FEDPROV_KEYDIR", str(fed.config.keys_dir))
    try:
        fed.register_user("OrgA", "alice")
        file_path = write_sample(fed, "d.csv", "a\n")
        doc_path = write_doc(fed, "d.json", simple_doc_dict())
        victim_address = fed.config.org_entry("OrgB").listen_address
        for server in fed.servers:
            if server.address == victim_address:
                server.stop()
        code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
        assert code == cli.EXIT_LEDGER_REJECTED
        assert fed.nodes["OrgA"].height() == 0
    finally:
        fed.stop()


def test_missing_config_is_config_error(tmp_path):
    code, body = cli.run(["--config", str(tmp_path / "none.json"), "verify", "21.P/1"])
    assert code == cli.EXIT_CONFIG


def test_init_refuses_duplicate_org_names_before_writing(tmp_path):
    """Two organizations named alike are a config error, and init writes nothing."""
    root = tmp_path / "ws"
    root.mkdir()
    orgs = [("OrgA", "producer"), ("OrgA", "producer"), ("Readers", "consumer-read-only")]
    config_path = root / "federation.json"
    config_path.write_text(json.dumps({
        "organizations": [
            {"name": name, "kind": kind, "listen-address": f"127.0.0.1:{7401 + index}"}
            for index, (name, kind) in enumerate(orgs)
        ],
    }))
    code, body = cli.run(["--config", str(config_path), "federation", "init"])
    assert code == cli.EXIT_CONFIG, body
    assert [path.name for path in root.iterdir()] == ["federation.json"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.run(["--config", "x.json", "no-such-verb"])
    assert err.value.code == cli.EXIT_USAGE


def test_unreachable_federation(tmp_path, live):
    fed, _ = live
    # Same config, but nobody listening on fresh ports.
    from fedprov.harness import free_ports

    ports = free_ports(3)
    config = json.loads(fed.config_path.read_text())
    for org, port in zip(config["organizations"], ports):
        org["listen-address"] = f"127.0.0.1:{port}"
    dead_path = tmp_path / "dead.json"
    dead_path.write_text(json.dumps(config))
    code, body = cli.run(["--config", str(dead_path), "verify", "21.P/1"])
    assert code == cli.EXIT_UNREACHABLE


@pytest.mark.parametrize("verb", ["publish", "update-prov", "invalidate"])
def test_requires_identity_for_writes(live, verb):
    fed, _ = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    argv = {
        "publish": ["publish", file_path, doc_path],
        "update-prov": ["update-prov", "21.P/000002", doc_path],
        "invalidate": ["invalidate", "21.P/000001", "--cascade"],
    }[verb]
    height = fed.nodes["OrgA"].height()
    code, body = invoke(fed, *argv)
    assert code == cli.EXIT_CONFIG
    assert "--identity" in body["error"]
    assert fed.nodes["OrgA"].height() == height


def test_no_proxy_verify_survives_node_death(live):
    """Killing a single non-orderer node leaves verification functional."""
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, published = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK

    victim = "OrgB"  # producer, not the orderer host
    victim_address = fed.config.org_entry(victim).listen_address
    for server in fed.servers:
        if server.address == victim_address:
            server.stop()
    with pytest.raises(Exception):
        TcpTransport(victim_address, timeout=0.3)("QUERY", {"op": "height"})

    code, body = invoke(fed, "verify", published["artifact_pid"])
    assert code == cli.EXIT_OK
    assert body["result"] == "VERIFIED"
    # Status reports the dead node without failing.
    code, body = invoke(fed, "federation", "status")
    assert code == cli.EXIT_OK
    assert body["nodes"][victim]["reachable"] is False


def test_federation_status_and_verify_chain(tmp_path):
    """Both verbs ask each node through the client's own wiring, and each
    node's entry names its height, tip hash and state digest."""
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        alice = register_default_users(fed)["alice"]
        assert publish_raw(alice["ledger"], "21.P/1").ok
        views = {org: {"height": node.height(), "tip_hash": node.tip_hash(),
                       "state_digest": node.state_digest()} for org, node in fed.nodes.items()}
        ctx = fed.client()
        body = cli.federation_status(ctx)
        assert body["consistent"]
        assert {org: {key: info[key] for key in views[org]}
                for org, info in body["nodes"].items()} == views
        body = cli.federation_verify_chain(ctx)
        assert body["all_clear"] and body["consistent"]
        assert {org: {key: info[key] for key in views[org]}
                for org, info in body["nodes"].items()} == views
    finally:
        fed.stop()


def test_federation_status_reads_each_node_at_one_view(live, monkeypatch):
    """A block commits right after OrgB answers its first status query: the
    height, tip hash and state digest that status shows for each node still
    come from one committed view of that node."""
    fed, users = live
    service = fed.services["OrgB"]
    handle, views = service.handle, set()

    def seen():
        views.update((node.height(), node.tip_hash(), node.state_digest())
                     for node in fed.nodes.values())

    def then_commit(kind, payload):
        answer = handle(kind, payload)
        if kind == "QUERY" and payload.get("op") == "height":
            monkeypatch.setattr(service, "handle", handle)
            seen()
            assert publish_raw(users["alice"]["ledger"], "21.P/between").ok
            deadline = time.monotonic() + 10
            while len({node.height() for node in fed.nodes.values()}) > 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            seen()
        return answer

    monkeypatch.setattr(service, "handle", then_commit)
    code, body = invoke(fed, "federation", "status")
    assert code == cli.EXIT_OK
    shown = {(info["height"], info["tip_hash"], info["state_digest"])
             for info in body["nodes"].values()}
    assert len(views) == 2 and shown <= views


def test_a_failing_node_does_not_hide_the_others(live, monkeypatch):
    """A node whose audit or state digest raises has the error in its entry;
    the other nodes still report, lag and the digest comparison leave it
    out, and verify-chain counts it as not clear."""
    fed, _ = live
    node = fed.nodes["OrgB"]

    def refuse(*args):
        raise PermissionError("ledger file unreadable")

    monkeypatch.setattr(node, "_holds_only_indexed_lines", refuse)
    code, body = invoke(fed, "federation", "verify-chain")
    assert code == cli.EXIT_MISMATCH
    assert not body["all_clear"] and body["consistent"]
    assert "ledger file unreadable" in body["nodes"]["OrgB"]["error"]
    assert "report" not in body["nodes"]["OrgB"]
    assert body["nodes"]["OrgA"]["report"]["ok"] and body["nodes"]["Readers"]["report"]["ok"]

    monkeypatch.setattr(node, "state_digest", refuse)
    code, body = invoke(fed, "federation", "status")
    assert code == cli.EXIT_OK and body["consistent"]
    assert "ledger file unreadable" in body["nodes"]["OrgB"]["error"]
    assert body["nodes"]["OrgB"]["reachable"] and "lag" not in body["nodes"]["OrgB"]
    assert {org: info["lag"] for org, info in body["nodes"].items() if org != "OrgB"} == {
        "OrgA": 0, "Readers": 0}


def test_status_and_verify_chain_exit_3_before_federation_init(tmp_path):
    """Both verbs build the client first, so a config without CA keys is a
    configuration error, not an unreachable federation."""
    config_path = tmp_path / "federation.json"
    config_path.write_text(json.dumps({"organizations": [
        {"name": "OrgA", "kind": "producer", "listen-address": "127.0.0.1:1"},
        {"name": "Readers", "kind": "consumer-read-only", "listen-address": "127.0.0.1:2"}]}))
    for verb in ("status", "verify-chain"):
        code, body = cli.run(["--config", str(config_path), "federation", verb])
        assert code == cli.EXIT_CONFIG, body
        assert "federation init" in body["error"]


def test_federation_status_shows_each_replica_lag(live, monkeypatch):
    """``lag`` is the highest reachable height minus the node's own: a
    replica whose pull loop is stopped shows the blocks it missed, and 0
    once its loop runs again and it has caught up. The orderer
    organization's node names the in-sync replicas, the ones a receipt
    waits for: the stopped replica leaves them, and rejoins once its loop
    pulls at the tip again."""
    from fedprov.ledger import ordering
    from fedprov.services import Puller

    monkeypatch.setattr(ordering, "ACK_TIMEOUT_S", 0.5)  # each write waits out the stopped puller
    fed, users = live
    service = fed.services["OrgB"]
    service.puller.stopping.set()
    service.puller.join(10)
    for i in range(2):
        assert publish_raw(users["alice"]["ledger"], f"21.P/{i}", "cas://x", "cx").ok
    code, body = invoke(fed, "federation", "status")
    assert code == cli.EXIT_OK
    assert {org: info["lag"] for org, info in body["nodes"].items()} == {
        "OrgA": 0, "OrgB": 2, "Readers": 0}
    assert {org: info.get("in_sync") for org, info in body["nodes"].items()} == {
        "OrgA": ["Readers"], "OrgB": None, "Readers": None}
    service.puller = Puller(service.node, service.puller.orderer)
    service.puller.start()
    deadline = time.monotonic() + 10
    while body["nodes"]["OrgB"]["lag"] or body["nodes"]["OrgA"]["in_sync"] != ["OrgB", "Readers"]:
        assert time.monotonic() < deadline, body
        time.sleep(0.05)
        code, body = invoke(fed, "federation", "status")
    assert body["consistent"]


def test_federation_verify_chain_flags_tampered_node(live):
    fed, users = live
    file_path = write_sample(fed, "d.csv", "a\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, _ = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK

    ledger_path = fed.config.ledger_path("OrgB")
    payload = bytearray(ledger_path.read_bytes())
    marker = payload.find(b"cas://")
    payload[marker + 6] ^= 0x01
    ledger_path.write_bytes(bytes(payload))

    code, body = invoke(fed, "federation", "verify-chain")
    assert code == cli.EXIT_MISMATCH
    assert body["nodes"]["OrgB"]["report"]["ok"] is False
    assert body["nodes"]["OrgA"]["report"]["ok"] is True
    assert body["nodes"]["Readers"]["report"]["ok"] is True


def test_start_node_occupied_port(tmp_path, live):
    fed, _ = live
    org = fed.config.organizations[1]  # its port is already bound by the fixture
    code, body = cli.run(
        ["--config", str(fed.config_path), "federation", "start-node", "--org", org.name]
    )
    assert code == cli.EXIT_UNREACHABLE


def test_cycle_detection_exit_code(live):
    fed, users = live
    alice = users["alice"]
    registry = fed.client(alice["identity"], alice["key"]).ledger()
    store = fed.store
    ledger = alice["ledger"]

    uri_x, sum_x, _ = store.store_bytes(b"x")
    uri_y, sum_y, _ = store.store_bytes(b"y")
    pid_x = registry.mint()["pid"]
    pid_y = registry.mint()["pid"]
    locations = {pid_x: (uri_x, sum_x), pid_y: (uri_y, sum_y)}

    def cyclic_doc(in_id, in_pid, out_id, out_pid, activity):
        return {
            "entities": [
                {"local_id": in_id, "label": "in", "artifact_pid": in_pid},
                {"local_id": out_id, "label": "out", "artifact_pid": out_pid},
            ],
            "activities": [{"local_id": activity, "label": activity}],
            "agents": [],
            "relations": [
                {"kind": "used", "source": activity, "target": in_id},
                {"kind": "was-generated-by", "source": out_id, "target": activity},
            ],
            "created_at": "2026-01-01T00:00:00.000Z",
        }

    for index, (src, dst) in enumerate([(pid_x, pid_y), (pid_y, pid_x)]):
        from fedprov.prov import ProvDocument

        document = ProvDocument.from_dict(cyclic_doc("e-in", src, "e-out", dst, f"a{index}"))
        doc_uri, doc_sum, _ = store.store_document(document)
        prov_pid = registry.mint()["pid"]
        assert publish_raw(ledger, dst, *locations[dst], prov=(prov_pid, doc_uri, doc_sum)).ok

    code, body = invoke(fed, "trace", pid_x)
    assert code == cli.EXIT_CYCLE


def test_start_node_subprocess_federation(tmp_path):
    """Spawn real node processes from the CLI and run commands against them.

    The config still names a ``registry-address``, as configs did before the
    registry moved onto the orderer organization's address, and the former
    ``max-block-txs`` and ``max-clock-skew-ms`` keys: ``init`` drops them,
    each node opens its one listen address, and the orderer organization's
    node answers MINT, RESOLVE and HISTORY."""
    from fedprov.federation import FederationConfig
    from fedprov.harness import free_ports
    from fedprov.identity import RegistrationService

    root = tmp_path / "fed"
    root.mkdir()
    ports = free_ports(4)
    orgs = [("OrgA", "producer"), ("OrgB", "producer"), ("Readers", "consumer-read-only")]
    legacy_registry = f"127.0.0.1:{ports[3]}"
    config_path = root / "federation.json"
    config_path.write_text(json.dumps({
        "organizations": [
            {"name": name, "kind": kind, "listen-address": f"127.0.0.1:{port}"}
            for (name, kind), port in zip(orgs, ports)
        ],
        "registry-address": legacy_registry,
        "max-block-txs": 0,
        "max-clock-skew-ms": 0,
    }))
    code, body = cli.run(["--config", str(config_path), "federation", "init"])
    assert code == cli.EXIT_OK and sorted(body) == ["initialized", "orderer", "organizations"]
    saved = json.loads(config_path.read_text())
    assert not {"registry-address", "max-block-txs", "max-clock-skew-ms"} & set(saved)

    config = FederationConfig.load(config_path)
    service = RegistrationService.load(
        config.orgs_map().values(), config.ca_dir, config.identities_dir, config.keys_dir
    )
    alice, alice_key = service.register_user("OrgA", "alice")

    # The children import fedprov from this checkout's src, whatever the
    # working directory the suite was started from.
    src_dir = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(
        path for path in (str(src_dir), os.environ.get("PYTHONPATH")) if path
    )
    env = dict(os.environ, FEDPROV_KEYDIR=str(config.keys_dir), PYTHONPATH=pythonpath)
    # Node output goes to files: a pipe nobody reads blocks a chatty node.
    logs_dir = tmp_path / "logs"
    logs_dir.mkdir()
    processes = {}
    try:
        for org in config.organizations:
            with open(logs_dir / f"{org.name}.out", "wb") as out, open(
                logs_dir / f"{org.name}.err", "wb"
            ) as err:
                processes[org.name] = subprocess.Popen(
                    [sys.executable, "-m", "fedprov.cli", "--config", str(config_path),
                     "federation", "start-node", "--org", org.name],
                    stdout=out, stderr=err, env=env, cwd=tmp_path,
                )
        deadline = time.monotonic() + 15
        while True:
            exited = [name for name, proc in processes.items() if proc.poll() is not None]
            if exited:
                pytest.fail(f"nodes exited before serving: {exited}")
            code, body = cli.run(["--config", str(config_path), "federation", "status"])
            if code == 0 and all(n.get("reachable") for n in body["nodes"].values()):
                break
            if time.monotonic() > deadline:
                pytest.fail("nodes did not come up")
            time.sleep(0.3)

        sample = root / "file.bin"
        sample.write_text("payload")
        doc_path = root / "doc.json"
        doc_path.write_text(json.dumps(simple_doc_dict()))
        code, published = cli.run(
            ["--config", str(config_path), "--identity", "alice",
             "publish", str(sample), str(doc_path)]
        )
        assert code == cli.EXIT_OK, published
        code, body = cli.run(["--config", str(config_path), "verify", published["artifact_pid"]])
        assert code == cli.EXIT_OK and body["result"] == "VERIFIED"
        code, body = cli.run(["--config", str(config_path), "federation", "verify-chain"])
        assert code == cli.EXIT_OK and body["all_clear"]

        registry = LedgerClient(
            alice, alice_key, {}, TcpTransport(config.org_entry("OrgA").listen_address),
            config.orgs_map(), config.endorsement_policy,
        )
        assert registry.mint()["metadata"]["owner"] == "alice"
        prov_pid = published["prov_pid"]
        assert registry.resolve(prov_pid)["object_kind"] == "provenance-record"
        assert [record["pid"] for record in registry.version_history(prov_pid)] == [prov_pid]
        with pytest.raises(TransportError):
            TcpTransport(legacy_registry, timeout=0.5)("RESOLVE", {"pid": prov_pid})
        with pytest.raises(FedprovError, match="unknown message kind: 'RESOLVE'"):
            TcpTransport(config.org_entry("OrgB").listen_address)("RESOLVE", {"pid": prov_pid})
    finally:
        for proc in processes.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in processes.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # Captured output is shown only when the test fails.
        for name, proc in processes.items():
            print(f"--- node {name} exited {proc.returncode}")
            for stream in ("out", "err"):
                tail = (logs_dir / f"{name}.{stream}").read_text(errors="replace")[-2000:]
                print(f"std{stream} tail:\n{tail}")
    exit_codes = {name: proc.returncode for name, proc in processes.items()}
    assert exit_codes == {name: 0 for name in processes}, exit_codes


def test_main_prints_json(live, capsys):
    fed, _ = live
    code = cli.main(["--config", str(fed.config_path), "--json", "federation", "status"])
    assert code == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert "nodes" in parsed


def test_refused_cascade_exits_12_without_affected_or_notifications(live, monkeypatch):
    fed, users = live
    code, source = invoke(
        fed, "--identity", "alice", "publish",
        write_sample(fed, "a.csv", "a\n"), write_doc(fed, "a.json", simple_doc_dict()),
    )
    assert code == cli.EXIT_OK
    derived_doc = simple_doc_dict()
    derived_doc["entities"].append(
        {"local_id": "e-in", "label": "input", "artifact_pid": source["artifact_pid"]}
    )
    derived_doc["relations"].append({"kind": "used", "source": "a-x", "target": "e-in"})
    code, derived = invoke(
        fed, "--identity", "alice", "publish",
        write_sample(fed, "b.csv", "b\n"), write_doc(fed, "b.json", derived_doc),
        "--entity", "e-x",
    )
    assert code == cli.EXIT_OK

    def refused(self, targets, source_pid, timestamp=None):
        return Receipt("tx", None, "INVALID:endorsement-policy-unmet",
                       "INVALID:endorsement-policy-unmet")

    monkeypatch.setattr(LedgerClient, "flag_affected", refused)
    code, body = invoke(
        fed, "--identity", "alice", "invalidate", source["artifact_pid"], "--cascade"
    )
    assert code == cli.EXIT_LEDGER_REJECTED == 12
    assert "affected" not in body
    assert "endorsement-policy-unmet" in body["error"]
    assert invoke(fed, "notifications")[1]["notifications"] == []
    assert users["alice"]["ledger"].hlf_read(derived["artifact_pid"]).status == "valid"


def _publish(fed, user, name, source_pid=None):
    """Publish *name* as *user*, derived from the artifact *source_pid* if given."""
    document = simple_doc_dict()
    if source_pid is not None:
        document["entities"].append(
            {"local_id": "e-in", "label": "input", "artifact_pid": source_pid}
        )
        document["relations"].append({"kind": "used", "source": "a-x", "target": "e-in"})
    code, body = invoke(
        fed, "--identity", user, "publish",
        write_sample(fed, f"{name}.csv", f"{name}\n"), write_doc(fed, f"{name}.json", document),
        "--entity", "e-x",
    )
    assert code == cli.EXIT_OK, body
    return body


def test_verify_and_update_prov_ask_each_fact_once(live, monkeypatch):
    fed, users = live
    source = _publish(fed, "alice", "src")["artifact_pid"]
    sent = []
    real_request = transport.request

    def recording(address, kind, payload, timeout=10.0):
        sent.append((kind, payload))
        return real_request(address, kind, payload, timeout=timeout)

    monkeypatch.setattr(transport, "request", recording)
    # publish resolves every PID its document cites.
    prov_pid = _publish(fed, "alice", "d", source)["prov_pid"]
    assert [payload for kind, payload in sent if kind == "RESOLVE"] == [{"pid": source}]
    record = fed.registry.resolve(prov_pid)
    published = fed.store.fetch_document(record.target_uri, record.checksum)
    assert len([e for e in published.entities if e.artifact_pid]) == 2
    first = published.entities[0]
    revised = published.with_entity(
        dataclasses.replace(first, attributes={**first.attributes, "note": "enriched"})
    )
    revised_path = write_doc(fed, "revised.json", revised.to_dict())

    sent.clear()
    code, body = invoke(fed, "verify", prov_pid)
    assert (code, body["result"]) == (cli.EXIT_OK, "VERIFIED")
    assert [(kind, payload.get("op"), payload.get("pid")) for kind, payload in sent] == [
        ("HISTORY", None, prov_pid), ("QUERY", "history", prov_pid),
    ]

    sent.clear()
    code, body = invoke(fed, "--identity", "alice", "update-prov", prov_pid, revised_path)
    assert code == cli.EXIT_OK, body
    kinds = [kind for kind, _ in sent]
    assert "LINK" not in kinds
    # Both cited artifacts were cited by the old version, so neither is re-resolved.
    assert "RESOLVE" not in kinds
    (mint,) = [payload["request"] for kind, payload in sent if kind == "MINT"]
    assert mint == {}
    (order,) = [payload for kind, payload in sent if kind == "ORDER"]
    assert order["envelope"]["body"]["args"]["new_pid"] == body["new_pid"]
    assert kinds.count("HISTORY") == 1

    sent.clear()
    code, body = invoke(fed, "verify", prov_pid)
    assert (code, body["result"], body["ledger_version"]) == (cli.EXIT_OK, "VERIFIED", 2)
    assert len(sent) == 2


def test_publish_and_update_prov_send_a_fixed_number_of_requests(live, monkeypatch):
    """Round trips per command, counted by kind in a 3-org federation. Unlike
    the benchmark's requests per op, these counts do not depend on how many
    operations finish in a time window. Only the command's own requests
    count: the replicas' pulls run on their own threads."""
    fed, users = live
    sent = []
    real_request = transport.request
    command = threading.current_thread()

    def recording(address, kind, payload, timeout=10.0):
        if threading.current_thread() is command:
            sent.append(kind)
        return real_request(address, kind, payload, timeout=timeout)

    def counted():
        counts = dict(collections.Counter(sent))
        sent.clear()
        return counts

    writes = {"PROPOSE": 2, "ORDER": 1}  # endorse, order
    monkeypatch.setattr(transport, "request", recording)
    source = _publish(fed, "alice", "src")["artifact_pid"]
    assert counted() == {"MINT": 2, **writes}
    # A publish resolves each artifact PID its document cites.
    prov_pid = _publish(fed, "alice", "d", source)["prov_pid"]
    assert counted() == {"MINT": 2, "RESOLVE": 1, **writes}
    record = fed.registry.resolve(prov_pid)
    published = fed.store.fetch_document(record.target_uri, record.checksum)
    first = published.entities[0]
    revised = published.with_entity(
        dataclasses.replace(first, attributes={**first.attributes, "note": "enriched"})
    )
    counted()
    code, body = invoke(fed, "--identity", "alice", "update-prov", prov_pid,
                        write_doc(fed, "revised.json", revised.to_dict()))
    assert code == cli.EXIT_OK, body
    # The old version already cited the artifact, so it is not resolved again.
    assert counted() == {"HISTORY": 1, "MINT": 1, **writes}


def test_cascade_reads_no_identity_record(live, monkeypatch):
    """A cascade routes nothing to organizations, so it reads no issued
    identity record; each owner still finds its artifact in ``notifications``."""
    fed, users = live
    source = _publish(fed, "alice", "src")["artifact_pid"]
    mine = _publish(fed, "alice", "mine", source)["artifact_pid"]
    theirs = _publish(fed, "bob", "theirs", source)["artifact_pid"]
    loads = []
    real_load = identity_mod.load_identity

    def counted(path):
        loads.append(Path(path))
        return real_load(path)

    monkeypatch.setattr(identity_mod, "load_identity", counted)
    code, body = invoke(fed, "--identity", "alice", "invalidate", source, "--cascade")
    assert code == cli.EXIT_OK, body
    assert sorted(body["affected"], key=lambda a: a["pid"]) == sorted(
        [{"pid": mine, "status": "affected"}, {"pid": theirs, "status": "affected"}],
        key=lambda a: a["pid"],
    )
    assert [path for path in loads if fed.config.identities_dir in path.parents] == []

    code, body = invoke(fed, "notifications")
    assert code == cli.EXIT_OK, body
    for entry in body["notifications"]:
        assert entry.pop("timestamp")
    assert body["notifications"] == sorted(
        [{"pid": pid, "new_status": "affected", "source_pid": source, "owner": owner}
         for owner, pid in (("alice", mine), ("bob", theirs))],
        key=lambda entry: entry["pid"],
    )


def test_notification_outlives_a_client_that_fails_after_the_flag_commits(live, monkeypatch):
    """The cascading client fails right after its flag commits: bob is still
    told, by every node alike, since the notification is the ledger value."""
    fed, users = live
    a = _publish(fed, "alice", "a")["artifact_pid"]
    b = _publish(fed, "bob", "b", a)["artifact_pid"]
    real_flag_affected = LedgerClient.flag_affected

    def flag_then_fail(self, targets, source_pid, timestamp=None):
        assert real_flag_affected(self, targets, source_pid, timestamp).ok
        raise OSError("client lost right after the commit")

    monkeypatch.setattr(LedgerClient, "flag_affected", flag_then_fail)
    code, body = invoke(fed, "--identity", "alice", "invalidate", a, "--cascade")
    assert code == cli.EXIT_IO, body
    monkeypatch.setattr(LedgerClient, "flag_affected", real_flag_affected)

    code, body = invoke(fed, "notifications")
    assert code == cli.EXIT_OK, body
    assert [(n["pid"], n["owner"], n["source_pid"]) for n in body["notifications"]] == [
        (b, "bob", a)
    ]
    assert body["notifications"][0]["timestamp"] == users["bob"]["ledger"].hlf_read(b).timestamp
    for peer in users["ruth"]["ledger"].peers.values():
        answer = peer("QUERY", {"op": "state"})
        assert (answer["height"], answer["tip_hash"]) == (body["height"], body["tip_hash"])
        assert notifications(answer["state"]) == body["notifications"]


def test_owner_invalidation_takes_an_artifact_off_the_notifications(live):
    """``notifications`` lists what is affected now; ``verify`` keeps the
    history of an affected artifact its owner then invalidated."""
    fed, users = live
    a = _publish(fed, "alice", "a")["artifact_pid"]
    b = _publish(fed, "bob", "b", a)["artifact_pid"]
    assert invoke(fed, "--identity", "alice", "invalidate", a, "--cascade")[0] == cli.EXIT_OK
    assert [n["pid"] for n in invoke(fed, "notifications")[1]["notifications"]] == [b]
    assert invoke(fed, "--identity", "bob", "invalidate", b)[0] == cli.EXIT_OK
    assert invoke(fed, "notifications")[1]["notifications"] == []
    code, body = invoke(fed, "verify", b)
    assert code == cli.EXIT_OK, body
    assert [h["status"] for h in body["ledger_history"]] == ["valid", "affected", "invalidated"]


def test_trace_reads_and_checks_every_document_on_every_run(live, monkeypatch):
    """Documents are decoded once per process, but each trace still reads
    and hashes every provenance document on the ledger: a document that
    attests none of the traced hops is tampered with, restored and deleted
    between traces of one process, and every trace sees it."""
    fed, users = live
    source = _publish(fed, "alice", "src")["artifact_pid"]
    derived = _publish(fed, "alice", "out", source)["artifact_pid"]
    other = _publish(fed, "bob", "other")
    reads = []
    real_fetch = ProvStore.fetch_bytes

    def counted(self, uri, checksum):
        reads.append(uri)
        return real_fetch(self, uri, checksum)

    monkeypatch.setattr(ProvStore, "fetch_bytes", counted)

    def trace():
        reads.clear()
        code, body = invoke(fed, "trace", derived)
        return code, body, len(reads)

    code, first, first_reads = trace()
    assert code == cli.EXIT_OK, first
    assert len(first["paths"]) == 1
    assert trace() == (cli.EXIT_OK, first, first_reads)

    blob = fed.store.blob_path(other["doc_checksum"])
    payload = blob.read_bytes()
    blob.write_bytes(bytes([payload[0] ^ 0x01]) + payload[1:])
    code, body, _ = trace()
    assert (code, body["error_type"]) == (cli.EXIT_MISMATCH, "ChecksumMismatchError")

    blob.write_bytes(payload)
    code, body, restored_reads = trace()
    assert code == cli.EXIT_OK
    assert json.dumps(body, indent=2, sort_keys=True) == json.dumps(first, indent=2, sort_keys=True)
    assert restored_reads == first_reads

    blob.unlink()
    code, body, _ = trace()
    assert (code, body["error_type"]) == (cli.EXIT_MISMATCH, "DocumentNotFoundError")


def _count_view_work(monkeypatch) -> collections.Counter:
    """Count the node's state dumps, the CLI's graph builds and blob reads."""
    from fedprov.ledger.node import OrgNode

    counts = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(OrgNode, "state_dump", counting("state_dump", OrgNode.state_dump))
    monkeypatch.setattr(cli, "build_graph", counting("build_graph", cli.build_graph))
    monkeypatch.setattr(ProvStore, "fetch_bytes", counting("fetch_bytes", ProvStore.fetch_bytes))
    return counts


def test_trace_reuses_the_view_of_an_unchanged_tip_only(live, monkeypatch):
    """A second trace at an unchanged tip ships no state and builds no
    graph, yet reads as many blobs and prints the same bytes. A publish
    moves the tip: the next trace reads the state and builds the graph
    again, and lists the new edge. A build that raises is not kept."""
    fed, users = live
    monkeypatch.setattr(cli, "_tip_view", None)
    source = _publish(fed, "alice", "src")["artifact_pid"]
    derived = _publish(fed, "alice", "out", source)["artifact_pid"]
    counts = _count_view_work(monkeypatch)

    def trace(pid):
        counts.clear()
        code, body = invoke(fed, "trace", pid)
        assert code == cli.EXIT_OK, body
        return json.dumps(body, indent=2, sort_keys=True), dict(counts)

    first, first_counts = trace(derived)
    assert first_counts["state_dump"] == first_counts["build_graph"] == 1
    assert first_counts["fetch_bytes"] > 0
    second, second_counts = trace(derived)
    assert second == first
    assert second_counts == {"fetch_bytes": first_counts["fetch_bytes"]}

    later = _publish(fed, "bob", "later", derived)["artifact_pid"]
    body, counts_after = trace(later)
    assert counts_after["state_dump"] == counts_after["build_graph"] == 1
    hops = [step["artifact"] for step in json.loads(body)["paths"][0]["steps"]
            if "artifact" in step]
    assert hops == [later, derived, source]

    real_build = cli.build_graph

    def failing_build(*args):
        raise FedprovError("build failed")

    monkeypatch.setattr(cli, "_tip_view", None)
    monkeypatch.setattr(cli, "build_graph", failing_build)
    assert invoke(fed, "trace", later)[0] == cli.EXIT_ERROR
    assert cli._tip_view is None
    monkeypatch.setattr(cli, "build_graph", real_build)
    assert trace(later)[0] == body


def test_cascade_affects_the_same_artifacts_with_or_without_a_held_view(live, monkeypatch):
    """Two like chains: one cascade runs with no view held, the other after a
    trace left the view of the tip before its invalidation. Both flag their
    whole chain, and a trace afterwards reads the flags, not a held view."""
    fed, users = live

    def chain(tag):
        root = _publish(fed, "alice", f"{tag}-root")["artifact_pid"]
        middle = _publish(fed, "alice", f"{tag}-mid", root)["artifact_pid"]
        leaf = _publish(fed, "bob", f"{tag}-leaf", middle)["artifact_pid"]
        return root, middle, leaf

    def cascade(root):
        code, body = invoke(fed, "--identity", "alice", "invalidate", root, "--cascade")
        assert code == cli.EXIT_OK, body
        return body["affected"]

    first, second = chain("a"), chain("b")
    monkeypatch.setattr(cli, "_tip_view", None)
    without_view = cascade(first[0])
    assert invoke(fed, "trace", second[2])[0] == cli.EXIT_OK
    assert cli._tip_view is not None
    with_view = cascade(second[0])
    assert without_view == [{"pid": pid, "status": "affected"} for pid in sorted(first[1:])]
    assert with_view == [{"pid": pid, "status": "affected"} for pid in sorted(second[1:])]
    code, body = invoke(fed, "trace", second[2])
    assert code == cli.EXIT_OK
    assert [step["status"] for step in body["paths"][0]["steps"] if "artifact" in step] == [
        "affected", "affected", "invalidated"]


def test_verify_reports_a_blob_that_vanishes_after_the_check(live, monkeypatch):
    """A blob removed between an existence check and the read is a missing
    blob, reported as a MISMATCH naming its URI, not a file I/O error."""
    fed, users = live
    published = _publish(fed, "alice", "src")
    checksum = published["artifact_checksum"]
    blob = fed.store.blob_path(checksum)
    blob.unlink()
    real_exists = Path.exists
    monkeypatch.setattr(Path, "exists", lambda self: self == blob or real_exists(self))
    code, body = invoke(fed, "verify", published["artifact_pid"])
    assert code == cli.EXIT_MISMATCH, body
    assert body["result"] == "MISMATCH"
    assert any(f"cas://{checksum}" in mismatch for mismatch in body["mismatches"])


def test_threads_share_one_parser(live, monkeypatch):
    """Two threads each make 50 ``trace`` and ``verify`` runs against one
    federation; each answer equals the same run made alone, and the
    process builds its argument parser once."""
    fed, users = live
    source = _publish(fed, "alice", "src")["artifact_pid"]
    derived = _publish(fed, "alice", "out", source)["artifact_pid"]
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.prog == "fedprov":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    calls = [("trace", derived), ("verify", derived), ("trace", source), ("verify", source)]
    alone = {call: invoke(fed, *call) for call in calls}
    assert all(code == cli.EXIT_OK for code, _ in alone.values()), alone
    differing = []

    def client(offset):
        for n in range(50):
            call = calls[(n + offset) % len(calls)]
            if invoke(fed, *call) != alone[call]:
                differing.append(call)

    threads = [threading.Thread(target=client, args=(offset,)) for offset in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert differing == []
    assert len(built) == 1
