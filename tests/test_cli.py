"""CLI behavior: exit-code contract, verification, federation actions."""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import publish_raw, register_default_users
from fedprov import cli, identity as identity_mod, transport
from fedprov.harness import Federation
from fedprov.ledger.client import LedgerClient, Receipt
from fedprov.transport import TcpTransport


@pytest.fixture()
def live(tcp_fed, monkeypatch):
    users = register_default_users(tcp_fed)
    monkeypatch.setenv("FEDPROV_KEYDIR", str(tcp_fed.config.keys_dir))
    return tcp_fed, users


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
def test_publish_orders_nothing_when_a_create_is_refused(live, refused):
    """Both creates are endorsed before either is ordered, so a refused one
    leaves no artifact on the ledger without its provenance record; the PIDs
    it reserved never resolve, and the next publish reserves fresh PIDs."""
    fed, users = live
    next_suffix = fed.registry._next_suffix()
    offset = 0 if refused == "artifact" else 1
    squatted = f"{fed.config.pid_prefix}/{str(int(next_suffix) + offset).zfill(len(next_suffix))}"
    alice = users["alice"]["ledger"]
    if refused == "artifact":
        assert publish_raw(alice, squatted, "cas://squat", "squat").ok
    else:
        assert publish_raw(alice, "21.P/squatter", prov=(squatted, "cas://squat", "squat")).ok
    heights = {org: node.height() for org, node in fed.nodes.items()}
    registry_digest = fed.registry.state_digest()

    file_path = write_sample(fed, "d.csv", "a,b\n1,2\n")
    doc_path = write_doc(fed, "d.json", simple_doc_dict())
    code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_DUPLICATE
    assert body["receipt"]["status"] == "REJECTED"
    assert {org: node.height() for org, node in fed.nodes.items()} == heights
    assert fed.registry.state_digest() == registry_digest
    for reserved in (0, 1):
        pid = f"{fed.config.pid_prefix}/{str(int(next_suffix) + reserved).zfill(len(next_suffix))}"
        code, _ = invoke(fed, "verify", pid)
        assert code == cli.EXIT_UNKNOWN_PID

    code, body = invoke(fed, "--identity", "alice", "publish", file_path, doc_path)
    assert code == cli.EXIT_OK
    assert squatted not in (body["artifact_pid"], body["prov_pid"])


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

    fed = Federation.bootstrap(tmp_path / "fed", use_tcp=True, endorsement_policy=POLICY_ALL)
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

    ports = free_ports(4)
    config = json.loads(fed.config_path.read_text())
    for org, port in zip(config["organizations"], ports):
        org["listen-address"] = f"127.0.0.1:{port}"
    config["registry-address"] = f"127.0.0.1:{ports[3]}"
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


def test_federation_status_and_verify_chain(live):
    fed, users = live
    code, body = invoke(fed, "federation", "status")
    assert code == cli.EXIT_OK
    assert body["consistent"]
    code, body = invoke(fed, "federation", "verify-chain")
    assert code == cli.EXIT_OK
    assert body["all_clear"]


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
    registry = fed.client(alice["identity"], alice["key"]).registry()
    store = fed.store
    ledger = alice["ledger"]

    uri_x, sum_x, _ = store.store_bytes(b"x")
    uri_y, sum_y, _ = store.store_bytes(b"y")
    pid_x = registry.mint("artifact", uri_x, sum_x)["pid"]
    pid_y = registry.mint("artifact", uri_y, sum_y)["pid"]
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
        prov_pid = registry.mint("provenance-record", doc_uri, doc_sum)["pid"]
        assert publish_raw(ledger, dst, *locations[dst], prov=(prov_pid, doc_uri, doc_sum)).ok

    code, body = invoke(fed, "trace", pid_x)
    assert code == cli.EXIT_CYCLE


def test_start_node_subprocess_federation(tmp_path):
    """Spawn real node processes from the CLI and run a command against them."""
    from fedprov.federation import FederationConfig, OrgEntry, init_federation
    from fedprov.harness import free_ports
    from fedprov.identity import RegistrationService

    root = tmp_path / "fed"
    root.mkdir()
    ports = free_ports(4)
    entries = [
        OrgEntry("OrgA", "producer", f"127.0.0.1:{ports[0]}"),
        OrgEntry("OrgB", "producer", f"127.0.0.1:{ports[1]}"),
        OrgEntry("Readers", "consumer-read-only", f"127.0.0.1:{ports[2]}"),
    ]
    config = FederationConfig(
        organizations=entries,
        registry_address=f"127.0.0.1:{ports[3]}", base_dir=root,
    )
    config_path = root / "federation.json"
    config.save(config_path)
    init_federation(config_path)

    config = FederationConfig.load(config_path)
    service = RegistrationService.load(
        config.orgs_map().values(), config.ca_dir, config.identities_dir, config.keys_dir
    )
    service.register_user("OrgA", "alice")

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
    assert not (fed.config.outbox_dir / "OrgA.jsonl").exists()
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
    assert mint["predecessor"] == prov_pid
    assert kinds.count("HISTORY") == 1

    sent.clear()
    code, body = invoke(fed, "verify", prov_pid)
    assert (code, body["result"], body["ledger_version"]) == (cli.EXIT_OK, "VERIFIED", 2)
    assert len(sent) == 2


def test_cascade_loads_the_identity_directory_once(live, monkeypatch):
    fed, users = live
    source = _publish(fed, "alice", "src")["artifact_pid"]
    mine = _publish(fed, "alice", "mine", source)["artifact_pid"]
    theirs = _publish(fed, "bob", "theirs", source)["artifact_pid"]
    loads = []
    real_load = identity_mod.load_identity_directory

    def counted(directory):
        loads.append(directory)
        return real_load(directory)

    monkeypatch.setattr(identity_mod, "load_identity_directory", counted)
    code, body = invoke(fed, "--identity", "alice", "invalidate", source, "--cascade")
    assert code == cli.EXIT_OK, body
    assert sorted(body["affected"], key=lambda a: a["pid"]) == sorted(
        [{"pid": mine, "status": "affected"}, {"pid": theirs, "status": "affected"}],
        key=lambda a: a["pid"],
    )
    assert len(loads) == 1

    def outbox(org):
        lines = (fed.config.outbox_dir / f"{org}.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    for org, owner, pid in (("OrgA", "alice", mine), ("OrgB", "bob", theirs)):
        (line,) = outbox(org)
        assert line.pop("timestamp")
        assert line == {"pid": pid, "new_status": "affected", "source_pid": source,
                        "owner": owner, "org": org}
