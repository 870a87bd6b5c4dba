"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

from conftest import act, doc, ent, publish_raw, register_default_users, rel
from fedprov import cli, identity as identity_mod
from fedprov.harness import Federation
from fedprov.ledger import chaincode
from fedprov.ledger.blocks import verify_chain_file
from fedprov.lineage import DerivationGraph, EdgeAttestation, cascade_targets
from fedprov.prov import ProvDocument
from fedprov.prov_store import DECOMPOSITION, ENRICHMENT, ILLEGAL, classify_update
from fedprov.errors import FedprovError, IllegalUpdateError
from fedprov.scenarios import runner as scenario_runner
from fedprov.scenarios import uc2_cascade


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_update_algorithm_conformance(tmp_path):
    """8/8 (caller x pid) cases reproduce exactly the three outcomes, < 1 s."""
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        users = register_default_users(fed)
        alice, bob, ruth = users["alice"], users["bob"], users["ruth"]
        grant_for = lambda pid: identity_mod.grant_permission(  # noqa: E731
            pid, "bob", "update-provenance", alice["identity"], alice["key"]
        )

        started = time.monotonic()
        results = []

        def case(caller_name, client, pid, exists, permission=None):
            if exists:
                assert client is not None
            receipt = client.hlf_update_prov(
                pid, "cas://new", "c-new", 2, "21.P/new", permission=permission
            )
            value = alice["ledger"].hlf_read(pid)
            results.append((caller_name, exists, receipt.message,
                            value.version if value else None))

        # One fresh record per existing-pid case so version arithmetic is clean.
        for index, (name, user, permission_needed) in enumerate(
            [("owner", alice, False), ("granted", bob, True),
             ("stranger", bob, False), ("consumer", ruth, False)]
        ):
            pid = f"21.P/case{index}"
            assert publish_raw(alice["ledger"], f"21.P/art{index}",
                               prov=(pid, "cas://v1", "c1")).ok
            permission = grant_for(pid) if permission_needed else None
            case(name, user["ledger"], pid, True, permission)
            missing = f"21.P/missing{index}"
            missing_permission = grant_for(missing) if permission_needed else None
            case(name, user["ledger"], missing, False, missing_permission)

        elapsed = time.monotonic() - started
        expected = {
            ("owner", True): (chaincode.MSG_UPDATED, 2),
            ("owner", False): (chaincode.MSG_NOT_FOUND, None),
            ("granted", True): (chaincode.MSG_UPDATED, 2),
            ("granted", False): (chaincode.MSG_NOT_FOUND, None),
            ("stranger", True): (chaincode.MSG_UNAUTHORIZED, 1),
            ("stranger", False): (chaincode.MSG_NOT_FOUND, None),
            ("consumer", True): (chaincode.MSG_UNAUTHORIZED, 1),
            ("consumer", False): (chaincode.MSG_UNAUTHORIZED, None),
        }
        passed = 0
        for caller_name, exists, message, version in results:
            want_message, want_version = expected[(caller_name, exists)]
            if message == want_message and version == want_version:
                passed += 1
        _report(
            "criterion-1 update-algorithm conformance",
            passed == 8 and elapsed < 1.0,
            f"{passed}/8 cases, {elapsed:.3f}s",
        )
    finally:
        fed.stop()


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_crud_matrix_enforcement(tmp_path):
    """1000 randomized sequences: no forbidden mutation ever changes state."""
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        users = register_default_users(fed)
        rng = random.Random(0xC0FFEE)
        clients = {
            "alice": users["alice"]["ledger"],
            "bob": users["bob"]["ledger"],
            "ruth": users["ruth"]["ledger"],
        }
        artifacts: list[str] = []
        provs: list[str] = []
        counter = [0]
        started = time.monotonic()
        violations = []
        forbidden_attempts = 0
        accepted_mutations = 0

        def fresh_pid():
            counter[0] += 1
            return f"21.P/r{counter[0]:05d}"

        def any_pid(pool):
            if pool and rng.random() < 0.8:
                return rng.choice(pool)
            return f"21.P/ghost{rng.randrange(10)}"

        def next_version(client, pid):
            """The version an update writes: the one read just before, plus one."""
            value = client.hlf_read(pid)
            return (value.version if value else 1) + 1

        node = fed.nodes["OrgA"]
        for _ in range(1000):
            for _ in range(rng.randint(1, 2)):
                op = rng.choice(
                    ["publish", "update-prov", "update-artifact", "invalidate-artifact",
                     "invalidate-prov", "read"]
                )
                caller_name = rng.choice(["alice", "alice", "bob", "ruth"])
                client = clients[caller_name]
                before = node.state_digest()
                changed_expected = False
                if op == "read":
                    client.hlf_read(any_pid(artifacts + provs))
                elif op == "publish":
                    pid, prov_pid = fresh_pid(), fresh_pid()
                    receipt = publish_raw(client, pid, "cas://a", "ca", [caller_name],
                                          prov=(prov_pid, "cas://p", "cp"))
                    if receipt.ok:
                        artifacts.append(pid)
                        provs.append(prov_pid)
                        changed_expected = True
                elif op == "update-prov":
                    pid = any_pid(provs)
                    receipt = client.hlf_update_prov(
                        pid, "cas://u", f"cu{counter[0]}", next_version(client, pid), "21.P/u"
                    )
                    changed_expected = receipt.ok
                elif op == "update-artifact":
                    forbidden_attempts += 1
                    pid = any_pid(artifacts)
                    receipt = client.hlf_update_prov(pid, "cas://u", "cu",
                                                     next_version(client, pid), "21.P/u")
                    changed_expected = False
                elif op == "invalidate-artifact":
                    receipt = client.hlf_invalidate(any_pid(artifacts))
                    changed_expected = receipt.ok and receipt.message == chaincode.MSG_INVALIDATED
                elif op == "invalidate-prov":
                    forbidden_attempts += 1
                    receipt = client.hlf_invalidate(any_pid(provs))
                    changed_expected = False
                after = node.state_digest()
                changed = after != before
                if changed != changed_expected:
                    violations.append((op, caller_name, changed, changed_expected))
                if changed:
                    accepted_mutations += 1
                    if op in ("update-artifact", "invalidate-prov"):
                        violations.append((op, caller_name, "forbidden-cell-mutated", ""))

        elapsed = time.monotonic() - started
        _report(
            "criterion-2 CRUD-matrix enforcement",
            not violations and elapsed < 60 and forbidden_attempts > 100,
            f"{accepted_mutations} permitted mutations, "
            f"{forbidden_attempts} forbidden attempts, 0 leaks expected, "
            f"got {len(violations)}, {elapsed:.1f}s",
        )
    finally:
        fed.stop()


# -- criterion 3 --------------------------------------------------------------


@pytest.fixture(scope="module")
def criterion_3_run(tmp_path_factory):
    """200 random single-byte mutations (seed 0x7A3B) of a 50-block ledger,
    each written into the ledger file of a running OrgA node and audited
    twice: once by a full replay of the file and once by the node itself.

    Both criterion-3 tests read this one run. ``elapsed`` times writing the
    mutations and the full audits; the node's audits are subtracted."""
    fed = Federation.bootstrap(tmp_path_factory.mktemp("criterion3") / "fed")
    try:
        alice = register_default_users(fed)["alice"]["ledger"]
        for i in range(50):
            assert publish_raw(alice, f"21.P/b{i:03d}", f"cas://{i}", f"c{i}").ok
        node = fed.nodes["OrgA"]
        path = node.store.path
        payload = path.read_bytes()
        orgs, policy = fed.config.orgs_map(), fed.config.endorsement_policy
        run = {"height": node.height(), "payload": payload, "mutations": []}
        run["clean_before"] = node.verify_chain()
        rng = random.Random(0x7A3B)
        started = time.monotonic()
        node_audits = 0.0
        while len(run["mutations"]) < 200:
            position = rng.randrange(len(payload))
            mutated = bytearray(payload)
            mutated[position] ^= 1 << rng.randrange(8)
            if bytes(mutated) == payload:
                continue
            path.write_bytes(bytes(mutated))
            full = verify_chain_file(path, orgs, policy)
            audit_started = time.monotonic()
            own = node.verify_chain()
            node_audits += time.monotonic() - audit_started
            run["mutations"].append((position, full, own))
        run["elapsed"] = time.monotonic() - started - node_audits
        path.write_bytes(payload)
        run["clean_after"] = node.verify_chain()
        return run
    finally:
        fed.stop()


def test_criterion_3_tamper_evidence(criterion_3_run):
    """200 random single-byte mutations of a 50-block ledger: 200/200 flagged."""
    run = criterion_3_run
    assert run["height"] == 50
    payload = run["payload"]
    offsets = []
    start = 0
    while start < len(payload):
        end = payload.find(b"\n", start)
        end = len(payload) if end == -1 else end
        offsets.append(start)
        start = end + 1

    def height_of(position):
        height = 0
        for index, line_start in enumerate(offsets):
            if position >= line_start:
                height = index
        return height

    detected = 0
    for position, report, _ in run["mutations"]:
        if (
            not report.ok
            and report.first_divergent_height is not None
            and report.first_divergent_height <= height_of(position)
        ):
            detected += 1
    elapsed = run["elapsed"]
    _report(
        "criterion-3 tamper evidence",
        detected == 200 and elapsed < 30,
        f"{detected}/200 flagged within bound, {elapsed:.1f}s",
    )


def test_criterion_3_mutations_report_alike_with_a_checkpoint(criterion_3_run):
    """Each of criterion 3's 200 mutations, written into the ledger file of
    a running node, gets from the node's audit exactly a full audit's report,
    and the restored file gets the clean report again."""
    run = criterion_3_run
    clean = {"ok": True, "first_divergent_height": None, "findings": []}
    assert run["clean_before"] == clean
    assert len(run["mutations"]) == 200
    for position, full, own in run["mutations"]:
        assert not full.ok, position
        assert own == full.to_dict(), position
    assert run["clean_after"] == clean


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_replicated_determinism(tmp_path, frozen_clock, monkeypatch):
    """UC1-UC5 on a 3-node loopback federation, 5x: identical digests."""
    run_reports = []
    for attempt in range(5):
        fed = Federation.bootstrap(tmp_path / f"fed{attempt}", use_tcp=True)
        monkeypatch.setenv("FEDPROV_KEYDIR", str(fed.config.keys_dir))
        try:
            run_reports.append(scenario_runner.run_all(str(fed.config_path)))
        finally:
            fed.stop()
    cross_node_ok = all(
        len({n["state_digest"] for n in report["nodes"].values()}) == 1
        for report in run_reports
    )
    digests = [
        sorted(n["state_digest"] for n in report["nodes"].values())
        for report in run_reports
    ]
    cross_run_ok = all(d == digests[0] for d in digests)
    pids = [report["scenarios"]["uc2"]["pids"] for report in run_reports]
    pids_ok = all(p == pids[0] for p in pids)
    _report(
        "criterion-4 replicated determinism",
        cross_node_ok and cross_run_ok and pids_ok,
        f"5 runs, digest {digests[0][0][:12]}…",
    )


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_cascade_correctness(tmp_path, monkeypatch):
    """Linked-experiments fixture: invalidating B affects exactly {D, E}; oracle on 100 DAGs."""
    started = time.monotonic()
    fed = Federation.bootstrap(tmp_path / "fed", use_tcp=True)
    monkeypatch.setenv("FEDPROV_KEYDIR", str(fed.config.keys_dir))
    try:
        result = uc2_cascade.run(str(fed.config_path))
        affected = {entry["pid"] for entry in result["affected"]}
        fixture_ok = affected == {result["pids"]["D"], result["pids"]["E"]}
    finally:
        fed.stop()

    def brute_force_descendants(graph, pid):
        out = set()

        def visit(node):
            for (src, dst) in graph.edges:
                if src == node and dst not in out:
                    out.add(dst)
                    visit(dst)

        visit(pid)
        out.discard(pid)
        return out

    rng = random.Random(0xDA6)
    oracle_ok = True
    for _ in range(100):
        node_count = rng.randint(1, 10)
        graph = DerivationGraph()
        names = [f"pid/n{i}" for i in range(node_count)]
        for name in names:
            graph.add_node(name)
        for i in range(node_count):
            for j in range(i + 1, node_count):
                if rng.random() < 0.35:
                    graph.add_edge(
                        names[i], names[j],
                        EdgeAttestation("d", 1, "u", "c", None),
                    )
        for name in names:
            if cascade_targets(name, graph) != brute_force_descendants(graph, name):
                oracle_ok = False
    elapsed = time.monotonic() - started
    _report(
        "criterion-5 cascade correctness",
        fixture_ok and oracle_ok and elapsed < 30,
        f"fixture affected ok={fixture_ok}, 100 random DAGs ok={oracle_ok}, {elapsed:.1f}s",
    )


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_version_chain_integrity(tmp_path):
    """5 consecutive atomic updates: versions 1..6, byte-exact history."""
    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        users = register_default_users(fed)
        alice = users["alice"]
        base = doc(
            entities=[ent("e-x", "record subject")],
            activities=[act("a-x", "analysis")],
            relations=[rel("was-generated-by", "e-x", "a-x")],
        )
        uri, checksum, _ = fed.store.store_document(base)
        registry = fed.client(alice["identity"], alice["key"]).registry()
        record = registry.mint()
        assert publish_raw(alice["ledger"], "21.P/subject",
                           prov=(record["pid"], uri, checksum)).ok

        updater = fed.client(alice["identity"], alice["key"]).updater()
        newest_pid = record["pid"]
        current = base
        for round_number in range(5):
            revised = ProvDocument.from_dict(current.to_dict())
            revised.entities[0] = dataclasses.replace(
                revised.entities[0],
                attributes={**revised.entities[0].attributes, f"round{round_number}": True},
            )
            outcome = updater.update(newest_pid, revised, alice["identity"])
            newest_pid = outcome.new_pid
            current = revised

        chain = registry.version_history(record["pid"])
        versions_ok = [r["version_number"] for r in chain] == [1, 2, 3, 4, 5, 6]
        fetch_ok = True
        for entry in chain:
            payload = fed.store.fetch_bytes(entry["target_uri"], entry["checksum"])
            fetch_ok = fetch_ok and bool(payload)
        ledger_value = alice["ledger"].hlf_read(record["pid"])
        agreement_ok = chain[-1]["version_number"] == ledger_value.version == 6
        _report(
            "criterion-6 version-chain integrity",
            versions_ok and fetch_ok and agreement_ok,
            f"versions {[r['version_number'] for r in chain]}, ledger v{ledger_value.version}",
        )
    finally:
        fed.stop()


# -- criterion 7 --------------------------------------------------------------


def _uc4_documents():
    old = doc(
        entities=[ent("e-results", "results", artifact_pid="21.P/000001", checksum="cr"),
                  ent("e-code", "private code")],
        activities=[act("a-analyze", "analysis")],
        relations=[rel("used", "a-analyze", "e-code"),
                   rel("was-generated-by", "e-results", "a-analyze")],
    )
    new = ProvDocument.from_dict(old.to_dict())
    new.entities = [
        e if e.local_id != "e-code"
        else dataclasses.replace(e, artifact_pid="21.P/000002", checksum="cc")
        for e in new.entities
    ]
    return old, new


def _uc5_documents():
    old = doc(
        entities=[ent("e-in", "input", artifact_pid="21.P/000001", checksum="ci"),
                  ent("e-out", "output", artifact_pid="21.P/000002", checksum="co")],
        activities=[act("a-proc", "processing")],
        relations=[rel("used", "a-proc", "e-in"),
                   rel("was-generated-by", "e-out", "a-proc")],
    )
    new = ProvDocument.from_dict(old.to_dict())
    new.activities.extend([
        act("a-clean", "screening", parent_activity="a-proc"),
        act("a-grid", "gridding", parent_activity="a-proc"),
    ])
    new.entities.append(ent("e-mid", "intermediate"))
    new.relations = [
        rel("used", "a-clean", "e-in"),
        rel("was-generated-by", "e-mid", "a-clean"),
        rel("used", "a-grid", "e-mid"),
        rel("was-generated-by", "e-out", "a-grid"),
    ]
    return old, new


def _mutate_document(base: ProvDocument, rng: random.Random) -> ProvDocument:
    """A random edit that removes or alters original content."""
    mutated = ProvDocument.from_dict(base.to_dict())
    choice = rng.choice(
        ["drop-entity", "drop-relation", "change-label", "change-attr",
         "drop-activity", "reorder-activities", "change-pid"]
    )
    if choice == "drop-entity" and mutated.entities:
        victim = rng.choice(mutated.entities).local_id
        mutated.entities = [e for e in mutated.entities if e.local_id != victim]
        mutated.relations = [
            r for r in mutated.relations if victim not in (r.source, r.target)
        ]
    elif choice == "drop-relation" and mutated.relations:
        victim = rng.randrange(len(mutated.relations))
        mutated.relations = [
            r for i, r in enumerate(mutated.relations) if i != victim
        ]
    elif choice == "change-label" and mutated.entities:
        index = rng.randrange(len(mutated.entities))
        mutated.entities[index] = dataclasses.replace(
            mutated.entities[index], label="REWRITTEN"
        )
    elif choice == "change-attr":
        index = rng.randrange(len(mutated.activities))
        mutated.activities[index] = dataclasses.replace(
            mutated.activities[index], label="REWRITTEN"
        )
    elif choice == "drop-activity" and mutated.activities:
        victim = mutated.activities[0].local_id
        mutated.activities = mutated.activities[1:]
        mutated.relations = [
            r for r in mutated.relations if victim not in (r.source, r.target)
        ]
    elif choice == "reorder-activities" and len(mutated.activities) >= 2:
        mutated.activities = list(reversed(mutated.activities))
    elif choice == "change-pid" and any(e.artifact_pid for e in mutated.entities):
        index = next(
            i for i, e in enumerate(mutated.entities) if e.artifact_pid
        )
        mutated.entities[index] = dataclasses.replace(
            mutated.entities[index], artifact_pid="21.P/887766"
        )
    else:
        return _mutate_document(base, rng)
    if mutated.checksum() == base.checksum():
        return _mutate_document(base, rng)
    return mutated


def test_criterion_7_update_classification(tmp_path):
    """UC4 => enrichment, UC5 => decomposition, 50 destructive edits => illegal + rollback."""
    uc4_old, uc4_new = _uc4_documents()
    uc5_old, uc5_new = _uc5_documents()
    uc4_ok = classify_update(uc4_old, uc4_new) == ENRICHMENT
    uc5_ok = classify_update(uc5_old, uc5_new) == DECOMPOSITION

    fed = Federation.bootstrap(tmp_path / "fed")
    try:
        users = register_default_users(fed)
        alice = users["alice"]
        base = doc(
            entities=[ent("e-a", "subject"), ent("e-b", "context", attributes={"k": "v"})],
            activities=[act("a-1", "first"), act("a-2", "second")],
            relations=[rel("used", "a-1", "e-a"),
                       rel("was-generated-by", "e-b", "a-2")],
        )
        uri, checksum, _ = fed.store.store_document(base)
        registry = fed.client(alice["identity"], alice["key"]).registry()
        record = registry.mint()
        assert publish_raw(alice["ledger"], "21.P/subject",
                           prov=(record["pid"], uri, checksum)).ok
        updater = fed.client(alice["identity"], alice["key"]).updater()

        rng = random.Random(0x50C1A1)
        illegal_count = 0
        rollback_count = 0
        for _ in range(50):
            mutated = _mutate_document(base, rng)
            if classify_update(base, mutated) == ILLEGAL:
                illegal_count += 1
            before = fed.system_digest()
            try:
                updater.update(record["pid"], mutated, alice["identity"])
            except (IllegalUpdateError, FedprovError):
                if fed.system_digest() == before:
                    rollback_count += 1
        _report(
            "criterion-7 update classification",
            uc4_ok and uc5_ok and illegal_count == 50 and rollback_count == 50,
            f"uc4=enrichment:{uc4_ok}, uc5=decomposition:{uc5_ok}, "
            f"{illegal_count}/50 illegal, {rollback_count}/50 rolled back",
        )
    finally:
        fed.stop()


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_end_to_end_lineage(tmp_path, monkeypatch):
    """Trace image -> model -> dataset with verified hops; corruption breaks it."""
    from fedprov.scenarios import uc1_lineage

    fed = Federation.bootstrap(tmp_path / "fed", use_tcp=True)
    monkeypatch.setenv("FEDPROV_KEYDIR", str(fed.config.keys_dir))
    try:
        result = uc1_lineage.run(str(fed.config_path))
        code, trace = cli.run(
            ["--config", str(fed.config_path), "trace", result["image_pid"]]
        )
        path_ok = (
            code == cli.EXIT_OK
            and len(trace["paths"]) == 1
            and [s["artifact"] for s in trace["paths"][0]["steps"] if "artifact" in s]
            == [result["image_pid"], result["model_pid"], result["dataset_pid"]]
        )
        attestations = [
            s["attested_by"] for s in trace["paths"][0]["steps"] if "attested_by" in s
        ]
        soundness_ok = True
        for attestation in attestations:
            blob = fed.store.blob_path(attestation["checksum"])
            original = blob.read_bytes()
            corrupted = bytearray(original)
            corrupted[5] ^= 0x01
            blob.write_bytes(bytes(corrupted))
            code, body = cli.run(
                ["--config", str(fed.config_path), "trace", result["image_pid"]]
            )
            soundness_ok = soundness_ok and code == cli.EXIT_MISMATCH
            blob.write_bytes(original)
        _report(
            "criterion-8 end-to-end lineage",
            path_ok and soundness_ok and len(attestations) == 2,
            f"path ok={path_ok}, corruption detected at {len(attestations)}/2 hops",
        )
    finally:
        fed.stop()
