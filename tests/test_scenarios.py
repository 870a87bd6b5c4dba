"""The executable scenario scripts, replayed on a loopback federation."""

from __future__ import annotations

import pytest

from fedprov.harness import Federation
from fedprov.scenarios import runner, uc1_lineage, uc2_cascade, uc3_iterations


@pytest.fixture()
def scenario_fed(tmp_path, frozen_clock, monkeypatch):
    federation = Federation.bootstrap(tmp_path / "fed", use_tcp=True)
    monkeypatch.setenv("FEDPROV_KEYDIR", str(federation.config.keys_dir))
    yield federation
    federation.stop()


def test_uc1_trace_reaches_dataset(scenario_fed):
    result = uc1_lineage.run(str(scenario_fed.config_path))
    paths = result["trace"]["paths"]
    assert len(paths) == 1
    artifacts = [s["artifact"] for s in paths[0]["steps"] if "artifact" in s]
    assert artifacts == [
        result["image_pid"], result["model_pid"], result["dataset_pid"]
    ]
    attested = [s["attested_by"] for s in paths[0]["steps"] if "attested_by" in s]
    assert len(attested) == 2
    assert {a["doc_pid"] for a in attested} == {
        result["prov_pids"]["model"], result["prov_pids"]["image"]
    }


def test_uc2_cascade_flags_exactly_d_and_e(scenario_fed):
    result = uc2_cascade.run(str(scenario_fed.config_path))
    affected = {entry["pid"] for entry in result["affected"]}
    assert affected == {result["pids"]["D"], result["pids"]["E"]}
    # A's branch is untouched.
    from fedprov import cli

    ctx = cli.ClientContext.build(str(scenario_fed.config_path), None)
    ledger = ctx.ledger()
    assert ledger.hlf_read(result["pids"]["A"]).status == "valid"
    assert ledger.hlf_read(result["pids"]["C"]).status == "valid"
    assert ledger.hlf_read(result["pids"]["B"]).status == "invalidated"
    outbox = scenario_fed.config.outbox_dir
    assert any(outbox.glob("*.jsonl"))
    # An affected artifact still verifies: content is intact, status surfaced.
    code, body = cli.run(
        ["--config", str(scenario_fed.config_path), "verify", result["pids"]["D"]]
    )
    assert code == cli.EXIT_OK
    assert body["result"] == "VERIFIED"
    assert body["status"] == "affected"


def test_uc3_iterations_surface_cascade_status(scenario_fed):
    """Invalidating the first checkpoint marks later iterations affected."""
    from fedprov import cli
    from fedprov.lineage import build_graph, collect_documents, iteration_history

    result = uc3_iterations.run(str(scenario_fed.config_path))
    first = result["checkpoint_pids"][0]
    code, body = cli.run(
        ["--config", str(scenario_fed.config_path), "--identity", "bob",
         "invalidate", first, "--cascade", "--reason", "training data withdrawn"]
    )
    assert code == cli.EXIT_OK
    ctx = cli.ClientContext.build(str(scenario_fed.config_path), None)
    state = ctx.ledger().state_dump()
    graph = build_graph(collect_documents(state, ctx.store()), state)
    history = iteration_history(result["checkpoint_pids"][-1], graph)
    assert [e.status for e in history] == ["invalidated", "affected", "affected"]


def test_runner_replays_all_and_nodes_agree(scenario_fed):
    report = runner.run_all(str(scenario_fed.config_path))
    assert set(report["scenarios"]) == {"uc1", "uc2", "uc3", "uc4", "uc5"}
    assert report["scenarios"]["uc3"]["iterations"][0]["artifact_pid"] == \
        report["scenarios"]["uc3"]["checkpoint_pids"][0]
    assert report["scenarios"]["uc4"]["classification"] == "enrichment"
    assert report["scenarios"]["uc4"]["chain_versions"] == [1, 2]
    assert report["scenarios"]["uc5"]["classification"] == "decomposition"
    assert report["scenarios"]["uc5"]["chain_versions"] == [1, 2]
    digests = {n["state_digest"] for n in report["nodes"].values()}
    assert len(digests) == 1
    heights = {n["height"] for n in report["nodes"].values()}
    assert len(heights) == 1


def test_runs_are_reproducible(tmp_path, frozen_clock, monkeypatch):
    """Fresh federation + frozen clock => identical PIDs and digests."""
    reports = []
    for attempt in range(2):
        federation = Federation.bootstrap(tmp_path / f"fed{attempt}", use_tcp=True)
        monkeypatch.setenv("FEDPROV_KEYDIR", str(federation.config.keys_dir))
        try:
            reports.append(runner.run_all(str(federation.config_path)))
        finally:
            federation.stop()
    first, second = reports
    assert first["scenarios"]["uc2"]["pids"] == second["scenarios"]["uc2"]["pids"]
    assert first["scenarios"]["uc1"]["trace"] == second["scenarios"]["uc1"]["trace"]
    assert sorted(n["state_digest"] for n in first["nodes"].values()) == sorted(
        n["state_digest"] for n in second["nodes"].values()
    )
