"""Derivation graph construction, trace/cascade oracles, iteration history."""

from __future__ import annotations

import json
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import act, doc, ent, publish_raw, register_default_users, rel
from fedprov.errors import CycleError, LedgerRejectedError, NotInvalidatedError, UnknownPIDError
from fedprov.ledger.client import Receipt
from fedprov.lineage import (
    FLAG_ATTEMPTS,
    DerivationGraph,
    DocumentSource,
    EdgeAttestation,
    LineagePath,
    build_graph,
    cascade_targets,
    collect_documents,
    invalidate_cascade,
    iteration_history,
    trace_lineage,
    verify_trace_soundness,
)
from fedprov.prov_store import ProvStore


def _attest(n: int) -> EdgeAttestation:
    return EdgeAttestation(
        doc_pid=f"21.P/d{n}", doc_version=1, uri=f"cas://{n}", checksum=f"c{n}", activity=f"a{n}"
    )


def synthetic_graph(edges, statuses=None) -> DerivationGraph:
    graph = DerivationGraph()
    for index, (src, dst) in enumerate(edges):
        graph.add_node(src)
        graph.add_node(dst)
        graph.add_edge(src, dst, _attest(index))
    for pid, status in (statuses or {}).items():
        graph.nodes[pid] = status
    return graph


# -- build_graph ------------------------------------------------------------------


def doc_source(n, document):
    return DocumentSource(
        doc_pid=f"21.P/doc{n}", version=1, uri=f"cas://doc{n}",
        checksum=f"cdoc{n}", document=document,
    )


def ledger_view(*artifact_pids, statuses=None):
    view = {}
    for pid in artifact_pids:
        view[pid] = {
            "uri": "cas://x", "checksum": "cx", "version": 1, "owners": ["alice"],
            "timestamp": "t", "kind": "artifact",
            "status": (statuses or {}).get(pid, "valid"), "status_source": None,
        }
    return view


def test_build_graph_from_linked_experiments():
    """Exp1 makes A and B; A feeds Exp2 (C), B feeds Exp3 (D), D feeds Exp4 (E)."""
    documents = [
        doc_source(1, doc(
            entities=[ent("e-a", artifact_pid="pid/A"), ent("e-b", artifact_pid="pid/B")],
            activities=[act("x1")],
            relations=[rel("was-generated-by", "e-a", "x1"),
                       rel("was-generated-by", "e-b", "x1")],
        )),
        doc_source(2, doc(
            entities=[ent("in-a", artifact_pid="pid/A"), ent("e-c", artifact_pid="pid/C")],
            activities=[act("x2")],
            relations=[rel("used", "x2", "in-a"),
                       rel("was-generated-by", "e-c", "x2")],
        )),
        doc_source(3, doc(
            entities=[ent("in-b", artifact_pid="pid/B"), ent("e-d", artifact_pid="pid/D")],
            activities=[act("x3")],
            relations=[rel("used", "x3", "in-b"),
                       rel("was-generated-by", "e-d", "x3")],
        )),
        doc_source(4, doc(
            entities=[ent("in-d", artifact_pid="pid/D"), ent("e-e", artifact_pid="pid/E")],
            activities=[act("x4")],
            relations=[rel("used", "x4", "in-d"),
                       rel("was-generated-by", "e-e", "x4")],
        )),
    ]
    graph = build_graph(documents, ledger_view("pid/A", "pid/B", "pid/C", "pid/D", "pid/E"))
    assert set(graph.edges) == {
        ("pid/A", "pid/C"), ("pid/B", "pid/D"), ("pid/D", "pid/E"),
    }
    assert graph.descendants("pid/B") == {"pid/D", "pid/E"}
    assert graph.descendants("pid/A") == {"pid/C"}


def test_empty_document_set_empty_graph():
    graph = build_graph([], {})
    assert graph.nodes == {}
    assert graph.edges == {}


def test_two_cycle_rejected():
    documents = [
        doc_source(1, doc(
            entities=[ent("e1", artifact_pid="pid/X"), ent("e2", artifact_pid="pid/Y")],
            activities=[act("a1"), act("a2")],
            relations=[
                rel("used", "a1", "e1"), rel("was-generated-by", "e2", "a1"),
                rel("used", "a2", "e2"), rel("was-generated-by", "e1", "a2"),
            ],
        )),
    ]
    with pytest.raises(CycleError):
        build_graph(documents, ledger_view("pid/X", "pid/Y"))


def _derivation_chain(length):
    """Documents deriving pid/0001 from pid/0000, ..., up to pid/<length-1>."""
    pids = [f"pid/{n:04d}" for n in range(length)]
    documents = [
        doc_source(n, doc(
            entities=[ent("old", artifact_pid=pids[n - 1]), ent("new", artifact_pid=pids[n])],
            relations=[rel("was-derived-from", "new", "old")],
        ))
        for n in range(1, length)
    ]
    return pids, documents


def test_long_derivation_chain_builds_traces_and_cycle_still_reported():
    """1,500 links at the default recursion limit: no RecursionError."""
    import sys

    assert sys.getrecursionlimit() < 1500
    pids, documents = _derivation_chain(1500)
    graph = build_graph(documents, ledger_view(*pids))
    assert len(graph.edges) == 1499
    assert graph.descendants(pids[0]) == set(pids[1:])
    (path,) = trace_lineage(pids[-1], graph)
    assert path.artifact_pids() == pids[::-1]

    closing = doc_source(0, doc(
        entities=[ent("old", artifact_pid=pids[-1]), ent("new", artifact_pid=pids[0])],
        relations=[rel("was-derived-from", "new", "old")],
    ))
    with pytest.raises(CycleError) as err:
        build_graph(documents + [closing], ledger_view(*pids))
    assert str(err.value) == "derivation cycle: " + " -> ".join(pids + [pids[0]])


def test_unregistered_artifact_pid_rejected():
    documents = [
        doc_source(1, doc(entities=[ent("e1", artifact_pid="pid/GHOST")])),
    ]
    with pytest.raises(UnknownPIDError):
        build_graph(documents, ledger_view("pid/A"))


def test_duplicate_edges_deduplicated():
    d = doc(
        entities=[ent("e1", artifact_pid="pid/A"), ent("e2", artifact_pid="pid/B")],
        activities=[act("a1")],
        relations=[rel("used", "a1", "e1"), rel("was-generated-by", "e2", "a1"),
                   rel("was-derived-from", "e2", "e1")],
    )
    graph = build_graph([doc_source(1, d), doc_source(2, d)], ledger_view("pid/A", "pid/B"))
    assert set(graph.edges) == {("pid/A", "pid/B")}


def test_to_dot_output():
    graph = synthetic_graph([("pid/A", "pid/B")])
    dot = graph.to_dot()
    assert dot.startswith("digraph provenance {")
    assert '"pid/A" -> "pid/B";' in dot


# -- trace_lineage -------------------------------------------------------------------


def brute_force_paths(graph: DerivationGraph, pid: str) -> set[tuple[str, ...]]:
    """Oracle: enumerate every backward path to a root by exhaustive DFS."""
    paths = set()

    def walk(node, acc):
        parents = graph.predecessors(node)
        if not parents:
            paths.add(tuple(acc))
            return
        for parent in parents:
            if parent in acc:
                continue
            walk(parent, acc + [parent])

    walk(pid, [pid])
    return paths


def test_trace_single_chain():
    graph = synthetic_graph([("dataset", "model"), ("model", "image")])
    paths = trace_lineage("image", graph)
    assert len(paths) == 1
    assert paths[0].artifact_pids() == ["image", "model", "dataset"]
    hops = [s for s in paths[0].steps if "via" in s]
    assert all(hop["attested_by"]["doc_pid"].startswith("21.P/") for hop in hops)


def test_trace_source_node_single_path():
    graph = synthetic_graph([("a", "b")])
    paths = trace_lineage("a", graph)
    assert len(paths) == 1
    assert paths[0].artifact_pids() == ["a"]


def test_trace_diamond_two_paths():
    graph = synthetic_graph([("s", "l"), ("s", "r"), ("l", "t"), ("r", "t")])
    paths = trace_lineage("t", graph)
    assert {tuple(p.artifact_pids()) for p in paths} == {
        ("t", "l", "s"), ("t", "r", "s"),
    }


def test_trace_unknown_pid():
    graph = synthetic_graph([("a", "b")])
    with pytest.raises(UnknownPIDError):
        trace_lineage("nope", graph)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_trace_matches_bruteforce_oracle(seed):
    graph = random_dag(random.Random(seed), max_nodes=8)
    for pid in graph.nodes:
        expected = brute_force_paths(graph, pid)
        actual = {tuple(p.artifact_pids()) for p in trace_lineage(pid, graph)}
        assert actual == expected


def test_trace_soundness_rejects_wrong_attestation(tmp_path):
    """A hop citing an intact document that does not attest the edge fails."""
    from fedprov.lineage import LineagePath, verify_trace_soundness
    from fedprov.prov_store import ProvStore

    store = ProvStore(tmp_path / "store")
    unrelated = doc(
        entities=[ent("e-other", artifact_pid="pid/Z")],
        activities=[act("a-z")],
        relations=[rel("was-generated-by", "e-other", "a-z")],
    )
    uri, checksum, _ = store.store_document(unrelated)
    path = LineagePath(
        steps=[
            {"artifact": "pid/B", "status": "valid"},
            {
                "via": "a-z",
                "attested_by": {
                    "doc_pid": "21.P/doc", "doc_version": 1,
                    "uri": uri, "checksum": checksum, "activity": "a-z",
                },
            },
            {"artifact": "pid/A", "status": "valid"},
        ]
    )
    with pytest.raises(UnknownPIDError):
        verify_trace_soundness([path], store)


def test_trace_soundness_accepts_real_attestation(tmp_path):
    from fedprov.lineage import LineagePath, verify_trace_soundness
    from fedprov.prov_store import ProvStore

    store = ProvStore(tmp_path / "store")
    attesting = doc(
        entities=[ent("e-in", artifact_pid="pid/A"), ent("e-out", artifact_pid="pid/B")],
        activities=[act("a-run")],
        relations=[rel("used", "a-run", "e-in"),
                   rel("was-generated-by", "e-out", "a-run")],
    )
    uri, checksum, _ = store.store_document(attesting)
    path = LineagePath(
        steps=[
            {"artifact": "pid/B", "status": "valid"},
            {
                "via": "a-run",
                "attested_by": {
                    "doc_pid": "21.P/doc", "doc_version": 1,
                    "uri": uri, "checksum": checksum, "activity": "a-run",
                },
            },
            {"artifact": "pid/A", "status": "valid"},
        ]
    )
    verify_trace_soundness([path], store)


class CountingStore(ProvStore):
    """A store that counts document reads by (uri, checksum)."""

    def __init__(self, root):
        super().__init__(root)
        self.fetches: list[tuple[str, str]] = []

    def fetch_bytes(self, uri, checksum):
        self.fetches.append((uri, checksum))
        return super().fetch_bytes(uri, checksum)


def stacked_diamond_sources(store, diamonds):
    """One stored document per edge of *diamonds* stacked diamonds."""
    edges = []
    for level in range(diamonds):
        top, bottom = f"pid/t{level}", f"pid/t{level + 1}"
        for side in ("l", "r"):
            middle = f"pid/{side}{level}"
            edges += [(top, middle), (middle, bottom)]
    sources = []
    for n, (parent, child) in enumerate(edges):
        document = doc(
            entities=[ent("in", artifact_pid=parent), ent("out", artifact_pid=child)],
            activities=[act(f"x{n}")],
            relations=[rel("used", f"x{n}", "in"), rel("was-generated-by", "out", f"x{n}")],
        )
        uri, checksum, _ = store.store_document(document)
        sources.append(DocumentSource(f"21.P/doc{n}", 1, uri, checksum, document))
    artifacts = {pid for edge in edges for pid in edge}
    return sources, ledger_view(*artifacts)


def test_trace_soundness_fetches_each_attesting_document_once(tmp_path):
    """Paths share hops: 6 diamonds give 64 paths of 12 hops over 24 edges."""
    store = CountingStore(tmp_path / "store")
    sources, view = stacked_diamond_sources(store, 6)
    paths = trace_lineage("pid/t6", build_graph(sources, view))
    assert len(paths) == 2 ** 6
    verify_trace_soundness(paths, store)
    assert sorted(store.fetches) == sorted((s.uri, s.checksum) for s in sources)

    # A bad hop is still reported: cite one edge's document for another edge.
    bad = paths[-1].steps[1]["attested_by"]
    paths[-1].steps[1] = {**paths[-1].steps[1], "attested_by": {
        **bad, "activity": "elsewhere"}}
    with pytest.raises(UnknownPIDError):
        verify_trace_soundness(paths, store)


ARTIFACTS = [f"pid/{n}" for n in range(4)]


@st.composite
def ranked_documents(draw):
    """A random document whose edges all run from a lower to a higher index
    in ``ARTIFACTS``, so any set of them is acyclic. Entities may share an
    artifact PID or have none; relations come in random order."""
    ranks = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=1, max_size=6))
    entities = [
        ent(f"e{i}", artifact_pid=None if rank is None else ARTIFACTS[rank])
        for i, rank in enumerate(ranks)
    ]
    levels = draw(st.lists(st.integers(1, 3), max_size=3))
    relations = []
    for k, level in enumerate(levels):
        for i, rank in enumerate(ranks):
            role = draw(st.sampled_from(["none", "used", "generated"]))
            if role == "used" and (rank is None or rank < level):
                relations.append(("used", f"a{k}", f"e{i}"))
            elif role == "generated" and (rank is None or rank >= level):
                relations.append(("was-generated-by", f"e{i}", f"a{k}"))
    for i, new in enumerate(ranks):
        for j, old in enumerate(ranks):
            if i != j and (new is None or old is None or new > old) and draw(st.booleans()):
                relations.append(("was-derived-from", f"e{i}", f"e{j}"))
    return doc(
        entities=entities,
        activities=[act(f"a{k}") for k in range(len(levels))],
        relations=[rel(*r) for r in draw(st.permutations(relations))],
    )


def _hop(child: str, attestation: dict, parent: str) -> LineagePath:
    return LineagePath(steps=[
        {"artifact": child, "status": "valid"},
        {"via": attestation["activity"] or "derived-from", "attested_by": attestation},
        {"artifact": parent, "status": "valid"},
    ])


@given(documents=st.lists(ranked_documents(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_every_built_edge_and_no_other_hop_passes_soundness(documents):
    """``build_graph`` and ``verify_trace_soundness`` apply one edge rule:
    each built edge, cited with its attestation, verifies against the stored
    document; the same hop under another activity, or reversed, does not."""
    with tempfile.TemporaryDirectory() as root:
        store = ProvStore(root)
        sources = []
        for n, document in enumerate(documents):
            uri, checksum, _ = store.store_document(document)
            sources.append(DocumentSource(f"21.P/doc{n}", 1, uri, checksum, document))
        graph = build_graph(sources, ledger_view(*ARTIFACTS))
        for (parent, child), attestations in graph.edges.items():
            for attestation in attestations:
                cited = attestation.to_dict()
                verify_trace_soundness([_hop(child, cited, parent)], store)
                with pytest.raises(UnknownPIDError):
                    verify_trace_soundness([_hop(parent, cited, child)], store)
                source = next(s for s in sources if s.doc_pid == attestation.doc_pid)
                others = [None, "a-absent"] + [a.local_id for a in source.document.activities]
                for other in others:
                    if source.attests(other) in attestations:
                        continue
                    with pytest.raises(UnknownPIDError):
                        verify_trace_soundness([_hop(child, {**cited, "activity": other}, parent)], store)


# -- cascade ---------------------------------------------------------------------------


def random_dag(rng: random.Random, max_nodes: int = 10) -> DerivationGraph:
    """Random DAG: edges only from lower to higher indices, so acyclic."""
    count = rng.randint(1, max_nodes)
    nodes = [f"pid/n{i}" for i in range(count)]
    graph = DerivationGraph()
    for node in nodes:
        graph.add_node(node)
    edge_index = 0
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.3:
                graph.add_edge(nodes[i], nodes[j], _attest(edge_index))
                edge_index += 1
    return graph


def brute_force_descendants(graph: DerivationGraph, pid: str) -> set[str]:
    """Oracle: exhaustive DFS reachability."""
    out: set[str] = set()

    def visit(node):
        for (src, dst) in graph.edges:
            if src == node and dst not in out:
                out.add(dst)
                visit(dst)

    visit(pid)
    out.discard(pid)
    return out


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cascade_equals_descendant_oracle(seed):
    rng = random.Random(seed)
    graph = random_dag(rng)
    for pid in graph.nodes:
        assert cascade_targets(pid, graph) == brute_force_descendants(graph, pid)
        assert graph.successors(pid) == sorted(dst for (src, dst) in graph.edges if src == pid)
        assert graph.predecessors(pid) == sorted(src for (src, dst) in graph.edges if dst == pid)


def test_cascade_monotonicity():
    """Invalidating a second node never shrinks the affected set."""
    rng = random.Random(7)
    for _ in range(20):
        graph = random_dag(rng)
        nodes = sorted(graph.nodes)
        if len(nodes) < 2:
            continue
        first = cascade_targets(nodes[0], graph)
        both = first | cascade_targets(nodes[1], graph)
        assert first <= both


def test_cascade_sink_empty():
    graph = synthetic_graph([("a", "b")])
    assert cascade_targets("b", graph) == set()


# -- cascade against a live ledger ---------------------------------------------------


@pytest.fixture()
def live_publish(fed):
    """``publish(name, inputs)`` commits artifact *name* and a document that
    generates it from the artifact PIDs *inputs*; returns its PID."""
    users = register_default_users(fed)
    alice = users["alice"]
    ledger = alice["ledger"]
    registry = fed.client(alice["identity"], alice["key"]).registry()
    store = fed.store

    def publish(name, inputs=()):
        uri, checksum, _ = store.store_bytes(f"file {name}".encode())
        artifact = registry.mint()
        entities = [ent(f"e-{name}", f"file {name}", artifact_pid=artifact["pid"], checksum=checksum)]
        relations = [rel("was-generated-by", f"e-{name}", f"x-{name}")]
        for index, source in enumerate(inputs):
            entities.append(ent(f"e-in{index}", "input", artifact_pid=source))
            relations.append(rel("used", f"x-{name}", f"e-in{index}"))
        document = doc(entities=entities, activities=[act(f"x-{name}")], relations=relations)
        doc_uri, doc_checksum, _ = store.store_document(document)
        prov = registry.mint()
        assert publish_raw(ledger, artifact["pid"], uri, checksum,
                           prov=(prov["pid"], doc_uri, doc_checksum)).ok
        return artifact["pid"]

    return fed, users, publish


def _publish_chain(publish, names):
    pids = {}
    previous = ()
    for name in names:
        pids[name] = publish(name, previous)
        previous = (pids[name],)
    return pids


@pytest.fixture()
def live_chain(live_publish):
    """A -> B -> C chain committed on the ledger with real documents."""
    fed, users, publish = live_publish
    return fed, users, _publish_chain(publish, "ABC")


def _cascade(fed, ledger, pid):
    state = ledger.state_dump()
    graph = build_graph(collect_documents(state, fed.store), state)
    return invalidate_cascade(
        pid, graph,
        ledger=ledger,
        outbox_dir=fed.config.outbox_dir,
        owner_org=lambda user: "OrgA",
    )


def test_invalidate_cascade_commits_flags_and_notifies(live_chain):
    fed, users, pids = live_chain
    ledger = users["alice"]["ledger"]
    assert ledger.hlf_invalidate(pids["A"]).ok
    flagged = _cascade(fed, ledger, pids["A"])
    assert {p for p, _ in flagged} == {pids["B"], pids["C"]}
    for pid in (pids["B"], pids["C"]):
        assert ledger.hlf_read(pid).status == "affected"
    outbox = fed.config.outbox_dir / "OrgA.jsonl"
    records = [json.loads(line) for line in outbox.read_text().splitlines()]
    assert {r["pid"] for r in records} == {pids["B"], pids["C"]}
    assert all(r["source_pid"] == pids["A"] for r in records)


def test_cascade_commits_one_transaction(live_chain):
    fed, users, pids = live_chain
    ledger = users["alice"]["ledger"]
    assert ledger.hlf_invalidate(pids["A"]).ok
    height = fed.nodes["OrgA"].height()
    _cascade(fed, ledger, pids["A"])
    assert fed.nodes["OrgA"].height() == height + 1
    (tx,) = fed.nodes["OrgA"].block(height + 1).transactions
    assert tx["validation"] == "VALID"
    assert tx["body"]["pid"] == pids["A"]
    assert sorted(tx["result"]["writes"]) == sorted([pids["B"], pids["C"]])


def test_already_affected_not_reflagged_or_renotified(live_publish):
    """D derived from A and B: the cascade of B after that of A changes nothing."""
    fed, users, publish = live_publish
    ledger = users["alice"]["ledger"]
    a, b = publish("A"), publish("B")
    d = publish("D", (a, b))
    assert ledger.hlf_invalidate(a).ok
    assert _cascade(fed, ledger, a) == [(d, "affected")]
    assert ledger.hlf_invalidate(b).ok
    height = fed.nodes["OrgA"].height()

    assert _cascade(fed, ledger, b) == []
    assert fed.nodes["OrgA"].height() == height
    lines = (fed.config.outbox_dir / "OrgA.jsonl").read_text().splitlines()
    assert [json.loads(line)["pid"] for line in lines] == [d]
    assert ledger.hlf_read(d).status_source == a


def test_cascade_reports_only_what_its_transaction_flagged(live_publish):
    """D derived from A and B, both invalidated. B's cascade flags D after
    A's cascade built its view but before A's flag is endorsed: A's flag
    commits with no write, and A's cascade reports and notifies nothing."""
    fed, users, publish = live_publish
    ledger, bob = users["alice"]["ledger"], users["bob"]["ledger"]
    a, b = publish("A"), publish("B")
    d = publish("D", (a, b))
    assert ledger.hlf_invalidate(a).ok
    assert ledger.hlf_invalidate(b).ok
    real_flag_affected = ledger.flag_affected

    def flag_affected(targets, source_pid, timestamp=None):
        assert bob.flag_affected([d], b).ok
        return real_flag_affected(targets, source_pid, timestamp=timestamp)

    ledger.flag_affected = flag_affected
    assert _cascade(fed, ledger, a) == []
    (tx,) = fed.nodes["OrgA"].block(fed.nodes["OrgA"].height()).transactions
    assert (tx["body"]["pid"], tx["validation"], tx["result"]["writes"]) == (a, "VALID", {})
    assert not (fed.config.outbox_dir / "OrgA.jsonl").exists()
    assert ledger.hlf_read(d).status_source == b


def _conflict_before_first_order(ledger, flagger, source, target):
    """Make *ledger*'s first order meet a committed flag of *target*."""
    real_order = ledger.order
    calls = []

    def order(envelope):
        if not calls:
            assert flagger.flag_affected([target], source).ok
        calls.append(envelope["body"]["args"]["targets"])
        return real_order(envelope)

    ledger.order = order
    return calls


def test_cascade_retries_after_read_write_conflict(live_chain):
    fed, users, pids = live_chain
    ledger = users["alice"]["ledger"]
    assert ledger.hlf_invalidate(pids["A"]).ok
    calls = _conflict_before_first_order(ledger, users["bob"]["ledger"], pids["A"], pids["B"])

    assert _cascade(fed, ledger, pids["A"]) == [(pids["C"], "affected")]
    assert calls == [sorted([pids["B"], pids["C"]])] * 2
    tip = fed.nodes["OrgA"].height()
    assert [tx["validation"] for block in fed.nodes["OrgA"].committed_since(tip - 2)
            for tx in block.transactions] == ["VALID", "INVALID:read-write-conflict", "VALID"]
    for pid in (pids["B"], pids["C"]):
        assert ledger.hlf_read(pid).status == "affected"
    lines = (fed.config.outbox_dir / "OrgA.jsonl").read_text().splitlines()
    assert [json.loads(line)["pid"] for line in lines] == [pids["C"]]


def test_cascade_conflicting_on_every_attempt_raises(live_publish):
    fed, users, publish = live_publish
    ledger, bob = users["alice"]["ledger"], users["bob"]["ledger"]
    pids = _publish_chain(publish, "ABCDE")
    assert ledger.hlf_invalidate(pids["A"]).ok
    real_order = ledger.order
    calls = []

    def order(envelope):
        # Each attempt loses its first target still valid to a concurrent flag.
        targets = envelope["body"]["args"]["targets"]
        calls.append(targets)
        first = next(t for t in targets if ledger.hlf_read(t).status == "valid")
        assert bob.flag_affected([first], pids["A"]).ok
        return real_order(envelope)

    ledger.order = order
    with pytest.raises(LedgerRejectedError, match="read-write-conflict"):
        _cascade(fed, ledger, pids["A"])
    assert calls == [sorted(pids[name] for name in "BCDE")] * FLAG_ATTEMPTS
    assert FLAG_ATTEMPTS == 3
    assert not (fed.config.outbox_dir / "OrgA.jsonl").exists()
    assert ledger.hlf_read(pids["E"]).status == "valid"


def test_cascade_refused_receipt_raises_without_notifying(live_chain):
    fed, users, pids = live_chain
    ledger = users["alice"]["ledger"]
    assert ledger.hlf_invalidate(pids["A"]).ok
    calls = []

    def order(envelope):
        calls.append(envelope)
        return Receipt(envelope["tx_id"], None, "INVALID:endorsement-policy-unmet",
                       "INVALID:endorsement-policy-unmet")

    ledger.order = order
    with pytest.raises(LedgerRejectedError, match="endorsement-policy-unmet"):
        _cascade(fed, ledger, pids["A"])
    assert len(calls) == 1
    assert not (fed.config.outbox_dir / "OrgA.jsonl").exists()
    assert ledger.hlf_read(pids["B"]).status == "valid"


def test_cascade_refused_while_valid(live_chain):
    fed, users, pids = live_chain
    ledger = users["alice"]["ledger"]
    state = ledger.state_dump()
    graph = build_graph(collect_documents(state, fed.store), state)
    with pytest.raises(NotInvalidatedError):
        invalidate_cascade(pids["A"], graph, ledger=ledger)


def test_status_trichotomy_after_cascade(live_chain):
    fed, users, pids = live_chain
    ledger = users["alice"]["ledger"]
    ledger.hlf_invalidate(pids["A"])
    state = ledger.state_dump()
    graph = build_graph(collect_documents(state, fed.store), state)
    invalidate_cascade(pids["A"], graph, ledger=ledger)
    statuses = {
        pid: value["status"]
        for pid, value in ledger.state_dump().items()
        if value["kind"] == "artifact"
    }
    assert statuses[pids["A"]] == "invalidated"
    assert statuses[pids["B"]] == "affected"
    assert statuses[pids["C"]] == "affected"
    assert set(statuses.values()) <= {"valid", "invalidated", "affected"}


# -- iteration history ------------------------------------------------------------------


def test_iteration_history_orders_chain():
    graph = DerivationGraph()
    for i in range(3):
        graph.add_node(f"pid/m{i}")
    derived = lambda n: EdgeAttestation(  # noqa: E731
        doc_pid=f"21.P/doc{n}", doc_version=1, uri=f"cas://{n}", checksum=f"c{n}", activity=None
    )
    graph.add_edge("pid/m0", "pid/m1", derived(1))
    graph.add_edge("pid/m1", "pid/m2", derived(2))
    for i in range(3):
        graph.generators[f"pid/m{i}"] = derived(i)
    history = iteration_history("pid/m1", graph)
    assert [e.artifact_pid for e in history] == ["pid/m0", "pid/m1", "pid/m2"]
    assert [e.prov_pid for e in history] == ["21.P/doc0", "21.P/doc1", "21.P/doc2"]


def test_iteration_history_single_artifact():
    graph = DerivationGraph()
    graph.add_node("pid/solo")
    history = iteration_history("pid/solo", graph)
    assert [e.artifact_pid for e in history] == ["pid/solo"]


def test_iteration_history_surfaces_status():
    graph = synthetic_graph([], statuses={"pid/x": "affected"})
    graph.add_node("pid/x", "affected")
    history = iteration_history("pid/x", graph)
    assert history[0].status == "affected"
