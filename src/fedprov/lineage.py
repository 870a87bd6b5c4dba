"""Cross-experiment derivation graph: lineage traces, invalidation cascades,
and iteration histories.

The graph is rebuilt on demand from checksum-verified provenance documents
plus the ledger's current view; an edge always points from the producing
artifact to the consuming artifact, so an invalidation cascade is exactly
forward reachability, committed as one atomic ledger transaction. Every edge
remembers which document (PID, version, URI, checksum) attests it, which lets
traces re-verify their own evidence.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import CycleError, LedgerRejectedError, NotInvalidatedError, UnknownPIDError
from .ledger.blocks import READ_WRITE_CONFLICT
from .ledger.values import (
    KIND_ARTIFACT,
    KIND_PROVENANCE,
    STATUS_AFFECTED,
    STATUS_INVALIDATED,
    STATUS_VALID,
)
from .prov import REL_DERIVED, REL_GENERATED, REL_USED, ProvDocument
from .prov_store import ProvStore


@dataclass(frozen=True)
class DocumentSource:
    """A provenance document as recorded on the ledger."""

    doc_pid: str
    version: int
    uri: str
    checksum: str
    document: ProvDocument

    def attests(self, activity: str | None) -> EdgeAttestation:
        """This document cited as the evidence for an edge via *activity*."""
        return EdgeAttestation(
            doc_pid=self.doc_pid,
            doc_version=self.version,
            uri=self.uri,
            checksum=self.checksum,
            activity=activity,
        )


@dataclass(frozen=True)
class EdgeAttestation:
    doc_pid: str
    doc_version: int
    uri: str
    checksum: str
    activity: str | None  # local id; None for a direct derived-from edge

    def to_dict(self) -> dict:
        return {
            "doc_pid": self.doc_pid,
            "doc_version": self.doc_version,
            "uri": self.uri,
            "checksum": self.checksum,
            "activity": self.activity,
        }


@dataclass
class DerivationGraph:
    """Edges are added only through ``add_edge``, which also keeps the
    per-node child and parent sets that neighbour queries read."""

    nodes: dict[str, str] = field(default_factory=dict)  # artifact pid -> status
    edges: dict[tuple[str, str], list[EdgeAttestation]] = field(default_factory=dict)
    generators: dict[str, EdgeAttestation] = field(default_factory=dict)
    _children: dict[str, set[str]] = field(default_factory=dict, init=False, repr=False)
    _parents: dict[str, set[str]] = field(default_factory=dict, init=False, repr=False)

    def add_node(self, pid: str, status: str = STATUS_VALID) -> None:
        self.nodes.setdefault(pid, status)

    def add_edge(self, src: str, dst: str, attestation: EdgeAttestation) -> None:
        existing = self.edges.setdefault((src, dst), [])
        if attestation not in existing:
            existing.append(attestation)
        self._children.setdefault(src, set()).add(dst)
        self._parents.setdefault(dst, set()).add(src)

    def successors(self, pid: str) -> list[str]:
        return sorted(self._children.get(pid, ()))

    def predecessors(self, pid: str) -> list[str]:
        return sorted(self._parents.get(pid, ()))

    def descendants(self, pid: str) -> set[str]:
        """All artifacts transitively derived from *pid* (excluding itself)."""
        seen: set[str] = set()
        queue = deque([pid])
        while queue:
            current = queue.popleft()
            for nxt in self.successors(current):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen - {pid}

    def attestation(self, src: str, dst: str) -> EdgeAttestation:
        return self.edges[(src, dst)][0]

    def to_dot(self) -> str:
        lines = ["digraph provenance {"]
        for pid in sorted(self.nodes):
            status = self.nodes[pid]
            lines.append(f'  "{pid}" [label="{pid}\\n{status}"];')
        for src, dst in sorted(self.edges):
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines)


DOCUMENT_CACHE_SIZE = 1024  # distinct document bytes kept decoded per process


@functools.lru_cache(maxsize=DOCUMENT_CACHE_SIZE)
def _decoded(payload: bytes) -> ProvDocument:
    """The document held in *payload*, decoded once per distinct bytes.

    Callers pass only bytes ``ProvStore.fetch_bytes`` has just read and
    checksum-verified, and never modify the document, so one instance can
    serve every trace; the write path decodes its own through
    ``ProvStore.fetch_document``.
    """
    return ProvDocument.from_dict(json.loads(payload.decode("utf-8")))


def collect_documents(
    ledger_view: Mapping[str, Mapping], store: ProvStore
) -> list[DocumentSource]:
    """Fetch and checksum-verify every provenance document on the ledger,
    on every call; only the decoding of verified bytes is memoized."""
    sources = []
    for pid, value in sorted(ledger_view.items()):
        if value.get("kind") != KIND_PROVENANCE:
            continue
        document = _decoded(store.fetch_bytes(value["uri"], value["checksum"]))
        sources.append(
            DocumentSource(
                doc_pid=pid,
                version=int(value["version"]),
                uri=value["uri"],
                checksum=value["checksum"],
                document=document,
            )
        )
    return sources


def attested_edges(
    document: ProvDocument, pid_of: Mapping[str, str]
) -> list[tuple[str, str, str | None]]:
    """The artifact edges *document* attests, as (parent, child, activity).

    ``used(activity, e_in)`` plus ``was-generated-by(e_out, activity)``
    attests e_in -> e_out via that activity; ``was-derived-from(new, old)``
    attests old -> new with activity None. *pid_of* maps entity local ids to
    artifact PIDs; an entity it does not map takes part in no edge.
    """
    inputs: dict[str, list[str]] = {}
    outputs: dict[str, list[str]] = {}
    for relation in document.relations:
        if relation.kind == REL_USED:
            inputs.setdefault(relation.source, []).append(relation.target)
        elif relation.kind == REL_GENERATED:
            outputs.setdefault(relation.target, []).append(relation.source)
    edges = [
        (pid_of[used], pid_of[generated], activity)
        for activity, used_entities in inputs.items()
        for generated in outputs.get(activity, [])
        for used in used_entities
        if used in pid_of and generated in pid_of
    ]
    edges += [
        (pid_of[relation.target], pid_of[relation.source], None)
        for relation in document.relations
        if relation.kind == REL_DERIVED
        and relation.source in pid_of
        and relation.target in pid_of
    ]
    return edges


def build_graph(
    documents: Iterable[DocumentSource], ledger_view: Mapping[str, Mapping]
) -> DerivationGraph:
    """Assemble the artifact derivation graph from ``attested_edges``.

    Node statuses come from the ledger's invalidation flags. Rejects graphs
    with cycles and documents referencing unregistered artifact PIDs.
    """
    graph = DerivationGraph()
    artifact_values = {
        pid: value for pid, value in ledger_view.items() if value.get("kind") == KIND_ARTIFACT
    }
    for pid, value in artifact_values.items():
        graph.add_node(pid, value.get("status", STATUS_VALID))

    for source in documents:
        pid_of: dict[str, str] = {}
        for entity in source.document.entities:
            if entity.artifact_pid is None:
                continue
            if entity.artifact_pid not in artifact_values:
                raise UnknownPIDError(
                    f"document {source.doc_pid} references unregistered artifact "
                    f"{entity.artifact_pid!r}"
                )
            pid_of[entity.local_id] = entity.artifact_pid

        for parent, child, activity in attested_edges(source.document, pid_of):
            graph.add_edge(parent, child, source.attests(activity))
        for relation in source.document.relations:
            if relation.kind == REL_GENERATED and relation.source in pid_of:
                graph.generators.setdefault(
                    pid_of[relation.source], source.attests(relation.target)
                )
        for pid in pid_of.values():
            # Fallback attribution for artifacts a document mentions without
            # a generated-by relation (e.g. pure derivation chains).
            graph.generators.setdefault(pid, source.attests(None))

    _reject_cycles(graph)
    return graph


def _reject_cycles(graph: DerivationGraph) -> None:
    """Depth-first search with an explicit stack, so chain length is unbounded.

    ``path`` is the current DFS path and ``pending[i]`` the unvisited
    successors of ``path[i]``; nodes on the path are grey (1), finished
    nodes black (2).
    """
    colors: dict[str, int] = {}
    for root in sorted(graph.nodes):
        if colors.get(root, 0):
            continue
        colors[root] = 1
        path = [root]
        pending = [iter(graph.successors(root))]
        while pending:
            for nxt in pending[-1]:
                state = colors.get(nxt, 0)
                if state == 1:
                    cycle = path[path.index(nxt):] + [nxt]
                    raise CycleError(f"derivation cycle: {' -> '.join(cycle)}")
                if state == 0:
                    colors[nxt] = 1
                    path.append(nxt)
                    pending.append(iter(graph.successors(nxt)))
                    break
            else:
                pending.pop()
                colors[path.pop()] = 2


# ---------------------------------------------------------------------------
# Lineage traces
# ---------------------------------------------------------------------------


@dataclass
class LineagePath:
    """Alternating artifact / attested-step sequence, query node first."""

    steps: list[dict]

    def artifact_pids(self) -> list[str]:
        return [step["artifact"] for step in self.steps if "artifact" in step]

    def to_dict(self) -> dict:
        return {"steps": self.steps}


def trace_lineage(pid: str, graph: DerivationGraph) -> list[LineagePath]:
    """Every path from *pid* back to in-degree-zero ancestor artifacts."""
    if pid not in graph.nodes:
        raise UnknownPIDError(f"artifact not in derivation graph: {pid!r}")

    # Depth-first with an explicit stack, so chain length is unbounded:
    # ``path`` holds the artifacts from *pid* back to the current one and
    # ``pending[i]`` the parents of ``path[i]`` not yet walked.
    paths: list[LineagePath] = []
    path = [pid]
    steps = [{"artifact": pid, "status": graph.nodes.get(pid)}]
    pending: list[Iterator[str]] = []

    def enter(current: str) -> None:
        parents = graph.predecessors(current)
        if not parents:
            paths.append(LineagePath(steps=list(steps)))
        pending.append(iter(parents))

    enter(pid)
    while pending:
        parent = next((p for p in pending[-1] if p not in path), None)
        if parent is None:
            pending.pop()
            path.pop()
            del steps[-2:]
            continue
        attestation = graph.attestation(parent, path[-1])
        steps.append({
            "via": attestation.activity or "derived-from",
            "attested_by": attestation.to_dict(),
        })
        steps.append({"artifact": parent, "status": graph.nodes.get(parent)})
        path.append(parent)
        enter(parent)
    return paths


def verify_trace_soundness(paths: Iterable[LineagePath], store: ProvStore) -> None:
    """Re-derive every hop from its attesting document, fetched by checksum.

    Raises ``ChecksumMismatchError`` for tampered documents and
    ``UnknownPIDError`` if a fetched document does not actually attest the
    edge it is cited for; a trace is only as good as its evidence. Paths
    share hops, so each distinct (parent, child, attestation) is checked
    once and each distinct (uri, checksum) fetched once per call; the first
    bad hop met in path order is the one reported.
    """
    edges_of: dict[tuple[str, str], set[tuple[str, str, str | None]]] = {}
    sound: set[tuple] = set()
    for path in paths:
        steps = path.steps
        for index in range(1, len(steps) - 1, 2):
            attestation = steps[index].get("attested_by")
            if attestation is None:
                continue
            child = steps[index - 1]["artifact"]
            parent = steps[index + 1]["artifact"]
            hop = (parent, child, tuple(sorted(attestation.items())))
            if hop in sound:
                continue
            source = (attestation["uri"], attestation["checksum"])
            if source not in edges_of:
                document = _decoded(store.fetch_bytes(*source))
                pid_of = {e.local_id: e.artifact_pid for e in document.entities if e.artifact_pid}
                edges_of[source] = set(attested_edges(document, pid_of))
            if (parent, child, attestation["activity"]) not in edges_of[source]:
                raise UnknownPIDError(
                    f"document {attestation['doc_pid']} does not attest "
                    f"{parent} -> {child}"
                )
            sound.add(hop)


# ---------------------------------------------------------------------------
# Invalidation cascade
# ---------------------------------------------------------------------------

FLAG_ATTEMPTS = 3  # submissions of one cascade's flags before a conflict is final


def cascade_targets(pid: str, graph: DerivationGraph) -> set[str]:
    """Pure reachability: artifacts derived (transitively) from *pid*."""
    if pid not in graph.nodes:
        raise UnknownPIDError(f"artifact not in derivation graph: {pid!r}")
    return graph.descendants(pid)


def invalidate_cascade(
    pid: str,
    graph: DerivationGraph,
    *,
    ledger,
) -> list[tuple[str, str]]:
    """Flag every artifact derived from an invalidated *pid* as affected.

    The source must already be invalidated in *graph*, which is built from
    a ledger view taken after the invalidation committed (the cascade never
    invalidates anything itself -- only owners do that). The descendants
    valid in that view go to one ``flag-affected`` transaction, so consumers
    querying only the ledger see the whole cascade or none of it; if none
    is valid, nothing is submitted. The chaincode decides what gets flagged:
    it re-reads every target at endorsement and writes only those still
    valid, so a target another cascade flagged first is neither re-flagged
    nor reported again. A read-write conflict resubmits the same targets up
    to ``FLAG_ATTEMPTS`` times; any other refusal, or a conflict on the last
    attempt, raises ``LedgerRejectedError``. The artifacts the committed
    transaction wrote are the ones returned; their owners read them through
    ``notifications``.
    """
    status = graph.nodes.get(pid)
    if status is None:
        raise UnknownPIDError(f"not on ledger: {pid!r}")
    if status != STATUS_INVALIDATED:
        raise NotInvalidatedError(f"{pid} is still {status} on the ledger")

    targets = [t for t in sorted(cascade_targets(pid, graph)) if graph.nodes[t] == STATUS_VALID]
    if not targets:
        return []
    for attempt in range(1, FLAG_ATTEMPTS + 1):
        receipt = ledger.flag_affected(targets, pid)
        if receipt.ok:
            break
        if receipt.status != READ_WRITE_CONFLICT or attempt == FLAG_ATTEMPTS:
            raise LedgerRejectedError(
                f"cascade from {pid} not committed: {receipt.message}", receipt.to_dict()
            )

    return [(target, STATUS_AFFECTED) for target in sorted(receipt.writes)]


def notifications(state: Mapping[str, Mapping]) -> list[dict]:
    """One entry per owner of each artifact *state* holds as affected,
    sorted by (pid, owner).

    The flag transaction wrote every fact an entry holds into the flagged
    artifact's value, its own timestamp included, so any node's committed
    state gives the same entries, whatever became of the cascading client.
    """
    return [
        {"pid": pid, "new_status": STATUS_AFFECTED, "source_pid": value["status_source"],
         "owner": owner, "timestamp": value["timestamp"]}
        for pid, value in sorted(state.items())
        if value.get("status") == STATUS_AFFECTED
        for owner in sorted(value["owners"])
    ]


# ---------------------------------------------------------------------------
# Iteration history
# ---------------------------------------------------------------------------


@dataclass
class IterationEntry:
    artifact_pid: str
    prov_pid: str | None
    prov_version: int | None
    status: str

    def to_dict(self) -> dict:
        return {
            "artifact_pid": self.artifact_pid,
            "prov_pid": self.prov_pid,
            "prov_version": self.prov_version,
            "status": self.status,
        }


def iteration_history(pid: str, graph: DerivationGraph) -> list[IterationEntry]:
    """The derivation chain of iterations through *pid*, oldest first.

    Follows direct derived-from edges backward to the first iteration, then
    forward through successive iterations; each entry carries the provenance
    record that documents it and the artifact's current status.
    """
    if pid not in graph.nodes:
        raise UnknownPIDError(f"artifact not in derivation graph: {pid!r}")

    derived_parents: dict[str, list[str]] = {}
    derived_children: dict[str, list[str]] = {}
    for (src, dst), attestations in graph.edges.items():
        if any(a.activity is None for a in attestations):
            derived_children.setdefault(src, []).append(dst)
            derived_parents.setdefault(dst, []).append(src)

    root = _first_links(pid, derived_parents)[-1]
    chain = _first_links(root, derived_children)
    entries = []
    for artifact in chain:
        generator = graph.generators.get(artifact)
        entries.append(
            IterationEntry(
                artifact_pid=artifact,
                prov_pid=generator.doc_pid if generator else None,
                prov_version=generator.doc_version if generator else None,
                status=graph.nodes.get(artifact, STATUS_VALID),
            )
        )
    return entries


def _first_links(start: str, links: Mapping[str, list[str]]) -> list[str]:
    """*start*, then always the smallest not yet visited link, until none is left."""
    path, seen = [start], {start}
    while True:
        candidates = sorted(n for n in links.get(path[-1], []) if n not in seen)
        if not candidates:
            return path
        path.append(candidates[0])
        seen.add(candidates[0])
