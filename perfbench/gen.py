"""Seeded inputs: the preloaded experiments, the retraction order, file
bytes and the provenance documents that go with them.

Everything here is a pure function of its seed. Artifacts are named by
generator keys such as ``e3.model``; PIDs exist only once the program has
minted them, so documents are rendered at publish time from a key -> PID map.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

OWNERS = ("alice", "bob")
CONSUMER = "ruth"
USERS = (("OrgA", "alice"), ("OrgB", "bob"), ("Readers", CONSUMER))

DERIVED = "derived-from"
CREATED_AT = "2026-01-01T00:00:00.000Z"

EXPERIMENTS = 10
CROSS_LINKS = EXPERIMENTS // 2


@dataclass(frozen=True)
class Spec:
    """One artifact to publish, with the edges its document attests."""

    key: str
    owner: str
    kind: str
    payload: bytes
    parents: tuple[tuple[str, str], ...] = ()  # (parent key, activity id or DERIVED)

    @property
    def checksum(self) -> str:
        return hashlib.sha256(self.payload).hexdigest()


def payload(rng: random.Random, key: str) -> bytes:
    size = rng.randint(512, 4096)
    return (key + "\n").encode() + rng.randbytes(size)


def preload(seed: int) -> list[Spec]:
    """The shared history: EXPERIMENTS experiments of six artifacts each.

    An experiment is a dataset, a model trained on it (for CROSS_LINKS of
    them also on the previous experiment's dataset), two ``was-derived-from``
    iterations of the model, and two results of the last iteration, one of
    which also reads the dataset (a diamond). The seed picks owners, which
    experiments carry a cross link, and the bytes; every seed gives the same
    number of artifacts, edges and root paths per kind, so run costs do not
    depend on it. The list is in an order in which every parent precedes its
    child.
    """
    rng = random.Random(f"preload-{seed}")
    owners = [OWNERS[i % 2] for i in range(EXPERIMENTS)]
    rng.shuffle(owners)
    linked = set(rng.sample(range(1, EXPERIMENTS), CROSS_LINKS))
    specs: list[Spec] = []
    for k in range(EXPERIMENTS):
        owner = owners[k]
        data, model = f"e{k}.data", f"e{k}.model"
        train = [(data, "train")]
        if k in linked:
            train.append((f"e{k - 1}.data", "train"))
        last = f"e{k}.model.3"
        specs += [
            Spec(data, owner, "dataset", payload(rng, data)),
            Spec(model, owner, "model", payload(rng, model), tuple(train)),
            Spec(f"e{k}.model.2", owner, "iteration", payload(rng, f"e{k}.model.2"),
                 ((model, DERIVED),)),
            Spec(last, owner, "iteration", payload(rng, last),
                 ((f"e{k}.model.2", DERIVED),)),
            Spec(f"e{k}.result.1", owner, "result", payload(rng, f"e{k}.result.1"),
                 ((last, "evaluate"),)),
            Spec(f"e{k}.result.2", owner, "result", payload(rng, f"e{k}.result.2"),
                 ((last, "evaluate"), (data, "evaluate"))),
        ]
    return specs


# Retraction waves: every experiment retracts these in this order, so each
# seed gives the same cascade sizes. Against the preload: model.3 flags its
# two results; data flags four artifacts, eight when the next experiment is
# cross-linked to it; a result flags nothing; model flags two, both already
# affected.
RETRACT_WAVES = ("model.3", "data", "result", "model")


def retractions(seed: str, specs: list[Spec]) -> list[Spec]:
    """Four artifacts of every experiment, wave by wave; the seed picks which
    of its two results an experiment retracts and the order in each wave."""
    rng = random.Random(f"retract-{seed}")
    by_key = {spec.key: spec for spec in specs}
    experiments = sorted({spec.key.split(".")[0] for spec in specs})
    order = []
    for wave in RETRACT_WAVES:
        rng.shuffle(experiments)
        for experiment in experiments:
            position = f"result.{rng.randint(1, 2)}" if wave == "result" else wave
            order.append(by_key[f"{experiment}.{position}"])
    return order


# -- provenance documents ------------------------------------------------------


def _entity(local_id: str, label: str, artifact_pid: str | None = None) -> dict:
    return {"local_id": local_id, "label": label, "artifact_pid": artifact_pid,
            "checksum": None, "attributes": {}}


def _relation(kind: str, source: str, target: str) -> dict:
    return {"kind": kind, "source": source, "target": target, "attributes": {}}


def document(spec: Spec, pids: dict[str, str]) -> dict:
    """The provenance document a user would submit with ``publish``.

    Entity ``out`` stands for the published file; ``in<i>`` cite parents by
    PID. A used/was-generated-by pair through an activity, or a direct
    was-derived-from, attests each parent edge.
    """
    entities = [_entity("out", spec.kind)]
    activities: list[str] = []
    relations = []
    for index, (parent, via) in enumerate(spec.parents):
        entities.append(_entity(f"in{index}", "input", pids[parent]))
        if via == DERIVED:
            relations.append(_relation("was-derived-from", "out", f"in{index}"))
            continue
        relations.append(_relation("used", via, f"in{index}"))
        if via not in activities:
            activities.append(via)
    if not spec.parents:
        activities.append("collect")
    for activity in activities:
        relations.append(_relation("was-generated-by", "out", activity))
        relations.append(_relation("was-associated-with", activity, "operator"))
    return {
        "entities": entities,
        "activities": [
            {"local_id": a, "label": a, "started": None, "ended": None,
             "parent_activity": None, "attributes": {}}
            for a in activities
        ],
        "agents": [{"local_id": "operator", "label": "operator",
                    "identity_ref": spec.owner}],
        "relations": relations,
        "created_at": CREATED_AT,
    }


def stored_document(spec: Spec, pids: dict[str, str]) -> dict:
    """The document as ``publish`` stores it: ``out`` filled with the file's
    PID and checksum."""
    doc = document(spec, pids)
    doc["entities"][0].update(artifact_pid=pids[spec.key], checksum=spec.checksum)
    return doc


def enriched(doc: dict, rng: random.Random, step: int) -> dict:
    """An attribute-only revision of *doc*: one new attribute on one entity."""
    revised = {**doc, "entities": [dict(e, attributes=dict(e["attributes"]))
                                   for e in doc["entities"]]}
    target = rng.choice(revised["entities"])
    target["attributes"][f"note-{step}"] = f"{rng.random():.6f}"
    return revised
