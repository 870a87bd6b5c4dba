"""Shared fixtures: federations, registered users, and document builders."""

from __future__ import annotations

import threading
import time
import uuid

import pytest

from fedprov.harness import Federation
from fedprov.ledger.client import Receipt, publish_operation
from fedprov.prov import Activity, Agent, Entity, ProvDocument, Relation

FROZEN = "2026-08-01T12:00:00.000Z"


@pytest.fixture()
def frozen_clock(monkeypatch):
    monkeypatch.setenv("FEDPROV_FROZEN_TIME", FROZEN)
    return FROZEN


@pytest.fixture()
def fed(tmp_path):
    """Loopback TCP 3-org federation."""
    federation = Federation.bootstrap(tmp_path / "fed")
    yield federation
    federation.stop()


@pytest.fixture()
def users(fed):
    return register_default_users(fed)


def register_default_users(federation: Federation) -> dict:
    out = {}
    for org, name in (("OrgA", "alice"), ("OrgB", "bob"), ("Readers", "ruth")):
        identity, key = federation.register_user(org, name)
        out[name] = {
            "identity": identity,
            "key": key,
            "ledger": federation.client(identity, key).ledger(),
        }
    return out


def publish_raw(ledger, pid, uri="cas://a", checksum="ca", owners=("alice",), *,
                prov=None, timestamp=None) -> Receipt:
    """Submit one ledger ``publish`` through ``LedgerClient.submit``: artifact
    *pid* plus its provenance record *prov* = (pid, uri, checksum), by
    default ``(<pid>/prov, "cas://doc", "c-doc")``. Nothing is stored or
    minted, so a record written this way names no blob unless the caller
    stored one."""
    prov_pid, doc_uri, doc_checksum = prov or (f"{pid}/prov", "cas://doc", "c-doc")
    operation = publish_operation(
        pid, uri, checksum, list(owners), prov_pid, doc_uri, doc_checksum
    )
    return ledger.submit(*operation, timestamp)


def order_in_one_block(fed, ledger, envelopes) -> list[Receipt]:
    """Order *envelopes*, one ORDER request each, so that they share a block;
    their receipts, in order. The orderer organization's node holds its
    commit of a lone write until every envelope is queued behind it, so the
    orderer cuts them all into the next block."""
    node = fed.nodes[fed.config.orderer_org().name]
    commit, holding, release = node.commit, threading.Event(), threading.Event()

    def held(block):
        node.commit = commit
        holding.set()
        release.wait(10)
        return commit(block)

    receipts: list[Receipt | None] = [None] * len(envelopes)

    def order(i):
        receipts[i] = ledger.order(envelopes[i])

    lone = threading.Thread(target=publish_raw, args=(
        ledger, f"21.P/lone-{uuid.uuid4().hex}", "cas://l", "cl", [ledger.identity.user_id]))
    writers = [threading.Thread(target=order, args=(i,)) for i in range(len(envelopes))]
    node.commit = held
    try:
        lone.start()
        assert holding.wait(10)
        for writer in writers:
            writer.start()
        deadline = time.monotonic() + 10
        while len(fed.orderer._queue) < len(envelopes) and time.monotonic() < deadline:
            time.sleep(0.005)
    finally:
        release.set()
    for thread in [lone, *writers]:
        thread.join(10)
    assert None not in receipts
    assert len({receipt.height for receipt in receipts}) == 1
    return receipts


# -- document builders ---------------------------------------------------------


def doc(entities=(), activities=(), agents=(), relations=(), created_at="2026-01-01T00:00:00.000Z"):
    return ProvDocument(
        entities=list(entities),
        activities=list(activities),
        agents=list(agents),
        relations=list(relations),
        created_at=created_at,
    )


def ent(local_id, label="entity", **kw):
    return Entity(local_id=local_id, label=label, **kw)


def act(local_id, label="activity", **kw):
    return Activity(local_id=local_id, label=label, **kw)


def agt(local_id, label="agent", **kw):
    return Agent(local_id=local_id, label=label, **kw)


def rel(kind, source, target, **kw):
    return Relation(kind=kind, source=source, target=target, **kw)


def simple_doc():
    """One input, one activity, one output, one agent."""
    return doc(
        entities=[ent("e-in", "input"), ent("e-out", "output")],
        activities=[act("a-run", "run")],
        agents=[agt("ag", "operator")],
        relations=[
            rel("used", "a-run", "e-in"),
            rel("was-generated-by", "e-out", "a-run"),
            rel("was-associated-with", "a-run", "ag"),
        ],
    )
