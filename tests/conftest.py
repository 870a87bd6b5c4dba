"""Shared fixtures: federations, registered users, and document builders."""

from __future__ import annotations

import pytest

from fedprov.harness import Federation
from fedprov.prov import Activity, Agent, Entity, ProvDocument, Relation

FROZEN = "2026-08-01T12:00:00.000Z"


@pytest.fixture()
def frozen_clock(monkeypatch):
    monkeypatch.setenv("FEDPROV_FROZEN_TIME", FROZEN)
    return FROZEN


@pytest.fixture()
def fed(tmp_path):
    """Direct-wired 3-org federation (no sockets)."""
    federation = Federation.bootstrap(tmp_path / "fed")
    yield federation
    federation.stop()


@pytest.fixture()
def tcp_fed(tmp_path):
    """Loopback TCP 3-org federation."""
    federation = Federation.bootstrap(tmp_path / "fed", use_tcp=True)
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
            "registry": federation.client(identity, key).registry(),
        }
    return out


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
