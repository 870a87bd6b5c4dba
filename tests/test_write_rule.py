"""One rule for who may write, asked at every write entry point.

``identity.may_write`` (a certified member of a producer organization)
guards the ledger ``publish`` (the ``create`` cell, submitted raw),
``flag-affected``, registry MINT and ``cli publish``;
``identity.check_auth`` (``may_write`` plus ownership or an owner's grant)
guards ``update-prov``, ``invalidate`` and ``AtomicUpdater.update``. Every
cell of callers x entry points is allowed exactly when its predicate says
so, and a refused cell changes nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from conftest import publish_raw, simple_doc
from fedprov import cli, identity as identity_mod
from fedprov.errors import LedgerRejectedError, UnauthorizedError
from fedprov.harness import Federation
from fedprov.ledger.chaincode import MSG_UNAUTHORIZED
from fedprov.ledger.client import Receipt
from fedprov.prov import ProvDocument

# Alice owns every resource written to; bob is a producer in another org;
# ruth is read-only; mallory claims OrgA under a CA outside the federation.
CALLERS = ("alice", "bob", "bob+grant", "ruth", "ruth+grant", "mallory")
MAY_WRITE = {"alice", "bob", "bob+grant"}
OWNER_OR_GRANTEE = {"alice", "bob+grant"}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("write-rule")
    fed = Federation.bootstrap(root / "fed")
    users = {
        name: fed.register_user(org, name)
        for org, name in (("OrgA", "alice"), ("OrgB", "bob"), ("Readers", "ruth"))
    }
    rogue = identity_mod.RegistrationService.create(
        [("OrgA", "producer"), ("Shadow", "consumer-read-only")], ca_dir=root / "rogue-cas",
        identities_dir=root / "rogue-ids", keys_dir=root / "rogue-keys",
    )
    users["mallory"] = rogue.register_user("OrgA", "mallory")
    yield World(fed, users, root)
    fed.stop()


class World:
    def __init__(self, fed: Federation, users: dict, root):
        self.fed = fed
        self.users = users
        self.root = root
        self.alice = fed.client(*users["alice"])
        self._serial = itertools.count()

    def serial(self) -> int:
        return next(self._serial)

    def created(self) -> tuple[str, str]:
        """An artifact and its provenance record, put on the ledger by alice
        with one raw ``publish``."""
        pid = f"21.P/rule-{self.serial()}"
        prov_pid = f"{pid}/prov"
        assert publish_raw(self.alice.ledger(), pid, "cas://v1", "c1",
                           prov=(prov_pid, "cas://v1", "c1")).ok
        return pid, prov_pid

    def published(self) -> str:
        doc = simple_doc()
        payload = f"rows {self.serial()}\n".encode()
        return self.alice.updater().publish(payload, doc, self.users["alice"][0])["prov_pid"]

    def files(self) -> tuple[str, str]:
        n = self.serial()
        data = self.root / f"data-{n}.csv"
        data.write_text(f"a,b\n{n},2\n")
        document = self.root / f"data-{n}.prov.json"
        document.write_text(json.dumps(simple_doc().to_dict()))
        return str(data), str(document)


def enriched(world: World, prov_pid: str) -> ProvDocument:
    """The published document of *prov_pid* with a note added: an enrichment."""
    record = world.alice.registry().resolve(prov_pid)
    doc = world.fed.store.fetch_document(record["target_uri"], record["checksum"])
    first = doc.entities[0]
    return doc.with_entity(
        dataclasses.replace(first, attributes={**first.attributes, "note": "enriched"})
    )


# Each entry point makes the resources alice owns for one cell, then returns
# the caller's attempt at the write.

def _create(world, ctx, who, grant_for):
    pid = f"21.P/rule-{world.serial()}"
    return lambda: publish_raw(ctx.ledger(), pid, "cas://c", "cc", [who.user_id])


def _update_prov(world, ctx, who, grant_for):
    _, pid = world.created()
    grant = grant_for(pid, identity_mod.CAP_UPDATE_PROVENANCE)
    return lambda: ctx.ledger().hlf_update_prov(pid, "cas://v2", "c2", 2, f"{pid}/v2",
                                              permission=grant)


def _invalidate(world, ctx, who, grant_for):
    pid, _ = world.created()
    grant = grant_for(pid, identity_mod.CAP_INVALIDATE_ARTIFACT)
    return lambda: ctx.ledger().hlf_invalidate(pid, reason="bad", permission=grant)


def _flag_affected(world, ctx, who, grant_for):
    (source, _), (target, _) = world.created(), world.created()
    assert world.alice.ledger().hlf_invalidate(source).ok
    return lambda: ctx.ledger().flag_affected([target], source)


def _mint(world, ctx, who, grant_for):
    return lambda: ctx.registry().mint()


def _publish(world, ctx, who, grant_for):
    data, document = world.files()
    return lambda: cli.publish_artifact(ctx, data, document)


def _update(world, ctx, who, grant_for):
    prov_pid = world.published()
    new_doc = enriched(world, prov_pid)
    grant = grant_for(prov_pid, identity_mod.CAP_UPDATE_PROVENANCE)
    return lambda: ctx.updater().update(prov_pid, new_doc, who, permission=grant)


ENTRY_POINTS = {
    "create": (MAY_WRITE, _create),
    "update-prov": (OWNER_OR_GRANTEE, _update_prov),
    "invalidate": (OWNER_OR_GRANTEE, _invalidate),
    "flag-affected": (MAY_WRITE, _flag_affected),
    "registry-mint": (MAY_WRITE, _mint),
    "cli-publish": (MAY_WRITE, _publish),
    "atomic-update": (OWNER_OR_GRANTEE, _update),
}


def carried_out(attempt) -> bool:
    """True if *attempt* wrote, False if it was refused as unauthorized.

    Any other failure propagates, so a cell cannot pass by failing for an
    unrelated reason.
    """
    try:
        outcome = attempt()
    except UnauthorizedError:
        return False
    except LedgerRejectedError as exc:
        if exc.receipt is not None and exc.receipt["message"] == MSG_UNAUTHORIZED:
            return False
        raise
    if isinstance(outcome, Receipt):
        if outcome.message == MSG_UNAUTHORIZED:
            return False
        assert outcome.ok, outcome
    return True


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_write_allowed_exactly_when_the_rule_says(world, entry, caller):
    allowed_callers, prepare = ENTRY_POINTS[entry]
    name = caller.split("+")[0]
    who, key = world.users[name]
    alice, alice_key = world.users["alice"]

    def grant_for(pid, capability):
        if not caller.endswith("+grant"):
            return None
        return identity_mod.grant_permission(pid, name, capability, alice, alice_key)

    attempt = prepare(world, world.fed.client(who, key), who, grant_for)
    before = world.fed.system_digest()
    allowed = carried_out(attempt)
    assert allowed == (caller in allowed_callers)
    if not allowed:
        assert world.fed.system_digest() == before
