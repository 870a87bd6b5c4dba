"""fedprov: command-line client; ``federation start-node`` runs one organization's node.

Machine-readable output is always a single JSON object on stdout; human
diagnostics go to stderr (suppressed by --json). The client signs every
transaction locally and talks to the organization nodes directly -- queries
fail over across nodes, so a dead replica does not take the client down.

Verbs
    publish       hash + store a file, reserve PIDs, commit one publish transaction
    update-prov   atomic provenance-record update (classify/store/reserve/commit)
    verify        recompute checksums against the ledger, print version history
    invalidate    flag an artifact invalid; optionally cascade to descendants
    trace         lineage paths with checksum-verified attesting documents
    federation    init | start-node | verify-chain | status

Exit codes
    0   postconditions achieved
    1   unclassified error
    2   usage error
    3   configuration error
    10  unknown or unresolvable PID
    11  unauthorized
    12  ledger rejected (endorsement policy, divergence, conflict)
    13  illegal update (original content altered)
    14  integrity mismatch (checksum or tamper evidence)
    15  invalid provenance document
    16  node or service unreachable
    17  duplicate resource / version chain conflict
    18  cascade refused: source not invalidated
    19  file I/O error
    20  derivation cycle detected
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__, identity as identity_mod
from .errors import (
    BrokenChainError,
    ChecksumMismatchError,
    ConfigError,
    CycleError,
    DocumentNotFoundError,
    DuplicateUserError,
    FedprovError,
    IllegalUpdateError,
    InvalidDocumentError,
    KindMismatchError,
    LedgerRejectedError,
    NotInvalidatedError,
    RegistryUnavailableError,
    SuccessorExistsError,
    TransportError,
    UnauthorizedError,
    UnknownPIDError,
)
from .federation import FederationConfig, init_federation
from .ledger.chaincode import (
    MSG_EXISTS,
    MSG_NOT_FOUND,
    MSG_PROV_INVALIDATE,
    MSG_UNAUTHORIZED,
    MSG_VERSION_CONFLICT,
)
from .ledger.client import LedgerClient, require_committed
from .lineage import (
    DerivationGraph,
    build_graph,
    collect_documents,
    invalidate_cascade,
    trace_lineage,
    verify_trace_soundness,
)
from .prov import ProvDocument, require_valid
from .prov_store import ProvStore
from .transport import TcpTransport
from .updates import AtomicUpdater

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_UNKNOWN_PID = 10
EXIT_UNAUTHORIZED = 11
EXIT_LEDGER_REJECTED = 12
EXIT_ILLEGAL_UPDATE = 13
EXIT_MISMATCH = 14
EXIT_INVALID_DOCUMENT = 15
EXIT_UNREACHABLE = 16
EXIT_DUPLICATE = 17
EXIT_NOT_INVALIDATED = 18
EXIT_IO = 19
EXIT_CYCLE = 20

_ERROR_EXITS: list[tuple[type, int]] = [
    (ConfigError, EXIT_CONFIG),
    (UnknownPIDError, EXIT_UNKNOWN_PID),
    (BrokenChainError, EXIT_UNKNOWN_PID),
    (UnauthorizedError, EXIT_UNAUTHORIZED),
    (IllegalUpdateError, EXIT_ILLEGAL_UPDATE),
    (ChecksumMismatchError, EXIT_MISMATCH),
    (DocumentNotFoundError, EXIT_MISMATCH),
    (InvalidDocumentError, EXIT_INVALID_DOCUMENT),
    (TransportError, EXIT_UNREACHABLE),
    (RegistryUnavailableError, EXIT_UNREACHABLE),
    (DuplicateUserError, EXIT_DUPLICATE),
    (SuccessorExistsError, EXIT_DUPLICATE),
    (KindMismatchError, EXIT_DUPLICATE),
    (NotInvalidatedError, EXIT_NOT_INVALIDATED),
    (CycleError, EXIT_CYCLE),
    (LedgerRejectedError, EXIT_LEDGER_REJECTED),
    (OSError, EXIT_IO),
    (FedprovError, EXIT_ERROR),
]

# A ledger refusal that carries its receipt exits by the receipt's message;
# any other message exits EXIT_LEDGER_REJECTED.
_RECEIPT_EXITS = {
    MSG_UNAUTHORIZED: EXIT_UNAUTHORIZED,
    MSG_NOT_FOUND: EXIT_UNKNOWN_PID,
    MSG_EXISTS: EXIT_DUPLICATE,
    MSG_PROV_INVALIDATE: EXIT_DUPLICATE,
    MSG_VERSION_CONFLICT: EXIT_DUPLICATE,
}


class CommandFailure(FedprovError):
    """Carries an exit code plus a partial result body for stdout."""

    def __init__(self, code: int, message: str, body: dict | None = None):
        super().__init__(message)
        self.code = code
        self.body = body or {}


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, LedgerRejectedError) and exc.receipt is not None:
        return _RECEIPT_EXITS.get(exc.receipt["message"], EXIT_LEDGER_REJECTED)
    for exc_type, code in _ERROR_EXITS:
        if isinstance(exc, exc_type):
            return code
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# Client context
# ---------------------------------------------------------------------------


@dataclass
class ClientContext:
    """Everything a command needs: config, credentials, service transports.

    The one place the client is assembled, for the CLI and the harness
    alike: ``ledger()`` reads and writes the ledger and reserves and resolves
    PIDs, over a ``TcpTransport`` to each organization's listen address.
    Without credentials the client still answers every query.
    """

    config: FederationConfig
    identity: identity_mod.Identity | None = None
    private_key: str | None = None

    @classmethod
    def build(cls, config_path: str, user_id: str | None) -> "ClientContext":
        config = FederationConfig.load(Path(config_path))
        config.require_cas()
        identity = private_key = None
        if user_id:
            identity, private_key = identity_mod.user_credentials(config.keys_dir, user_id)
        return cls(config=config, identity=identity, private_key=private_key)

    def require_identity(self) -> identity_mod.Identity:
        if self.identity is None or self.private_key is None:
            raise ConfigError("this command needs --identity <user-id>")
        return self.identity

    def ledger(self) -> LedgerClient:
        return LedgerClient(
            identity=self.identity,
            private_key=self.private_key,
            peer_transports={
                org.name: TcpTransport(org.listen_address)
                for org in self.config.organizations
            },
            orderer_transport=TcpTransport(self.config.orderer_org().listen_address),
            orgs=self.config.orgs_map(),
            endorsement_policy=self.config.endorsement_policy,
        )

    def store(self) -> ProvStore:
        return ProvStore(self.config.store_root)

    def updater(self) -> AtomicUpdater:
        return AtomicUpdater(store=self.store(), ledger=self.ledger())

    def owner_orgs(self) -> Callable[[str], str]:
        """Each user's organization, from one read of the identity directory."""
        directory = identity_mod.load_identity_directory(self.config.identities_dir)
        return lambda user_id: directory[user_id].org if user_id in directory else "unknown"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def publish_artifact(
    ctx: ClientContext, file_path: str, doc_path: str, entity_id: str | None = None
) -> dict:
    """Publish a file plus its provenance document; returns both PIDs."""
    identity = ctx.require_identity()
    if not identity_mod.may_write(identity, ctx.config.orgs_map()):
        raise UnauthorizedError(f"{identity.user_id!r} may not publish")
    payload = Path(file_path).read_bytes()
    doc = _load_document(doc_path)
    return ctx.updater().publish(payload, doc, identity, entity_id)


def update_provenance(
    ctx: ClientContext, prov_pid: str, doc_path: str, grant_path: str | None = None
) -> dict:
    identity = ctx.require_identity()
    new_doc = _load_document(doc_path)
    permission = _load_grant(grant_path)
    result = ctx.updater().update(prov_pid, new_doc, identity, permission)
    return result.to_dict()


def verify_pid(ctx: ClientContext, pid: str) -> dict:
    """Recompute content checksums against the ledger record for *pid*."""
    ledger = ctx.ledger()
    store = ctx.store()

    chain = ledger.version_history(pid)
    record = next(r for r in chain if r["pid"] == pid)
    # The ledger keeps a version chain under its first PID (an artifact's
    # chain is the artifact alone), and its current value is the last
    # history entry, so value and history are read at one moment.
    history = ledger.get_history(chain[0]["pid"])
    version = record["version_number"]
    attested = next(
        (h["value"] for h in reversed(history) if h["value"]["version"] == version), None
    )
    if attested is None:
        raise UnknownPIDError(f"version {version} of {pid} has no committed ledger record")
    attested_uri, attested_checksum = attested["uri"], attested["checksum"]
    value = history[-1]["value"]

    mismatches = []
    if record["checksum"] and record["checksum"] != attested_checksum:
        mismatches.append("registry checksum differs from ledger checksum")
    try:
        store.fetch_bytes(attested_uri, attested_checksum)
    except (ChecksumMismatchError, DocumentNotFoundError) as exc:
        mismatches.append(str(exc))

    body = {
        "pid": pid,
        "result": "VERIFIED" if not mismatches else "MISMATCH",
        "mismatches": mismatches,
        "status": value["status"],
        "ledger_version": value["version"],
        "version_history": chain,
        "ledger_history": [
            {
                "height": h["height"],
                "kind": h["kind"],
                "version": h["value"]["version"],
                "status": h["value"]["status"],
                "timestamp": h["timestamp"],
            }
            for h in history
        ],
    }
    if mismatches:
        raise CommandFailure(EXIT_MISMATCH, "integrity mismatch", body)
    return body


def invalidate_artifact(
    ctx: ClientContext,
    pid: str,
    reason: str,
    cascade: bool,
    grant_path: str | None = None,
) -> dict:
    identity = ctx.require_identity()
    ledger = ctx.ledger()
    permission = _load_grant(grant_path)
    receipt = require_committed(
        ledger.hlf_invalidate(pid, reason=reason, permission=permission)
    )

    body = {"pid": pid, "receipt": receipt.to_dict(), "affected": []}
    if cascade:
        graph = _derivation_graph(ledger, ctx.store())
        flagged = invalidate_cascade(
            pid,
            graph,
            ledger=ledger,
            outbox_dir=ctx.config.outbox_dir,
            owner_org=ctx.owner_orgs(),
        )
        body["affected"] = [{"pid": p, "status": s} for p, s in flagged]
    return body


def trace_artifact(ctx: ClientContext, pid: str, include_dot: bool = False) -> dict:
    store = ctx.store()
    graph = _derivation_graph(ctx.ledger(), store)
    paths = trace_lineage(pid, graph)
    verify_trace_soundness(paths, store)
    body = {"pid": pid, "paths": [p.to_dict() for p in paths]}
    if include_dot:
        body["dot"] = graph.to_dot()
    return body


@dataclass(frozen=True)
class _TipView:
    tip: tuple[int, str]  # (height, tip hash) the state was read at
    state: dict[str, dict]
    graph: DerivationGraph


# The last tip this process read, with its state and derivation graph; it is
# replaced, never grown. A block hash names the whole chain, so it names the
# state: while a node's tip is unchanged, so are its state and this graph.
_tip_view: _TipView | None = None


def _derivation_graph(ledger: LedgerClient, store: ProvStore) -> DerivationGraph:
    """The derivation graph of the ledger's current state.

    Every provenance document on the ledger is read and checksum-verified on
    every call. Only at the tip this process last read does a node answer
    without the state (``unless_tip``), and the graph built then is reused;
    a graph whose build raises is not kept.
    """
    global _tip_view
    held = _tip_view
    answer = ledger.read_state(unless_tip=held.tip[1] if held else None)
    tip = (answer["height"], answer["tip_hash"])
    if "state" not in answer:
        if held is None or tip != held.tip:
            raise FedprovError(f"node sent no state for tip {tip}, which this client has not read")
        collect_documents(held.state, store)
        return held.graph
    state = answer["state"]
    graph = build_graph(collect_documents(state, store), state)
    _tip_view = _TipView(tip, state, graph)
    return graph


# ---------------------------------------------------------------------------
# Federation actions
# ---------------------------------------------------------------------------


def federation_init(config_path: str) -> dict:
    config = init_federation(Path(config_path))
    return {
        "initialized": True,
        "organizations": [o.name for o in config.organizations],
        "orderer": config.orderer_org().name,
    }


def federation_status(ctx: ClientContext) -> dict:
    nodes = _ask_nodes(ctx, {"op": "height"})
    answered = [info for info in nodes.values() if "error" not in info]
    for info in answered:
        info["lag"] = max(other["height"] for other in answered) - info["height"]
    return _federation_body(nodes)


def federation_verify_chain(ctx: ClientContext) -> dict:
    nodes = _ask_nodes(ctx, {"op": "verify_chain"})
    reachable = [info for info in nodes.values() if info["reachable"]]
    body = _federation_body(nodes, all_clear=bool(reachable) and all(
        "error" not in info and info["report"]["ok"] for info in reachable))
    if not body["all_clear"] or not body["consistent"]:
        raise CommandFailure(EXIT_MISMATCH, "chain verification found divergence", body)
    return body


def _ask_nodes(ctx: ClientContext, query: dict) -> dict[str, dict]:
    """One *query* to every node, through the client's peer transports.

    An unreachable node, or one that answers with an error, has the error
    recorded in its entry; the other nodes are still asked."""
    nodes = {}
    for org, transport in ctx.ledger().peers.items():
        try:
            answer = transport("QUERY", query)
        except TransportError as exc:
            nodes[org] = {"reachable": False, "error": str(exc)}
        except FedprovError as exc:  # the node answered with an error
            nodes[org] = {"reachable": True, "error": str(exc)}
        else:
            del answer["ok"]
            nodes[org] = {"reachable": True, **answer}
    return nodes


def _federation_body(nodes: dict[str, dict], **fields) -> dict:
    """*nodes* and *fields*, with whether the state digests of the nodes
    that answered agree; exit 16 if no node is reachable."""
    digests = {info["state_digest"] for info in nodes.values() if "error" not in info}
    body = {"nodes": nodes, **fields, "consistent": len(digests) <= 1}
    if not any(info["reachable"] for info in nodes.values()):
        raise CommandFailure(EXIT_UNREACHABLE, "no node reachable", body)
    return body


def federation_start_node(config_path: str, org_name: str) -> dict:
    """Run one organization node in the foreground (plus orderer and registry,
    on the same address, on the orderer org). Blocks until interrupted.
    The one verb that loads the server side."""
    from .services import shut_down, start_orgs

    config = FederationConfig.load(Path(config_path))
    address = config.org_entry(org_name).listen_address
    services, servers = start_orgs(config, [org_name])

    stop = {"requested": False}

    def _handle(signum, frame):
        stop["requested"] = True

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    print(json.dumps({"serving": org_name, "address": address}), flush=True)
    try:
        while not stop["requested"]:
            time.sleep(0.2)
    finally:
        shut_down(services.values(), servers)
    return {"stopped": org_name}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _load_document(path: str) -> ProvDocument:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InvalidDocumentError([f"{path}: not valid JSON ({exc})"]) from exc
    try:
        doc = ProvDocument.from_dict(data)
        require_valid(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidDocumentError([f"{path}: not a provenance document ({exc!r})"]) from exc
    return doc


def _load_grant(path: str | None) -> identity_mod.Permission | None:
    """The permission grant in *path*; a file that is not one is a usage error."""
    if path is None:
        return None
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return identity_mod.Permission.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CommandFailure(EXIT_USAGE, f"{path}: not a permission grant ({exc!r})") from exc


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves a parser unchanged, so runs and threads share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedprov",
        description="Federated provenance client",
    )
    parser.add_argument("--config", required=True, help="federation config JSON")
    parser.add_argument("--identity", help="user id (keys under the federation key dir "
                                            "or $FEDPROV_KEYDIR)")
    parser.add_argument("--json", action="store_true",
                        help="suppress stderr diagnostics; stdout JSON only")
    parser.add_argument("--version", action="version", version=f"fedprov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("publish", help="publish an artifact with its provenance document")
    p.add_argument("file", help="artifact file to publish")
    p.add_argument("document", help="provenance document (JSON)")
    p.add_argument("--entity", default=None,
                   help="local id of the entity standing for the published file")

    p = sub.add_parser("update-prov", help="atomically update a provenance record")
    p.add_argument("pid", help="PID of the newest provenance record version")
    p.add_argument("document", help="revised provenance document (JSON)")
    p.add_argument("--grant", help="signed permission grant (JSON)", default=None)

    p = sub.add_parser("verify", help="verify content integrity against the ledger")
    p.add_argument("pid")

    p = sub.add_parser("invalidate", help="invalidate an artifact")
    p.add_argument("pid")
    p.add_argument("--reason", default="")
    p.add_argument("--cascade", action="store_true",
                   help="flag all derived artifacts as affected and notify owners")
    p.add_argument("--grant", default=None)

    p = sub.add_parser("trace", help="print lineage paths for an artifact")
    p.add_argument("pid")
    p.add_argument("--dot", action="store_true",
                   help="include the whole derivation graph in DOT form")

    p = sub.add_parser("federation", help="federation lifecycle operations")
    p.add_argument("action", choices=["init", "start-node", "verify-chain", "status"])
    p.add_argument("--org", help="organization (start-node)")

    return parser


def run(argv: list[str]) -> tuple[int, dict]:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "federation":
            if args.action == "init":
                return EXIT_OK, federation_init(args.config)
            if args.action == "start-node":
                if not args.org:
                    raise ConfigError("start-node needs --org")
                return EXIT_OK, federation_start_node(args.config, args.org)

        ctx = ClientContext.build(args.config, args.identity)
        if args.command == "federation":
            if args.action == "status":
                return EXIT_OK, federation_status(ctx)
            return EXIT_OK, federation_verify_chain(ctx)
        if args.command == "publish":
            return EXIT_OK, publish_artifact(ctx, args.file, args.document, args.entity)
        if args.command == "update-prov":
            return EXIT_OK, update_provenance(ctx, args.pid, args.document, args.grant)
        if args.command == "verify":
            return EXIT_OK, verify_pid(ctx, args.pid)
        if args.command == "invalidate":
            return EXIT_OK, invalidate_artifact(
                ctx, args.pid, args.reason, args.cascade, args.grant
            )
        if args.command == "trace":
            return EXIT_OK, trace_artifact(ctx, args.pid, args.dot)
        raise ConfigError(f"unknown command {args.command!r}")
    except CommandFailure as exc:
        return exc.code, {**exc.body, "error": str(exc)}
    except Exception as exc:  # mapped to the documented exit codes
        body = {"error": str(exc), "error_type": type(exc).__name__}
        if isinstance(exc, LedgerRejectedError) and exc.receipt is not None:
            body["receipt"] = exc.receipt
        return exit_code_for(exc), body


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, body = run(argv)
    print(json.dumps(body, indent=2, sort_keys=True))
    if code != EXIT_OK and not _json_flag(argv):
        print(f"fedprov: exit {code}: {body.get('error', '')}", file=sys.stderr)
    return code


def _json_flag(argv: list[str]) -> bool:
    return "--json" in argv


if __name__ == "__main__":
    sys.exit(main())
