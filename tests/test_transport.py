"""Wire framing and the registry service surface over TCP."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from conftest import register_default_users
from fedprov.errors import FedprovError, TransportError, UnauthorizedError, UnknownPIDError
from fedprov.harness import free_port
from fedprov.ledger.chaincode import MSG_BAD_REQUEST
from fedprov.ledger.client import STATUS_REJECTED
from fedprov.services import RegistryClient
from fedprov.transport import (
    MessageServer,
    TcpTransport,
    parse_address,
    recv_message,
    request,
    send_message,
)


def test_framing_round_trip():
    """4-byte big-endian length prefix, UTF-8 JSON body."""
    server, client = socket.socketpair()
    try:
        payload = {"kind": "QUERY", "payload": {"op": "height", "text": "héllo"}}
        send_message(client, payload)
        raw = server.recv(4)
        (length,) = struct.unpack(">I", raw)
        body = server.recv(length)
        assert len(body) == length
        assert b'"kind":"QUERY"' in body
        send_message(server, payload)
        assert recv_message(client) == payload
    finally:
        server.close()
        client.close()


def test_parse_address():
    assert parse_address("127.0.0.1:7500") == ("127.0.0.1", 7500)
    with pytest.raises(TransportError):
        parse_address("nonsense")


def test_request_to_dead_address_raises():
    with pytest.raises(TransportError):
        request(f"127.0.0.1:{free_port()}", "QUERY", {}, timeout=0.3)


def test_message_server_dispatch_and_errors():
    def handler(kind, payload):
        if kind == "ECHO":
            return {"ok": True, "echo": payload}
        raise UnknownPIDError("nope")

    server = MessageServer(f"127.0.0.1:{free_port()}", handler).start()
    try:
        response = request(server.address, "ECHO", {"x": 1})
        assert response["echo"] == {"x": 1}
        with pytest.raises(UnknownPIDError):
            request(server.address, "OTHER", {})
    finally:
        server.stop()


def test_occupied_port_raises():
    address = f"127.0.0.1:{free_port()}"
    first = MessageServer(address, lambda k, p: {"ok": True}).start()
    try:
        with pytest.raises(TransportError):
            MessageServer(address, lambda k, p: {"ok": True})
    finally:
        first.stop()


def test_concurrent_requests_served():
    def handler(kind, payload):
        return {"ok": True, "n": payload["n"]}

    server = MessageServer(f"127.0.0.1:{free_port()}", handler).start()
    results = []
    lock = threading.Lock()

    def call(n):
        response = request(server.address, "X", {"n": n})
        with lock:
            results.append(response["n"])

    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == list(range(8))
    finally:
        server.stop()


# -- registry service over the wire ---------------------------------------------


@pytest.fixture()
def tcp_users(tcp_fed):
    return register_default_users(tcp_fed)


def test_registry_mint_resolve_link_history_over_tcp(tcp_fed, tcp_users):
    alice = tcp_users["alice"]
    client = RegistryClient(
        TcpTransport(tcp_fed.config.registry_address),
        alice["identity"],
        alice["key"],
    )
    v1 = client.mint("provenance-record", "cas://1", "c1")
    v2 = client.mint("provenance-record", "cas://2", "c2")
    client.link_new_version(v1["pid"], v2["pid"])
    chain = client.version_history(v2["pid"])
    assert [r["version_number"] for r in chain] == [1, 2]
    assert client.resolve(v1["pid"])["successor"] == v2["pid"]
    client.unlink(v2["pid"])
    assert client.resolve(v1["pid"])["successor"] is None
    with pytest.raises(UnknownPIDError):
        client.resolve(v2["pid"])


def test_registry_rejects_bad_signature_over_tcp(tcp_fed, tcp_users):
    alice = tcp_users["alice"]
    wrong_key = tcp_users["bob"]["key"]
    client = RegistryClient(
        TcpTransport(tcp_fed.config.registry_address), alice["identity"], wrong_key
    )
    with pytest.raises(UnauthorizedError):
        client.mint("artifact", "cas://x", "cx")


def test_registry_resolve_unauthenticated(tcp_fed, tcp_users):
    signed = RegistryClient(
        TcpTransport(tcp_fed.config.registry_address),
        tcp_users["alice"]["identity"],
        tcp_users["alice"]["key"],
    )
    record = signed.mint("artifact", "cas://1", "c1")
    anonymous = RegistryClient(TcpTransport(tcp_fed.config.registry_address))
    assert anonymous.resolve(record["pid"])["checksum"] == "c1"
    with pytest.raises(UnauthorizedError):
        anonymous.mint("artifact", "cas://2", "c2")


def test_node_query_over_tcp(tcp_fed, tcp_users):
    alice = tcp_users["alice"]["ledger"]
    assert alice.hlf_create("21.P/x", "cas://x", "cx", ["alice"], "artifact").ok
    org = tcp_fed.config.organizations[0]
    transport = TcpTransport(org.listen_address)
    value = transport("QUERY", {"op": "read", "pid": "21.P/x"})["value"]
    assert value["checksum"] == "cx"
    report = transport("QUERY", {"op": "verify_chain"})["report"]
    assert report["ok"]


def test_propose_answered_with_endorse_kind(tcp_fed, tcp_users):
    import uuid

    from fedprov import clock, crypto
    from fedprov.canonical import canonical_bytes

    identity = tcp_users["alice"]["identity"]
    body = {
        "kind": "create-artifact",
        "pid": "21.P/k",
        "args": {"uri": "cas://k", "checksum": "ck", "owners": ["alice"]},
        "creator": {
            "user_id": "alice",
            "org": "OrgA",
            "public_key": identity.public_key,
            "certificate": identity.certificate,
        },
        "timestamp": clock.now_iso(),
        "nonce": uuid.uuid4().hex,
    }
    signature = crypto.sign(tcp_users["alice"]["key"], canonical_bytes(body))
    org = tcp_fed.config.organizations[0]
    response = TcpTransport(org.listen_address)(
        "PROPOSE", {"body": body, "signature": signature}
    )
    assert response["kind"] == "ENDORSE"
    assert response["endorsement"]["org"] == org.name


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("MINT", {"request": {"object_kind": "artifact"}, "signature": "00"}),
        ("MINT", {"caller": "x", "request": {"object_kind": "artifact"}, "signature": "00"}),
        ("MINT", {"caller": {"user-id": "a"}, "request": {"object_kind": "artifact"},
                  "signature": "00"}),
        ("PROPOSE", {"body": {"creator": "x"}}),
        ("PROPOSE", {"body": []}),
    ],
    ids=["mint-no-caller", "mint-caller-string", "mint-caller-file-form",
         "propose-creator-string", "propose-body-list"],
)
def test_malformed_identity_claim_refused_over_tcp(tcp_fed, kind, payload):
    """A malformed claim is an authorization refusal, never an internal error."""
    address = (tcp_fed.config.registry_address if kind == "MINT"
               else tcp_fed.config.organizations[0].listen_address)
    before = tcp_fed.system_digest()
    with pytest.raises(UnauthorizedError):
        TcpTransport(address)(kind, payload)
    assert tcp_fed.system_digest() == before


def _signed(user, request):
    from fedprov import crypto
    from fedprov.canonical import canonical_bytes

    return {
        "caller": user["identity"].to_creator(),
        "request": request,
        "signature": crypto.sign(user["key"], canonical_bytes(request)),
    }


@pytest.mark.parametrize(
    "kind, request_body",
    [("MINT", []), ("MINT", {}), ("MINT", {"object_kind": 7}), ("LINK", {"old_pid": "21.P/1"}),
     ("LINK", {"old_pid": "21.P/1", "new_pid": "21.P/2", "permission": {"subject": "x"}}),
     ("UNLINK", {"new_pid": ["21.P/1"]})],
    ids=["mint-list", "mint-empty", "mint-non-string-kind", "link-no-new-pid",
         "link-malformed-grant", "unlink-non-string-pid"],
)
def test_malformed_registry_request_named_over_tcp(tcp_fed, tcp_users, kind, request_body):
    """A signed but malformed request is refused by name, not as an internal error."""
    before = tcp_fed.system_digest()
    with pytest.raises(FedprovError) as refused:
        TcpTransport(tcp_fed.config.registry_address)(
            kind, _signed(tcp_users["alice"], request_body)
        )
    assert str(refused.value).startswith("malformed request:")
    assert tcp_fed.system_digest() == before


def test_propose_with_list_args_is_a_bad_request_over_tcp(tcp_fed, tcp_users):
    receipt = tcp_users["alice"]["ledger"].submit("publish", "21.P/k", [])
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, MSG_BAD_REQUEST)
