"""Wire framing, pooled connections and the registry service surface over TCP."""

from __future__ import annotations

import json
import logging
import os
import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from conftest import publish_raw, register_default_users
from fedprov import cli, transport
from fedprov.errors import FedprovError, TransportError, UnauthorizedError, UnknownPIDError
from fedprov.harness import Federation, free_port
from fedprov.ledger.chaincode import MSG_BAD_REQUEST
from fedprov.ledger.client import STATUS_REJECTED, LedgerClient
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


@contextmanager
def serving(handler, address=None):
    """A started ``MessageServer``'s address; the server stops on exit."""
    server = MessageServer(address or f"127.0.0.1:{free_port()}", handler).start()
    try:
        yield server.address
    finally:
        server.stop()


def test_multi_megabyte_round_trip():
    with serving(lambda kind, payload: {"ok": True, "echo": payload}) as address:
        blob = "x" * (6 * 1024 * 1024) + "é"
        assert request(address, "ECHO", {"blob": blob})["echo"] == {"blob": blob}


def test_frame_sent_one_byte_at_a_time():
    with serving(lambda kind, payload: {"ok": True, "kind": kind}) as address:
        with socket.create_connection(parse_address(address), timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            body = b'{"kind":"SLOW","payload":{}}'
            for byte in struct.pack(">I", len(body)) + body:
                sock.sendall(bytes([byte]))
                time.sleep(0.001)
            assert recv_message(sock) == {"ok": True, "kind": "SLOW"}


def test_announced_size_is_not_allocated_up_front():
    """A peer that announces the largest message and sends little costs little."""
    class Recording:
        def __init__(self, sock):
            self.sock, self.sizes = sock, []

        def recv_into(self, view):
            self.sizes.append(len(view))
            return self.sock.recv_into(view)

    ours, theirs = socket.socketpair()
    try:
        theirs.sendall(struct.pack(">I", transport.MAX_MESSAGE_BYTES) + b"{}")
        theirs.close()
        recording = Recording(ours)
        with pytest.raises(TransportError, match="mid-message"):
            recv_message(recording)
        assert max(recording.sizes) <= 1024 * 1024
    finally:
        ours.close()
        theirs.close()


def test_burst_of_clients_all_answered():
    """32 clients connecting at once all get in at the first attempt."""
    def handler(kind, payload):
        time.sleep(0.01)
        return {"ok": True, "n": payload["n"]}

    start = threading.Barrier(32)
    answered, failed = [], []

    def call(address, n):
        start.wait(timeout=10)
        try:
            # A connection attempt dropped from a full listen queue is retried
            # only after a second, so it would time out here.
            answered.append(request(address, "X", {"n": n}, timeout=1.0)["n"])
        except TransportError as exc:
            failed.append(exc)

    with serving(handler) as address:
        threads = [threading.Thread(target=call, args=(address, i)) for i in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert failed == []
    assert sorted(answered) == list(range(32))


def test_stop_amid_connecting_clients_leaves_no_connection_open():
    """A connection accepted while ``stop`` runs is closed too, never left open."""
    server = MessageServer(f"127.0.0.1:{free_port()}", lambda k, p: {"ok": True}).start()
    key = parse_address(server.address)
    opened, lock, first_open = [], threading.Lock(), threading.Event()

    def connect_repeatedly():
        for _ in range(5):
            try:
                sock = socket.create_connection(key, timeout=2)
            except OSError:  # the server no longer listens
                return
            with lock:
                opened.append(sock)
            first_open.set()
            try:
                send_message(sock, {"kind": "X", "payload": {}})
                recv_message(sock)
            except (OSError, TransportError):
                return
            time.sleep(0.005)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=connect_repeatedly) for _ in range(8)]
        for client in clients:
            client.start()
        assert first_open.wait(timeout=10)
        server.stop()
        for client in clients:
            client.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(client.is_alive() for client in clients)
    for sock in opened:
        with sock:
            sock.settimeout(2)
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:  # closed before it was accepted
                pass


def test_internal_error_is_logged_with_its_traceback(caplog):
    def handler(kind, payload):
        raise KeyError("boom")

    with serving(handler) as address, caplog.at_level(logging.ERROR, logger="fedprov.transport"):
        with pytest.raises(FedprovError, match="internal error"):
            request(address, "QUERY", {})
    [record] = [r for r in caplog.records if r.name == "fedprov.transport"]
    assert record.levelname == "ERROR"
    assert "QUERY" in record.getMessage()
    assert record.exc_info[0] is KeyError


def test_frames_that_are_not_requests_are_malformed_and_keep_the_connection(fed):
    """A frame whose body is not UTF-8 JSON, is not an object, or whose
    ``kind`` is not a string, is answered as a malformed request on the
    connection it came on, and the next request on that connection is
    served."""
    address = fed.config.org_entry("OrgB").listen_address
    bodies = [json.dumps(frame).encode() for frame in
              ([], "text", None, {"kind": ["x"], "payload": {}})] + [b"{", b"\xff\xfe"]
    with socket.create_connection(parse_address(address), timeout=5) as sock:
        for body in bodies:
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = recv_message(sock)
            assert response["ok"] is False
            assert response["error"]["message"].startswith("malformed request")
        send_message(sock, {"kind": "QUERY", "payload": {"op": "height"}})
        response = recv_message(sock)
    assert response["ok"] is True
    assert response["height"] == fed.nodes["OrgB"].height()


def test_server_keeps_accepting_when_a_connection_thread_cannot_start(monkeypatch, caplog):
    """A connection that gets no thread is closed and logged; the next is answered."""
    real_start = threading.Thread.start
    refused = []

    def start(thread):
        if getattr(thread, "_target", None) is not None and \
                getattr(thread._target, "__name__", "") == "_answer" and not refused:
            refused.append(thread)
            raise RuntimeError("can't start new thread")
        return real_start(thread)

    with serving(lambda k, p: {"ok": True}) as address, \
            caplog.at_level(logging.ERROR, logger="fedprov.transport"):
        monkeypatch.setattr(threading.Thread, "start", start)
        with pytest.raises(TransportError):
            request(address, "FIRST", {}, timeout=5.0)
        assert request(address, "SECOND", {}, timeout=5.0) == {"ok": True}
    assert len(refused) == 1
    [record] = [r for r in caplog.records if r.name == "fedprov.transport"]
    assert record.exc_info[0] is RuntimeError


def test_answered_requests_log_nothing(caplog):
    def handler(kind, payload):
        if kind == "MISSING":
            raise UnknownPIDError("no such pid")
        return {"ok": True}

    with serving(handler) as address, caplog.at_level(logging.DEBUG, logger="fedprov"):
        request(address, "QUERY", {})
        with pytest.raises(UnknownPIDError):
            request(address, "MISSING", {})
    assert caplog.records == []


# -- pooled connections -----------------------------------------------------------


@contextmanager
def bare_server(answer, per_connection=None):
    """A TCP server without ``MessageServer``, taking one connection at a time.

    ``answer(message)`` gives the reply, or ``None`` to close the connection
    unanswered; a connection is also closed after *per_connection* replies.
    Yields the address, the ``(connection number, kind)`` of every request
    read whole, and an event set each time a connection has been closed.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    seen: list[tuple[int, str]] = []
    closed = threading.Event()
    accepted: list[socket.socket] = []

    def serve():
        number = 0
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            accepted.append(conn)
            with conn:
                replies = 0
                while replies != per_connection:
                    message = recv_message(conn)
                    if message is None:
                        break
                    seen.append((number, message["kind"]))
                    reply = answer(message)
                    if reply is None:
                        break
                    send_message(conn, reply)
                    replies += 1
            closed.set()
            number += 1

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}", seen, closed
    finally:
        for sock in (listener, *accepted):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        thread.join(timeout=5)
        listener.close()
        assert not thread.is_alive()


def test_pooled_connection_reused():
    with bare_server(lambda message: {"ok": True}) as (address, seen, _):
        for kind in ("A", "B", "C"):
            request(address, kind, {})
        assert seen == [(0, "A"), (0, "B"), (0, "C")]


def test_new_server_on_the_same_port_answers():
    """A stopped server's pooled connection is never used to reach its successor."""
    address = f"127.0.0.1:{free_port()}"
    for name in ("first", "second"):
        with serving(lambda k, p: {"ok": True, "server": name}, address):
            assert request(address, "WHO", {})["server"] == name


def test_stopped_server_refuses_pooled_requests():
    with serving(lambda k, p: {"ok": True}) as address:
        request(address, "PING", {})
    with pytest.raises(TransportError):
        request(address, "PING", {}, timeout=1.0)


def test_idle_connection_closed_by_server_is_replaced():
    with bare_server(lambda message: {"ok": True}, per_connection=1) as (address, seen, closed):
        request(address, "A", {})
        assert closed.wait(timeout=5)
        request(address, "B", {})
        assert seen == [(0, "A"), (1, "B")]


def test_no_resend_once_the_request_has_left():
    """The server read the whole request, then dropped the connection: its
    outcome is unknown, so the request fails and is not sent again."""
    def answer(message):
        return {"ok": True} if message["kind"] == "FIRST" else None

    with bare_server(answer) as (address, seen, _):
        request(address, "FIRST", {})
        with pytest.raises(TransportError):
            request(address, "SECOND", {})
        assert seen == [(0, "FIRST"), (0, "SECOND")]


def test_resend_when_sending_on_a_reused_connection_fails():
    """A reused connection that cannot take the request (here, one whose
    sending side is shut) is replaced and the request sent once, afresh."""
    handled = []
    broken, peer = socket.socketpair()
    with serving(lambda k, p: handled.append(k) or {"ok": True}) as address:
        try:
            broken.shutdown(socket.SHUT_WR)
            transport._POOL.checkin(parse_address(address), broken)
            request(address, "ONCE", {})
            assert handled == ["ONCE"]
            assert broken.fileno() == -1
        finally:
            peer.close()
            broken.close()


@pytest.mark.parametrize("reply", [[], 0, "x"], ids=["list", "number", "string"])
def test_reply_that_is_not_an_object_is_unreachable_and_not_pooled(reply):
    """A reply that is JSON but not an object is a ``TransportError`` (exit
    16), and its connection is closed, not pooled: the next request opens
    another."""
    with bare_server(lambda message: reply) as (address, seen, closed):
        with pytest.raises(TransportError, match="not an object") as failed:
            request(address, "A", {})
        assert cli.exit_code_for(failed.value) == 16
        assert closed.wait(timeout=5)
        with pytest.raises(TransportError, match="not an object"):
            request(address, "B", {})
        assert seen == [(0, "A"), (1, "B")]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_federations_started_and_stopped_leave_no_sockets(tmp_path):
    def open_fds():
        return os.listdir("/proc/self/fd")

    def run(n):
        """Start a TCP federation, write through it, stop it; the sockets it had."""
        federation = Federation.bootstrap(tmp_path / f"fed{n}")
        try:
            alice = register_default_users(federation)["alice"]
            assert publish_raw(alice["ledger"], f"21.P/{n}", "cas://x", "cx").ok
            alice["ledger"].mint()
            return sum(_is_socket(fd) for fd in open_fds())
        finally:
            federation.stop()

    transport._POOL.sweep()
    start = len(open_fds())
    sockets = run(0)
    assert sockets > 0
    for n in range(1, 20):
        run(n)
    assert len(open_fds()) <= start + sockets


def test_tcp_federation_stops_promptly(tmp_path):
    """Stopping waits on no polling interval, idle pooled connections or not."""
    federation = Federation.bootstrap(tmp_path / "fed")
    try:
        alice = register_default_users(federation)["alice"]
        assert publish_raw(alice["ledger"], "21.P/s", "cas://s", "cs").ok
        alice["ledger"].mint()
    finally:
        started = time.perf_counter()
        federation.stop()
        elapsed = time.perf_counter() - started
    assert elapsed < 0.1
    with pytest.raises(TransportError):
        TcpTransport(_orderer_address(federation), timeout=0.5)("RESOLVE", {"pid": "x"})


def test_bootstrap_serves_over_tcp_only(tmp_path):
    """Every federation is served on its loopback addresses: ``use_tcp=False``
    is refused before anything is made."""
    with pytest.raises(ValueError, match="TCP"):
        Federation.bootstrap(tmp_path / "fed", use_tcp=False)
    assert not (tmp_path / "fed").exists()


def _is_socket(fd):
    try:
        return os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
    except OSError:
        return False


# -- registry service over the wire ---------------------------------------------


def _orderer_address(fed) -> str:
    """Where the registry answers: the orderer organization's listen address."""
    return fed.config.orderer_org().listen_address


def test_config_with_registry_address_serves_the_registry_at_the_orderer(tmp_path):
    """A config saved with ``registry-address`` still starts, with one
    listener per organization: MINT, RESOLVE and HISTORY are answered at the
    orderer organization's address, nothing listens at the old one, and
    another node answers a registry kind as an unknown message kind."""
    federation = Federation.bootstrap(tmp_path / "fed")
    federation.stop()
    config = json.loads(federation.config_path.read_text())
    config["registry-address"] = f"127.0.0.1:{free_port()}"
    federation.config_path.write_text(json.dumps(config))
    federation = Federation.start(federation.config_path)
    try:
        assert len(federation.servers) == len(config["organizations"])
        alice = register_default_users(federation)["alice"]
        client = LedgerClient(
            alice["identity"], alice["key"], {}, TcpTransport(_orderer_address(federation)),
            federation.config.orgs_map(), federation.config.endorsement_policy,
        )
        pid = client.mint()["pid"]
        assert publish_raw(alice["ledger"], "21.P/subject", prov=(pid, "cas://1", "c1")).ok
        assert client.resolve(pid)["checksum"] == "c1"
        assert [record["pid"] for record in client.version_history(pid)] == [pid]
        with pytest.raises(TransportError):
            TcpTransport(config["registry-address"], timeout=0.5)("RESOLVE", {"pid": pid})
        others = [org for org in federation.config.organizations
                  if org.listen_address != _orderer_address(federation)]
        for org in others:
            for kind in ("MINT", "RESOLVE", "HISTORY"):
                with pytest.raises(FedprovError, match=f"unknown message kind: '{kind}'"):
                    TcpTransport(org.listen_address)(kind, {"pid": pid})
    finally:
        federation.stop()


def test_registry_mint_resolve_link_history_over_tcp(fed, users):
    alice = users["alice"]
    client = LedgerClient(
        alice["identity"], alice["key"], {}, TcpTransport(_orderer_address(fed)),
        fed.config.orgs_map(), fed.config.endorsement_policy,
    )
    v1 = client.mint()
    with pytest.raises(UnknownPIDError):
        client.resolve(v1["pid"])  # reserved, not committed
    assert publish_raw(alice["ledger"], "21.P/subject", prov=(v1["pid"], "cas://1", "c1")).ok
    v2 = client.mint()
    assert client.resolve(v1["pid"])["successor"] is None
    with pytest.raises(UnknownPIDError):
        client.resolve(v2["pid"])
    assert alice["ledger"].hlf_update_prov(v1["pid"], "cas://2", "c2", version=2,
                                           new_pid=v2["pid"]).ok
    chain = client.version_history(v2["pid"])
    assert [(r["pid"], r["version_number"], r["checksum"]) for r in chain] == [
        (v1["pid"], 1, "c1"), (v2["pid"], 2, "c2")
    ]
    assert client.resolve(v1["pid"])["successor"] == v2["pid"]
    assert client.resolve(v2["pid"])["predecessor"] == v1["pid"]


def test_registry_rejects_bad_signature_over_tcp(fed, users):
    alice = users["alice"]
    wrong_key = users["bob"]["key"]
    client = LedgerClient(
        alice["identity"], wrong_key, {}, TcpTransport(_orderer_address(fed)),
        fed.config.orgs_map(), fed.config.endorsement_policy,
    )
    with pytest.raises(UnauthorizedError):
        client.mint()


def test_registry_resolve_unauthenticated(fed, users):
    signed = LedgerClient(
        users["alice"]["identity"], users["alice"]["key"], {},
        TcpTransport(_orderer_address(fed)),
        fed.config.orgs_map(), fed.config.endorsement_policy,
    )
    record = signed.mint()
    assert publish_raw(users["alice"]["ledger"], record["pid"], "cas://1", "c1").ok
    anonymous = LedgerClient(
        None, None, {}, TcpTransport(_orderer_address(fed)),
        fed.config.orgs_map(), fed.config.endorsement_policy,
    )
    assert anonymous.resolve(record["pid"])["checksum"] == "c1"
    with pytest.raises(UnauthorizedError):
        anonymous.mint()


def test_node_query_over_tcp(fed, users):
    alice = users["alice"]["ledger"]
    assert publish_raw(alice, "21.P/x", "cas://x", "cx").ok
    org = fed.config.organizations[0]
    transport = TcpTransport(org.listen_address)
    value = transport("QUERY", {"op": "read", "pid": "21.P/x"})["value"]
    assert value["checksum"] == "cx"
    report = transport("QUERY", {"op": "verify_chain"})["report"]
    assert report["ok"]


def test_propose_answered_with_endorse_kind(fed, users):
    import uuid

    from fedprov import clock, crypto
    from fedprov.canonical import canonical_bytes

    identity = users["alice"]["identity"]
    body = {
        "kind": "publish",
        "pid": "21.P/k",
        "args": {"uri": "cas://k", "checksum": "ck", "owners": ["alice"],
                 "provenance": {"pid": "21.P/kp", "uri": "cas://kp", "checksum": "ckp"}},
        "creator": {
            "user_id": "alice",
            "org": "OrgA",
            "public_key": identity.public_key,
            "certificate": identity.certificate,
        },
        "timestamp": clock.now_iso(),
        "nonce": uuid.uuid4().hex,
    }
    signature = crypto.sign(users["alice"]["key"], canonical_bytes(body))
    org = fed.config.organizations[0]
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
def test_malformed_identity_claim_refused_over_tcp(fed, kind, payload):
    """A malformed claim is an authorization refusal, never an internal error."""
    before = fed.system_digest()
    with pytest.raises(UnauthorizedError):
        TcpTransport(_orderer_address(fed))(kind, payload)
    assert fed.system_digest() == before


def _signed(user, request):
    from fedprov import crypto
    from fedprov.canonical import canonical_bytes

    return {
        "caller": user["identity"].to_creator(),
        "request": request,
        "signature": crypto.sign(user["key"], canonical_bytes(request)),
    }


# A grant in form only; its signature is never checked.
_GRANT_SHAPE = {
    "subject": "21.P/000001", "grantee": "alice", "capability": "update-provenance",
    "grantor": "alice", "grantor-org": "OrgA", "grantor-public-key": "k",
    "grantor-certificate": "c", "signature": "s",
}


@pytest.mark.parametrize(
    "kind, body",
    [("MINT", []), ("MINT", {"object_kind": 7}),
     ("MINT", {"object_kind": "provenance-record", "predecessor": ["21.P/1"]}),
     ("MINT", {"object_kind": "provenance-record", "predecessor": "21.P/1",
               "permission": {"subject": "x"}}),
     ("MINT", {"object_kind": "provenance-record", "permission": _GRANT_SHAPE}),
     ("RESOLVE", {}), ("HISTORY", {}), ("RESOLVE", {"pid": []}), ("HISTORY", {"pid": 7}),
     ("RESOLVE", ["21.P/000001"])],
    ids=["mint-list", "mint-non-string-kind", "link-non-string-predecessor",
         "link-malformed-grant", "mint-grant-without-predecessor",
         "resolve-no-pid", "history-no-pid", "resolve-list-pid", "history-int-pid",
         "resolve-list-payload"],
)
def test_malformed_registry_request_named_over_tcp(fed, users, kind, body):
    """A malformed request is refused by name, not as an internal error; a
    MINT's *body* is its signed request, which must be the empty object."""
    payload = _signed(users["alice"], body) if kind == "MINT" else body
    before = fed.system_digest()
    with pytest.raises(FedprovError) as refused:
        TcpTransport(_orderer_address(fed))(kind, payload)
    assert str(refused.value).startswith("malformed request:")
    assert fed.system_digest() == before


@pytest.mark.parametrize(
    "kind, payload",
    [("QUERY", {"op": "read"}), ("QUERY", {"op": "read", "pid": []}),
     ("QUERY", {"op": "history"}), ("QUERY", ["read"]),
     ("QUERY", {"op": "blocks", "from": -1, "org": "OrgB"}),
     ("QUERY", {"op": "blocks", "from": "1", "org": "OrgB"}),
     ("QUERY", {"op": "blocks", "from": 1, "org": ["OrgB"]}),
     ("QUERY", {"op": "state", "unless_tip": 7}), ("QUERY", {"op": "state", "unless_tip": None}),
     ("PROPOSE", [{"body": {}}])],
    ids=["read-no-pid", "read-list-pid", "history-no-pid", "query-list-payload",
         "blocks-negative-from", "blocks-string-from", "blocks-list-org",
         "state-int-unless-tip", "state-null-unless-tip", "propose-list-payload"],
)
def test_malformed_node_request_named_over_tcp(fed, kind, payload):
    before = fed.system_digest()
    with pytest.raises(FedprovError) as refused:
        TcpTransport(fed.config.organizations[0].listen_address)(kind, payload)
    assert str(refused.value).startswith("malformed request:")
    assert fed.system_digest() == before


def test_propose_with_list_args_is_a_bad_request_over_tcp(fed, users):
    receipt = users["alice"]["ledger"].submit("publish", "21.P/k", [])
    assert (receipt.status, receipt.message) == (STATUS_REJECTED, MSG_BAD_REQUEST)
