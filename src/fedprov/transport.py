"""Length-prefixed JSON over TCP: the one way a client or a replica's pull
loop reaches a node, in a deployment and in the harness alike.

Wire format: a 4-byte big-endian length followed by a UTF-8 JSON body.
Requests are ``{"kind": <MESSAGE KIND>, "payload": {...}}``; responses are
``{"ok": true, ...payload}`` or ``{"ok": false, "error": {"type", "message"}}``.
Application errors are re-raised client-side as the matching exception type;
a reply that is not an object, or an error reply whose ``error`` is not an
object with a string ``type`` and ``message``, is a ``TransportError``.
A request that is not UTF-8 JSON, or not an object with a string ``kind``,
is answered as a malformed request, and its connection stays open.

Connections persist: the requests of one process share a pool of idle
connections per address (``ConnectionPool``), and a server answers any number
of requests on one connection until the client or ``MessageServer.stop``
closes it.
"""

from __future__ import annotations

import atexit
import json
import logging
import select
import selectors
import socket
import struct
import threading
from typing import Callable

from . import errors as errors_mod
from .errors import FedprovError, TransportError

_LENGTH = struct.Struct(">I")
MAX_MESSAGE_BYTES = 64 * 1024 * 1024
_FIRST_BUFFER = 1024 * 1024

_log = logging.getLogger(__name__)

Handler = Callable[[str, dict], dict]
Transport = Callable[[str, dict], dict]


def _frame(obj: dict) -> bytes:
    body = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def send_message(sock: socket.socket, obj: dict) -> None:
    sock.sendall(_frame(obj))


def recv_message(sock: socket.socket) -> dict | None:
    body = _recv_body(sock)
    return None if body is None else json.loads(body.decode("utf-8"))


def _recv_body(sock: socket.socket) -> bytearray | None:
    """One frame's body; None if the peer closed the connection before it."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise TransportError(f"message of {length} bytes exceeds limit")
    body = _recv_exact(sock, length)
    if body is None:
        raise TransportError("connection closed mid-message")
    return body


def _recv_exact(sock: socket.socket, count: int) -> bytearray | None:
    # The buffer starts at no more than _FIRST_BUFFER bytes and doubles as it
    # fills, so a peer that announces a huge message and sends nothing
    # costs nothing.
    buffer = bytearray(min(count, _FIRST_BUFFER))
    received = 0
    while received < count:
        if received == len(buffer):
            buffer.extend(bytes(min(received, count - received)))
        with memoryview(buffer) as view:
            n = sock.recv_into(view[received:])
        if n == 0:
            if received:
                raise TransportError("connection closed mid-message")
            return None
        received += n
    return buffer


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise TransportError(f"malformed address: {address!r}")
    return host, int(port)


def _stirred(socks: list[socket.socket]) -> list[socket.socket]:
    """The sockets among *socks* with something to read now: EOF, a reset or
    stray bytes. An idle connection should have none of these."""
    poller = select.poll()
    for sock in socks:
        poller.register(sock, select.POLLIN)
    ready = {fd for fd, _ in poller.poll(0)}
    return [sock for sock in socks if sock.fileno() in ready]


class ConnectionPool:
    """Idle connections per (host, port), shared by the threads of a process.

    A connection is checked out for one whole request and reply, so it is
    never used by two requests at once. An idle connection on which anything
    has arrived (its server closed or reset it, or sent bytes nobody asked
    for) is closed, never reused. Connections to servers that have gone are
    swept whenever a new connection is opened, so they do not pile up.
    """

    # Enough for the concurrent clients of one process; the surplus is closed
    # rather than kept, since each idle connection holds a server thread.
    MAX_IDLE_PER_ADDRESS = 8

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[socket.socket]] = {}

    def checkout(self, key: tuple[str, int]) -> socket.socket | None:
        """A live idle connection to *key*, or ``None``."""
        with self._lock:
            idle = self._idle.get(key, [])
            while idle:
                sock = idle.pop()
                if not _stirred([sock]):
                    return sock
                sock.close()
        return None

    def connect(self, key: tuple[str, int], timeout: float) -> socket.socket:
        self.sweep()
        sock = socket.create_connection(key, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def checkin(self, key: tuple[str, int], sock: socket.socket) -> None:
        """Return a connection whose last reply was read whole."""
        with self._lock:
            idle = self._idle.setdefault(key, [])
            if len(idle) < self.MAX_IDLE_PER_ADDRESS:
                idle.append(sock)
                return
        sock.close()

    def sweep(self) -> None:
        """Close every idle connection that its server has closed or reset."""
        with self._lock:
            dead = set(_stirred([sock for socks in self._idle.values() for sock in socks]))
            for key, socks in list(self._idle.items()):
                socks[:] = [sock for sock in socks if sock not in dead]
                if not socks:
                    del self._idle[key]
            for sock in dead:
                sock.close()

    def close(self) -> None:
        with self._lock:
            for socks in self._idle.values():
                for sock in socks:
                    sock.close()
            self._idle.clear()


_POOL = ConnectionPool()
atexit.register(_POOL.close)


def _send(key: tuple[str, int], frame: bytes, timeout: float) -> socket.socket:
    """A connection to *key* on which *frame* has been sent whole."""
    sock = _POOL.checkout(key)
    if sock is not None:
        try:
            _send_on(sock, frame, timeout)
            return sock
        except OSError:
            # The server cannot have read the whole request, so it is sent
            # once more, on a new connection.
            pass
    sock = _POOL.connect(key, timeout)
    _send_on(sock, frame, timeout)
    return sock


def _send_on(sock: socket.socket, frame: bytes, timeout: float) -> None:
    """Send *frame* whole on *sock*, or close *sock* and raise."""
    try:
        sock.settimeout(timeout)
        sock.sendall(frame)
    except BaseException:
        sock.close()
        raise


def request(address: str, kind: str, payload: dict, timeout: float = 10.0) -> dict:
    """One request and its reply; raises the peer's error as an exception.

    The request goes over a pooled connection when there is one. It is sent
    a second time only when sending it on a reused connection failed; once
    it has left whole, any failure is a ``TransportError``, since the server
    may have acted on it.
    """
    key = parse_address(address)
    try:
        sock = _send(key, _frame({"kind": kind, "payload": payload}), timeout)
    except (OSError, ValueError) as exc:
        raise TransportError(f"cannot reach {address}: {exc}") from exc
    response = None
    try:
        response = recv_message(sock)
    except (OSError, ValueError) as exc:
        raise TransportError(f"cannot reach {address}: {exc}") from exc
    finally:
        fault = _reply_fault(response)
        if fault is None:
            _POOL.checkin(key, sock)
        else:
            sock.close()
    if response is None:
        raise TransportError(f"{address} closed the connection")
    if fault is not None:
        raise TransportError(f"{address} sent {fault}")
    if response.get("ok"):
        return response
    raise _reconstruct_error(response["error"])


def _reply_fault(response) -> str | None:
    """What makes *response* no reply; ``None`` for a success or a documented error reply."""
    if not isinstance(response, dict):
        return "a reply that is not an object"
    error = response.get("error")
    if response.get("ok") or (isinstance(error, dict) and all(
            isinstance(error.get(field), str) for field in ("type", "message"))):
        return None
    return "an error reply without a string type and message"


def _reconstruct_error(error: dict) -> FedprovError:
    exc_type = getattr(errors_mod, error["type"], FedprovError)
    if not (isinstance(exc_type, type) and issubclass(exc_type, FedprovError)):
        exc_type = FedprovError
    return exc_type(error["message"])


def error_response(exc: Exception) -> dict:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


class TcpTransport:
    """Callable transport bound to one remote address."""

    def __init__(self, address: str, timeout: float = 10.0):
        self.address = address
        self.timeout = timeout

    def __call__(self, kind: str, payload: dict) -> dict:
        return request(self.address, kind, payload, timeout=self.timeout)


class MessageServer:
    """Threaded TCP server dispatching framed requests to a handler.

    One thread accepts connections, and each connection has its own thread,
    which answers requests on it until the client closes it or the server
    stops. The accept loop sleeps until a connection arrives or ``stop``
    wakes it, so it never polls and stops at once.
    """

    def __init__(self, address: str, handler: Handler):
        self.handler = handler
        host, port = parse_address(address)
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._stopping = False
        try:
            # A smaller backlog drops connection attempts from a burst of
            # clients, which then retry only after a second.
            self._listener = socket.create_server((host, port), backlog=128)
        except OSError as exc:
            raise TransportError(f"cannot bind {address}: {exc}") from exc
        self._wake_reader, self._wake_writer = socket.socketpair()
        self.address = f"{host}:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"server-{self.address}", daemon=True
        )

    def _accept_loop(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_reader, selectors.EVENT_READ)
            while not any(key.fileobj is self._wake_reader for key, _ in selector.select()):
                try:
                    conn, _ = self._listener.accept()
                except OSError:  # say, the client reset it before it was accepted
                    continue
                try:
                    threading.Thread(target=self._answer, args=(conn,), daemon=True).start()
                except Exception:  # say, no thread can be started: drop this one, keep serving
                    _log.exception("cannot answer a connection to %s", self.address)
                    conn.close()

    def _answer(self, conn: socket.socket) -> None:
        """Answer requests on *conn* until its client or ``stop`` ends it."""
        with conn:
            with self._lock:
                if self._stopping:
                    return
                self._connections[conn] = threading.current_thread()
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while True:
                    body = _recv_body(conn)  # None at EOF only, not for a JSON null
                    if body is None:
                        return
                    try:
                        message = json.loads(body.decode("utf-8"))
                    except ValueError:  # not UTF-8 JSON: a malformed request
                        message = None
                    response = self._dispatch(message)
                    send_message(conn, response)
                    # Waiting for the next request, hold nothing of this one.
                    del body, response
            except (TransportError, OSError, ValueError):
                return
            finally:
                with self._lock:
                    self._connections.pop(conn, None)

    def _dispatch(self, message) -> dict:
        kind = message.get("kind", "") if isinstance(message, dict) else None
        try:
            if not isinstance(kind, str):
                raise FedprovError("malformed request: not an object with a string 'kind'")
            return self.handler(kind, message.get("payload", {}))
        except FedprovError as exc:
            return error_response(exc)
        except Exception as exc:  # defensive: never kill the connection loop
            _log.exception("internal error answering %s", kind)
            return error_response(FedprovError(f"internal error: {exc}"))

    def start(self) -> "MessageServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then end every connection, idle pooled ones too.

        A request already being handled still gets its reply; nothing more is
        read. On return the connections are closed, so no client can reach
        this server through a pooled connection, even once another server
        binds the same port.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        self._wake_writer.send(b"\0")
        self._thread.join()
        for sock in (self._listener, self._wake_reader, self._wake_writer):
            sock.close()
        with self._lock:
            connections = dict(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in connections.values():
            thread.join(timeout=2)
