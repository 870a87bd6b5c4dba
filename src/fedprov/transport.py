"""Length-prefixed JSON over TCP.

Wire format: a 4-byte big-endian length followed by a UTF-8 JSON body.
Requests are ``{"kind": <MESSAGE KIND>, "payload": {...}}``; responses are
``{"ok": true, ...payload}`` or ``{"ok": false, "error": {"type", "message"}}``.
Application errors are re-raised client-side as the matching exception type.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from typing import Callable

from . import errors as errors_mod
from .errors import FedprovError, TransportError

_LENGTH = struct.Struct(">I")
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

Handler = Callable[[str, dict], dict]
Transport = Callable[[str, dict], dict]
# address -> transport to whatever serves that address: ``TcpTransport`` over
# sockets, or an in-process lookup (see ``harness.Federation``).
TransportFactory = Callable[[str], Transport]


def send_message(sock: socket.socket, obj: dict) -> None:
    body = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(body)) + body)


def recv_message(sock: socket.socket) -> dict | None:
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise TransportError(f"message of {length} bytes exceeds limit")
    body = _recv_exact(sock, length)
    if body is None:
        raise TransportError("connection closed mid-message")
    return json.loads(body.decode("utf-8"))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if chunks:
                raise TransportError("connection closed mid-message")
            return None
        chunks += chunk
    return chunks


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise TransportError(f"malformed address: {address!r}")
    return host, int(port)


def request(address: str, kind: str, payload: dict, timeout: float = 10.0) -> dict:
    """One-shot request/response; raises the peer's error as an exception."""
    host, port = parse_address(address)
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            send_message(sock, {"kind": kind, "payload": payload})
            response = recv_message(sock)
    except (OSError, ValueError) as exc:
        raise TransportError(f"cannot reach {address}: {exc}") from exc
    if response is None:
        raise TransportError(f"{address} closed the connection")
    if response.get("ok"):
        return response
    raise _reconstruct_error(response.get("error", {}))


def _reconstruct_error(error: dict) -> FedprovError:
    type_name = error.get("type", "FedprovError")
    message = error.get("message", "remote error")
    exc_type = getattr(errors_mod, type_name, FedprovError)
    if not (isinstance(exc_type, type) and issubclass(exc_type, FedprovError)):
        exc_type = FedprovError
    return exc_type(message)


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


class DirectTransport:
    """In-process transport used by tests and the local harness."""

    def __init__(self, handler: Handler):
        self.handler = handler

    def __call__(self, kind: str, payload: dict) -> dict:
        response = self.handler(kind, payload)
        if response.get("ok"):
            return response
        raise _reconstruct_error(response.get("error", {}))


class MessageServer:
    """Threaded TCP server dispatching framed requests to a handler."""

    def __init__(self, address: str, handler: Handler):
        self.handler = handler
        host, port = parse_address(address)
        outer = self

        class _RequestHandler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                try:
                    while True:
                        message = recv_message(self.request)
                        if message is None:
                            return
                        response = outer._dispatch(message)
                        send_message(self.request, response)
                except (TransportError, OSError, ValueError):
                    return

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        try:
            self._server = _Server((host, port), _RequestHandler)
        except OSError as exc:
            raise TransportError(f"cannot bind {address}: {exc}") from exc
        self.address = f"{host}:{self._server.server_address[1]}"
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name=f"server-{self.address}",
            daemon=True,
        )

    def _dispatch(self, message: dict) -> dict:
        kind = message.get("kind", "")
        payload = message.get("payload", {})
        try:
            return self.handler(kind, payload)
        except FedprovError as exc:
            return error_response(exc)
        except Exception as exc:  # defensive: never kill the connection loop
            return error_response(FedprovError(f"internal error: {exc}"))

    def start(self) -> "MessageServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
