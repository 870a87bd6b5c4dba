"""Ed25519 signing helpers.

Keys and signatures travel as lowercase hex strings so they embed directly
in canonical JSON structures.

``verify`` remembers, per process, up to ``VERIFIED_CACHE_SIZE`` of the
(key, signature, message) triples it verified successfully, so a node that
checks the same signature at endorsement, ordering, commit and audit pays
for one Ed25519 check. Every caller still calls ``verify`` for every check;
only an identical repeat of a success is answered from memory.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

# Distinct successful verifications remembered (see ``verify``).
VERIFIED_CACHE_SIZE = 1024

# (public key bytes, signature bytes, SHA-256 of the message), least
# recently used first.
_verified: OrderedDict[tuple[bytes, bytes, bytes], None] = OrderedDict()
_verified_lock = threading.Lock()


def generate_keypair() -> tuple[str, str]:
    """Return (private_hex, public_hex) for a fresh Ed25519 keypair."""
    private = Ed25519PrivateKey.generate()
    return _private_hex(private), _public_hex(private.public_key())


def sign(private_hex: str, message: bytes) -> str:
    key = Ed25519PrivateKey.from_private_bytes(bytes.fromhex(private_hex))
    return key.sign(message).hex()


def verify(public_hex: str, signature_hex: str, message: bytes) -> bool:
    """True iff *signature_hex* signs *message* under *public_hex*.

    Anything else is False, never an exception: key and signature come from
    untrusted JSON and may be null, numbers, lists or objects.

    A success is remembered under the decoded key and signature bytes and
    the SHA-256 of *message*, a tuple that no choice of strings can make two
    distinct checks share; the least recently used of more than
    ``VERIFIED_CACHE_SIZE`` is forgotten. A failure is never remembered, so
    any triple not seen to verify is checked in full.
    """
    if not isinstance(public_hex, str) or not isinstance(signature_hex, str):
        return False
    try:
        public_key, signature = bytes.fromhex(public_hex), bytes.fromhex(signature_hex)
        triple = (public_key, signature, hashlib.sha256(message).digest())
    except (TypeError, ValueError):
        return False
    with _verified_lock:
        if triple in _verified:
            _verified.move_to_end(triple)
            return True
    if not _ed25519_verify(public_key, signature, message):
        return False
    with _verified_lock:
        _verified[triple] = None
        if len(_verified) > VERIFIED_CACHE_SIZE:
            _verified.popitem(last=False)
    return True


def _ed25519_verify(public_key: bytes, signature: bytes, message: bytes) -> bool:
    """The library's Ed25519 check of raw bytes; False on any bad input."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def _private_hex(key: Ed25519PrivateKey) -> str:
    from cryptography.hazmat.primitives import serialization

    raw = key.private_bytes(
        encoding=serialization.Encoding.Raw,
        format=serialization.PrivateFormat.Raw,
        encryption_algorithm=serialization.NoEncryption(),
    )
    return raw.hex()


def _public_hex(key: Ed25519PublicKey) -> str:
    from cryptography.hazmat.primitives import serialization

    raw = key.public_bytes(
        encoding=serialization.Encoding.Raw,
        format=serialization.PublicFormat.Raw,
    )
    return raw.hex()
