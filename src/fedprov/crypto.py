"""Ed25519 signing helpers.

Keys and signatures travel as lowercase hex strings so they embed directly
in canonical JSON structures.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)


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
    """
    if not isinstance(public_hex, str) or not isinstance(signature_hex, str):
        return False
    try:
        key = Ed25519PublicKey.from_public_bytes(bytes.fromhex(public_hex))
        key.verify(bytes.fromhex(signature_hex), message)
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
