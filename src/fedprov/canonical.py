"""Canonical JSON serialization and SHA-256 digests.

Every hash in the system (transaction ids, block hashes, document checksums,
state digests) is computed over the canonical form produced here, so that
all nodes and all runs agree byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

ZERO_DIGEST = "0" * 64


def canonical_bytes(value: Any) -> bytes:
    """UTF-8 bytes of the canonical JSON form: sorted keys, compact separators."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of *value*."""
    return sha256_hex(canonical_bytes(value))
