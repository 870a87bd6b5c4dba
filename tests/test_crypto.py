"""``crypto.verify`` and its memo of successful verifications.

The memo may answer only an identical repeat of a triple the library has
already accepted: every other input, forged variants of a remembered
triple included, must get the library's own verdict.
"""

from __future__ import annotations

import copy
import hashlib
import sys
import threading
import time
from collections import OrderedDict

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import given, settings, strategies as st

from conftest import publish_raw, simple_doc
from fedprov import crypto
from fedprov.errors import LedgerRejectedError
from fedprov.ledger.blocks import make_block


def _direct(public_hex, signature_hex, message) -> bool:
    """The library's verdict, with no memo in between."""
    try:
        key = Ed25519PublicKey.from_public_bytes(bytes.fromhex(public_hex))
        key.verify(bytes.fromhex(signature_hex), message)
        return True
    except (InvalidSignature, ValueError):
        return False


def _keypair(seed: bytes) -> tuple[str, str]:
    private = Ed25519PrivateKey.from_private_bytes(seed)
    return crypto._private_hex(private), crypto._public_hex(private.public_key())


def _flip_bit(hex_string: str, bit: int) -> str:
    data = bytearray(bytes.fromhex(hex_string))
    data[bit // 8 % len(data)] ^= 1 << bit % 8
    return data.hex()


def _flip_message_bit(message: bytes, bit: int) -> bytes:
    return bytes.fromhex(_flip_bit(message.hex(), bit)) if message else b"\x01"


def _triple(public_hex: str, signature_hex: str, message: bytes):
    digest = hashlib.sha256(message).digest()
    return bytes.fromhex(public_hex), bytes.fromhex(signature_hex), digest


@pytest.fixture()
def real_checks(monkeypatch):
    """The (key, signature, message) of every check that reaches the library."""
    checks = []
    library = crypto._ed25519_verify

    def counted(public_key, signature, message):
        checks.append((public_key, signature, message))
        return library(public_key, signature, message)

    monkeypatch.setattr(crypto, "_ed25519_verify", counted)
    return checks


_SEEDS = st.binary(min_size=32, max_size=32)
_MESSAGES = st.binary(max_size=64)


def _variants(public_hex: str, signature_hex: str, message: bytes, bit: int):
    """Single-bit flips of key, signature and message, and the honest triple
    in hex spellings that ``bytes.fromhex`` reads alike."""
    yield _flip_bit(public_hex, bit), signature_hex, message
    yield public_hex, _flip_bit(signature_hex, bit), message
    yield public_hex, signature_hex, _flip_message_bit(message, bit)
    yield public_hex.upper(), signature_hex, message
    yield public_hex, signature_hex.swapcase(), message
    yield f" {public_hex}\n", signature_hex, message
    yield public_hex, f"{signature_hex} ", message


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, message=_MESSAGES, bit=st.integers(0, 511))
def test_verify_equals_the_library_before_and_after_a_success_is_stored(seed, message, bit):
    private_hex, public_hex = _keypair(seed)
    signature_hex = crypto.sign(private_hex, message)
    honest = (public_hex, signature_hex, message)
    with crypto._verified_lock:
        crypto._verified.pop(_triple(*honest), None)
    variants = list(_variants(public_hex, signature_hex, message, bit))
    for variant in variants:
        assert crypto.verify(*variant) is _direct(*variant)
    assert crypto.verify(*honest) is True
    assert _triple(*honest) in crypto._verified
    for variant in variants:
        assert crypto.verify(*variant) is _direct(*variant)


def test_forged_variants_of_a_stored_triple_are_refused_and_not_stored(real_checks):
    private_hex, public_hex = crypto.generate_keypair()
    _, other_public_hex = crypto.generate_keypair()
    signature_hex = crypto.sign(private_hex, b"message")
    assert crypto.verify(public_hex, signature_hex, b"message")
    assert crypto.verify(public_hex, signature_hex, b"message")
    assert len(real_checks) == 1, "an identical repeat reached the library"

    forged = [
        (public_hex, _flip_bit(signature_hex, 0), b"message"),
        (public_hex, _flip_bit(signature_hex, 300), b"message"),
        (public_hex, signature_hex, b"other message"),
        (other_public_hex, signature_hex, b"message"),
    ]
    for variant in forged:
        for _ in range(2):
            assert crypto.verify(*variant) is False
        assert _triple(*variant) not in crypto._verified
    # A failure is never remembered: each repeat was checked in full.
    assert len(real_checks) == 1 + 2 * len(forged)


def test_memo_is_bounded_and_an_evicted_triple_still_verifies(real_checks):
    private_hex, public_hex = crypto.generate_keypair()
    signed = [
        (public_hex, crypto.sign(private_hex, b"m%d" % i), b"m%d" % i)
        for i in range(crypto.VERIFIED_CACHE_SIZE + 8)
    ]
    for triple in signed:
        assert crypto.verify(*triple)
        assert len(crypto._verified) <= crypto.VERIFIED_CACHE_SIZE
    assert len(crypto._verified) == crypto.VERIFIED_CACHE_SIZE
    first = signed[0]
    assert _triple(*first) not in crypto._verified
    before = len(real_checks)
    assert crypto.verify(*first)
    assert len(real_checks) == before + 1
    assert crypto.verify(*signed[-1])
    assert len(real_checks) == before + 1


@pytest.mark.parametrize("bad", ["zz", "abc", "", "00" * 31, "00" * 33])
def test_malformed_hex_returns_false_and_is_not_stored(bad, monkeypatch):
    """Odd, non-hex, empty and wrong-length strings; non-string inputs are
    ``tests/test_identity.py``'s."""
    monkeypatch.setattr(crypto, "_verified", OrderedDict())
    private_hex, public_hex = crypto.generate_keypair()
    signature_hex = crypto.sign(private_hex, b"message")
    assert crypto.verify(public_hex, bad, b"message") is False
    assert crypto.verify(bad, signature_hex, b"message") is False
    assert crypto.verify(bad, bad, b"message") is False
    assert not crypto._verified


def test_concurrent_verifies_keep_the_bound_and_every_verdict(monkeypatch):
    """More threads than cores, with frequent switches and a memo small
    enough to evict all the time: every verdict is the library's and the
    memo never outgrows its bound."""
    monkeypatch.setattr(crypto, "VERIFIED_CACHE_SIZE", 8)
    monkeypatch.setattr(crypto, "_verified", OrderedDict())
    keys = [crypto.generate_keypair() for _ in range(4)]
    cases = []
    for i in range(24):
        private_hex, public_hex = keys[i % len(keys)]
        message = b"m%d" % i
        signature_hex = crypto.sign(private_hex, message)
        cases.append(((public_hex, signature_hex, message), True))
        cases.append(((public_hex, _flip_bit(signature_hex, i), message), False))
    wrong, sizes = [], []

    def worker(offset: int) -> None:
        for _ in range(3):
            for case, expected in cases[offset:] + cases[:offset]:
                if crypto.verify(*case) is not expected:
                    wrong.append(case)
            sizes.append(len(crypto._verified))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n * 5,)) for n in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert sizes and max(sizes) <= 8
    assert len(crypto._verified) <= 8


def _synced(fed) -> None:
    """Wait until every replica has committed the orderer's tip."""
    tip = fed.nodes[fed.config.orderer_org().name].height()
    deadline = time.monotonic() + 10
    while any(node.height() < tip for node in fed.nodes.values()):
        assert time.monotonic() < deadline, "replicas did not catch up"
        time.sleep(0.01)


def test_a_warm_publish_makes_three_real_checks_of_sixteen(fed, users, monkeypatch, real_checks):
    """Every check still calls ``crypto.verify``: two MINT authentications,
    two at PROPOSE, three at ORDER and three in each of three commits. Only
    the creator's signature and the two endorsements reach the library."""
    alice = users["alice"]
    updater = fed.client(alice["identity"], alice["key"]).updater()
    updater.publish(b"a,b\n1,2\n", simple_doc(), alice["identity"])
    _synced(fed)

    calls = []
    verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    real_checks.clear()
    body = updater.publish(b"a,b\n3,4\n", simple_doc(), alice["identity"])
    _synced(fed)

    assert users["alice"]["ledger"].hlf_read(body["artifact_pid"]) is not None
    assert len(calls) == 16
    assert len(real_checks) == 3
    assert len(set(real_checks)) == 3


def test_a_flipped_endorsement_bit_is_refused_after_the_honest_commit(fed, users, real_checks):
    """The honest transaction's triples are remembered once it commits; the
    same transaction with one endorsement-signature bit flipped is still
    checked in full and refused at commit."""
    alice = users["alice"]["ledger"]
    receipt = publish_raw(alice, "21.P/forged", "cas://f", "cf")
    assert receipt.status == "VALID"
    _synced(fed)
    node = fed.nodes["OrgB"]
    tx = copy.deepcopy(next(
        tx for tx in node.block(receipt.height).transactions if tx["tx_id"] == receipt.tx_id))
    endorsement = tx["endorsements"][0]
    honest = endorsement["signature"]
    endorsement["signature"] = _flip_bit(honest, 0)
    remembered = (bytes.fromhex(endorsement["node_public_key"]), bytes.fromhex(honest))
    assert remembered in {triple[:2] for triple in crypto._verified}
    tx["validation"] = None
    block = make_block(node.height() + 1, node.tip_hash(), [tx]).to_dict()

    real_checks.clear()
    with pytest.raises(LedgerRejectedError, match="endorsement signature invalid"):
        node.commit(block)
    assert (bytes.fromhex(endorsement["node_public_key"]),
            bytes.fromhex(endorsement["signature"])) in {check[:2] for check in real_checks}
