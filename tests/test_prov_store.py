"""Content-addressed storage and update classification."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import act, doc, ent, rel, simple_doc
from fedprov.canonical import sha256_hex
from fedprov.errors import ChecksumMismatchError, DocumentNotFoundError, InvalidDocumentError
from fedprov.prov import ProvDocument
from fedprov.prov_store import (
    DECOMPOSITION,
    ENRICHMENT,
    GENERAL_REVISION,
    ILLEGAL,
    ProvStore,
    classify_update,
)


@pytest.fixture()
def store(tmp_path):
    return ProvStore(tmp_path / "store")


def test_store_fetch_round_trip(store):
    original = simple_doc()
    uri, checksum, created = store.store_document(original)
    assert created
    fetched = store.fetch_document(uri, checksum)
    assert fetched.checksum() == original.checksum()


def test_store_is_idempotent(store):
    uri1, checksum1, created1 = store.store_document(simple_doc())
    uri2, checksum2, created2 = store.store_document(simple_doc())
    assert (uri1, checksum1) == (uri2, checksum2)
    assert created1 and not created2


def test_empty_document_checksum_stable(store):
    empty = doc()
    uri, checksum, _ = store.store_document(empty)
    again = ProvDocument.from_dict(empty.to_dict())
    assert again.checksum() == checksum


def test_invalid_document_rejected(store):
    bad = doc(entities=[ent("e1")], relations=[rel("used", "ghost", "e1")])
    with pytest.raises(InvalidDocumentError) as err:
        store.store_document(bad)
    assert err.value.violations


def test_fetch_wrong_checksum(store):
    uri, checksum, _ = store.store_document(simple_doc())
    with pytest.raises(ChecksumMismatchError):
        store.fetch_document(uri, "0" * 64)


def test_fetch_detects_corrupted_byte(store):
    uri, checksum, _ = store.store_document(simple_doc())
    path = store.blob_path(checksum)
    payload = bytearray(path.read_bytes())
    payload[10] ^= 0x01
    path.write_bytes(bytes(payload))
    with pytest.raises(ChecksumMismatchError):
        store.fetch_document(uri, checksum)


def test_torn_blob_is_rewritten_when_stored_again(store):
    """A blob cut short, as by a crash mid-write, is no blob: storing its
    bytes again rewrites it, through a file that is never listed."""
    payload = bytes(range(250)) * 4
    checksum = sha256_hex(payload)
    path = store.blob_path(checksum)
    path.parent.mkdir(parents=True)
    path.write_bytes(payload[:500])
    assert store.store_bytes(payload) == (f"cas://{checksum}", checksum, True)
    assert store.fetch_bytes(f"cas://{checksum}", checksum) == payload
    assert store.list_checksums() == [checksum]
    assert store.store_bytes(payload)[2] is False


def test_fetch_unknown_uri(store):
    with pytest.raises(DocumentNotFoundError):
        store.fetch_bytes("cas://" + "ab" * 32, "ab" * 32)


def _outside_file(tmp_path):
    """A file outside the store, with its real checksum."""
    outside = tmp_path / "outside" / "secret.txt"
    outside.parent.mkdir()
    outside.write_bytes(b"not a stored blob")
    return outside, sha256_hex(outside.read_bytes())


def test_fetch_refuses_uri_naming_a_file_outside_the_store(store, tmp_path):
    outside, checksum = _outside_file(tmp_path)
    with pytest.raises(DocumentNotFoundError):
        store.fetch_bytes(f"cas://..//{outside}", checksum)


@pytest.mark.parametrize("checksum", ["ab" * 31, "AB" * 32, "ab" * 32 + "\n", "zz" * 32])
def test_blob_path_accepts_only_64_lowercase_hex_digits(store, checksum):
    with pytest.raises(DocumentNotFoundError):
        store.blob_path(checksum)


def test_store_layout_sharded(store):
    uri, checksum, _ = store.store_document(simple_doc())
    path = store.blob_path(checksum)
    assert path.parent.name == checksum[:2]
    assert path.name == checksum[2:]
    assert store.list_checksums() == [checksum]


# -- classification -------------------------------------------------------------


def test_identity_diff_is_enrichment():
    assert classify_update(simple_doc(), simple_doc()) == ENRICHMENT


def test_fill_artifact_pid_is_enrichment():
    old = simple_doc()
    new = old.with_entity(
        dataclasses.replace(old.entity_map()["e-out"], artifact_pid="21.P/000007")
    )
    assert classify_update(old, new) == ENRICHMENT


def test_attribute_addition_is_enrichment():
    old = simple_doc()
    updated = dataclasses.replace(
        old.entity_map()["e-in"], attributes={"units": "mm"}
    )
    assert classify_update(old, old.with_entity(updated)) == ENRICHMENT


def test_enrichment_antisymmetry():
    old = simple_doc()
    new = old.with_entity(
        dataclasses.replace(old.entity_map()["e-out"], artifact_pid="21.P/000007")
    )
    assert classify_update(old, new) == ENRICHMENT
    assert classify_update(new, old) == ILLEGAL


def test_new_entity_is_general_revision():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.entities.append(ent("e-extra", "late addition"))
    assert classify_update(old, new) == GENERAL_REVISION


def test_started_fill_is_general_revision():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.activities[0] = dataclasses.replace(
        new.activities[0], started="2026-01-01T00:00:00Z"
    )
    assert classify_update(old, new) == GENERAL_REVISION


def test_decomposition_with_reattachment():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.activities.extend(
        [
            act("a-prep", parent_activity="a-run"),
            act("a-main", parent_activity="a-run"),
            act("a-post", parent_activity="a-run"),
        ]
    )
    new.entities.append(ent("e-mid", "intermediate"))
    new.relations = [
        r for r in new.relations
        if r.key() not in {("used", "a-run", "e-in"), ("was-generated-by", "e-out", "a-run")}
    ] + [
        rel("used", "a-prep", "e-in"),
        rel("was-generated-by", "e-mid", "a-prep"),
        rel("used", "a-main", "e-mid"),
        rel("was-generated-by", "e-out", "a-post"),
    ]
    assert classify_update(old, new) == DECOMPOSITION


def test_pure_child_addition_is_decomposition():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.activities.append(act("a-sub", parent_activity="a-run"))
    assert classify_update(old, new) == DECOMPOSITION


def test_unparented_activity_addition_is_general_revision():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.activities.append(act("a-top", "independent step"))
    assert classify_update(old, new) == GENERAL_REVISION


def test_removed_relation_is_illegal():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.relations = [r for r in new.relations if r.kind != "used"]
    assert classify_update(old, new) == ILLEGAL


def test_removed_entity_is_illegal():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.entities = [e for e in new.entities if e.local_id != "e-in"]
    new.relations = [r for r in new.relations if r.source != "e-in" and r.target != "e-in"]
    assert classify_update(old, new) == ILLEGAL


def test_changed_attribute_is_illegal():
    old = simple_doc()
    old.entities[0] = dataclasses.replace(old.entities[0], attributes={"v": 1})
    new = ProvDocument.from_dict(old.to_dict())
    new.entities[0] = dataclasses.replace(new.entities[0], attributes={"v": 2})
    assert classify_update(old, new) == ILLEGAL


def test_removed_attribute_is_illegal():
    old = simple_doc()
    old.entities[0] = dataclasses.replace(old.entities[0], attributes={"v": 1})
    new = ProvDocument.from_dict(old.to_dict())
    new.entities[0] = dataclasses.replace(new.entities[0], attributes={})
    assert classify_update(old, new) == ILLEGAL


def test_label_change_is_illegal():
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.entities[0] = dataclasses.replace(new.entities[0], label="renamed")
    assert classify_update(old, new) == ILLEGAL


def test_changed_artifact_pid_is_illegal():
    old = simple_doc().with_entity(
        dataclasses.replace(simple_doc().entity_map()["e-out"], artifact_pid="21.P/1")
    )
    new = old.with_entity(
        dataclasses.replace(old.entity_map()["e-out"], artifact_pid="21.P/2")
    )
    assert classify_update(old, new) == ILLEGAL


def test_activity_reorder_is_illegal():
    old = doc(activities=[act("a1"), act("a2")])
    new = doc(activities=[act("a2"), act("a1")])
    assert classify_update(old, new) == ILLEGAL


def test_reattachment_to_foreign_activity_is_illegal():
    """Relations may only move to descendants of their original activity."""
    old = simple_doc()
    new = ProvDocument.from_dict(old.to_dict())
    new.activities.append(act("a-other"))  # not a child of a-run
    new.relations = [r for r in new.relations if r.key() != ("used", "a-run", "e-in")]
    new.relations.append(rel("used", "a-other", "e-in"))
    assert classify_update(old, new) == ILLEGAL
