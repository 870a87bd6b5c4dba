"""Hash chain structure and tamper evidence on the persisted ledger."""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import order_in_one_block, publish_raw, register_default_users
from fedprov import crypto
from fedprov.canonical import ZERO_DIGEST, canonical_bytes
from fedprov.errors import LedgerRejectedError
from fedprov.federation import load_node_credentials
from fedprov.harness import Federation
from fedprov.ledger.blocks import (
    READ_WRITE_CONFLICT,
    VALID,
    Finding,
    compute_block_hash,
    compute_data_hash,
    endorsement_payload,
    genesis_block,
    make_block,
    tx_id_for,
    verify_chain_file,
)
from fedprov.ledger.chaincode import TX_KINDS, TX_PUBLISH, SimulationResult
from fedprov.ledger.client import publish_operation
from fedprov.ledger.node import OrgNode


def test_genesis_shape():
    genesis = genesis_block()
    assert genesis.height == 0
    assert genesis.prev_hash == ZERO_DIGEST
    assert genesis.block_hash == compute_block_hash(0, ZERO_DIGEST, compute_data_hash([]))


@pytest.fixture()
def committed(fed):
    users = register_default_users(fed)
    alice = users["alice"]["ledger"]
    for i in range(4):
        assert publish_raw(alice, f"21.P/{i}", f"cas://{i}", f"c{i}").ok
    assert alice.hlf_update_prov("21.P/none", "cas://x", "cx", 2, "21.P/x").status == "REJECTED"
    assert alice.hlf_invalidate("21.P/0").ok
    return fed, users


def test_untouched_ledger_all_clear(committed):
    """Every kind of transaction, VALID or not, committed through
    ``OrgNode.commit``, replays clean from genesis and ends at the node's own
    tip: a node's audit relies on that to skip a file holding only the lines
    it committed."""
    fed, users = committed
    alice, bob = users["alice"]["ledger"], users["bob"]["ledger"]
    assert alice.hlf_update_prov("21.P/1/prov", "cas://doc2", "c-doc2", 2, "21.P/1/v2").ok
    assert bob.flag_affected(["21.P/2"], "21.P/0").ok
    # Both endorsed against the same state, so the second meets the first's write.
    first, second = (
        alice.prepare(*publish_operation("21.P/race", "cas://r", "cr", ["alice"],
                                         "21.P/race/prov", "cas://doc", "c-doc"))
        for _ in range(2)
    )
    assert alice.order(first).ok
    assert alice.order(second).status == READ_WRITE_CONFLICT
    committed_txs = {
        (tx["body"]["kind"], tx["validation"])
        for block in fed.nodes["OrgA"].committed_since(0) for tx in block.transactions
    }
    expected = {(kind, VALID) for kind in TX_KINDS} | {(TX_PUBLISH, READ_WRITE_CONFLICT)}
    assert expected <= committed_txs
    for node in fed.nodes.values():
        report = verify_chain_file(
            node.store.path, fed.config.orgs_map(), fed.config.endorsement_policy
        )
        assert report.ok, report.findings
        assert report.first_divergent_height is None
        assert report.tip == (node.height(), node.tip_hash())


def test_ledgers_identical_across_nodes(committed):
    fed, _ = committed
    payloads = {
        org: node.store.path.read_bytes() for org, node in fed.nodes.items()
    }
    assert len(set(payloads.values())) == 1


def test_payload_byte_flip_flagged(committed):
    """Flip one byte inside a committed tx body at a known height."""
    fed, _ = committed
    node = fed.nodes["OrgA"]
    lines = node.store.path.read_bytes().split(b"\n")
    target_height = 3
    line = bytearray(lines[target_height])
    position = line.find(b"cas://")
    line[position + 6] ^= 0x01
    lines[target_height] = bytes(line)
    tampered = node.store.path.with_name("tampered.jsonl")
    tampered.write_bytes(b"\n".join(lines))
    report = verify_chain_file(
        tampered, fed.config.orgs_map(), fed.config.endorsement_policy
    )
    assert not report.ok
    assert report.first_divergent_height == target_height


def test_transaction_reorder_flagged(committed):
    """Reordering transactions inside a block breaks the data hash."""
    fed, users = committed
    import uuid

    from fedprov import clock, crypto
    from fedprov.canonical import canonical_bytes

    alice = users["alice"]["ledger"]

    def envelope(pid):
        body = {
            "kind": "publish",
            "pid": pid,
            "args": {"uri": "cas://z", "checksum": "cz", "owners": ["alice"],
                     "provenance": {"pid": f"{pid}/prov", "uri": "cas://d", "checksum": "cd"}},
            "creator": {
                "user_id": "alice",
                "org": "OrgA",
                "public_key": users["alice"]["identity"].public_key,
                "certificate": users["alice"]["identity"].certificate,
            },
            "timestamp": clock.now_iso(),
            "nonce": uuid.uuid4().hex,
        }
        return alice.endorse(body, crypto.sign(users["alice"]["key"], canonical_bytes(body)))

    receipts = order_in_one_block(fed, alice, [envelope("21.P/r1"), envelope("21.P/r2")])
    assert [r.status for r in receipts] == ["VALID", "VALID"]
    assert receipts[0].height == receipts[1].height

    node = fed.nodes["OrgA"]
    lines = node.store.path.read_bytes().split(b"\n")
    reordered_height = None
    out_lines = []
    for index, raw in enumerate(l for l in lines if l.strip()):
        record = json.loads(raw)
        if len(record["transactions"]) >= 2 and reordered_height is None:
            record["transactions"] = list(reversed(record["transactions"]))
            reordered_height = index
            raw = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        out_lines.append(raw)
    tampered = node.store.path.with_name("reordered.jsonl")
    tampered.write_bytes(b"\n".join(out_lines) + b"\n")
    report = verify_chain_file(
        tampered, fed.config.orgs_map(), fed.config.endorsement_policy
    )
    assert not report.ok
    assert any(
        "data_hash" in f.problem for f in report.findings if f.height == reordered_height
    )


def test_validation_flag_tamper_flagged(committed):
    """Flipping a stored validation flag is caught by deterministic replay."""
    fed, _ = committed
    node = fed.nodes["OrgA"]
    lines = node.store.path.read_bytes().split(b"\n")
    target = None
    out = []
    for index, raw in enumerate(l for l in lines if l.strip()):
        record = json.loads(raw)
        if record["transactions"] and target is None and record["height"] >= 1:
            record["transactions"][0]["validation"] = "INVALID:read-write-conflict"
            target = index
            raw = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        out.append(raw)
    tampered = node.store.path.with_name("flagged.jsonl")
    tampered.write_bytes(b"\n".join(out) + b"\n")
    report = verify_chain_file(
        tampered, fed.config.orgs_map(), fed.config.endorsement_policy
    )
    assert not report.ok
    assert report.first_divergent_height == target


def test_random_single_byte_mutations_always_flagged(committed):
    fed, _ = committed
    node = fed.nodes["OrgA"]
    payload = node.store.path.read_bytes()
    line_offsets = _line_offsets(payload)
    rng = random.Random(20260801)
    tampered = node.store.path.with_name("mutated.jsonl")
    for _ in range(40):
        position = rng.randrange(len(payload))
        mutated = bytearray(payload)
        mutated[position] ^= 1 << rng.randrange(8)
        if bytes(mutated) == payload:
            continue
        tampered.write_bytes(bytes(mutated))
        report = verify_chain_file(
            tampered, fed.config.orgs_map(), fed.config.endorsement_policy
        )
        mutated_height = _height_of(position, line_offsets)
        assert not report.ok, f"mutation at byte {position} not detected"
        assert report.first_divergent_height is not None
        assert report.first_divergent_height <= mutated_height


def _line_offsets(payload: bytes) -> list[int]:
    offsets = []
    start = 0
    while start < len(payload):
        end = payload.find(b"\n", start)
        if end == -1:
            end = len(payload)
        offsets.append(start)
        start = end + 1
    return offsets


def _height_of(position: int, offsets: list[int]) -> int:
    height = 0
    for index, start in enumerate(offsets):
        if position >= start:
            height = index
    return height


def test_missing_file_reported(tmp_path, fed):
    report = verify_chain_file(
        tmp_path / "absent.jsonl", fed.config.orgs_map(), fed.config.endorsement_policy
    )
    assert not report.ok


# -- reused signature checks cannot hide a mutation ---------------------------
#
# Chain verification checks each distinct (key, signature, message) once and
# reuses the result. The forgeries below carry material that verified earlier
# in the same file, so a cache keyed on less than the exact inputs would pass
# them.


def _committed_records(fed):
    node = fed.nodes["OrgA"]
    lines = node.store.path.read_bytes().split(b"\n")
    return node.store.path, [json.loads(line) for line in lines if line.strip()]


def _write_records(path, records):
    path.write_bytes(b"".join(canonical_bytes(record) + b"\n" for record in records))


def _endorsement_message(tx):
    result_digest = SimulationResult.from_dict(tx["result"]).result_digest()
    return endorsement_payload(tx["tx_id"], result_digest)


def test_copied_endorsement_signature_flagged_at_its_height(committed):
    fed, _ = committed
    path, records = _committed_records(fed)
    earlier = records[1]["transactions"][0]
    target_height = len(records) - 1
    later = records[target_height]["transactions"][0]
    copied = earlier["endorsements"][0]
    victim = next(e for e in later["endorsements"] if e["org"] == copied["org"])
    # The copied signature is genuine, over the earlier transaction's payload.
    assert crypto.verify(copied["node_public_key"], copied["signature"], _endorsement_message(earlier))
    assert _endorsement_message(earlier) != _endorsement_message(later)
    victim["signature"] = copied["signature"]

    forged = path.with_name("copied-endorsement.jsonl")
    _write_records(forged, records)
    report = verify_chain_file(forged, fed.config.orgs_map(), fed.config.endorsement_policy)
    assert Finding(target_height, "tx 0: endorsement signature invalid") in report.findings
    assert report.first_divergent_height == target_height


def test_creator_key_reused_under_other_user_flagged(committed):
    """alice's key and certificate claimed as mallory, every other seal redone."""
    fed, users = committed
    path, records = _committed_records(fed)
    target_height = len(records) - 1
    tx = records[target_height]["transactions"][0]
    assert tx["body"]["creator"]["user_id"] == "alice"
    tx["body"]["creator"]["user_id"] = "mallory"
    tx["signature"] = crypto.sign(users["alice"]["key"], canonical_bytes(tx["body"]))
    tx["tx_id"] = tx_id_for(tx["body"])
    for endorsement in tx["endorsements"]:
        _, node_key = load_node_credentials(fed.config, endorsement["org"])
        endorsement["signature"] = crypto.sign(node_key, _endorsement_message(tx))
    previous = records[target_height - 1]
    records[target_height] = make_block(
        target_height, previous["block_hash"], records[target_height]["transactions"]
    ).to_dict()

    forged = path.with_name("reused-creator-key.jsonl")
    _write_records(forged, records)
    report = verify_chain_file(forged, fed.config.orgs_map(), fed.config.endorsement_policy)
    assert report.findings == [Finding(target_height, "tx 0: creator certificate invalid")]


@pytest.mark.parametrize("bad_signature", [None, ["00"], {"hex": "00"}], ids=["null", "list", "object"])
def test_non_string_tx_signature_reported_not_raised(committed, bad_signature):
    fed, _ = committed
    path, records = _committed_records(fed)
    target_height = 3
    records[target_height]["transactions"][0]["signature"] = bad_signature

    forged = path.with_name("non-string-signature.jsonl")
    _write_records(forged, records)
    report = verify_chain_file(forged, fed.config.orgs_map(), fed.config.endorsement_policy)
    assert Finding(target_height, "tx 0: client signature invalid") in report.findings
    assert report.first_divergent_height == target_height


@pytest.mark.parametrize(
    "field, bad_value",
    [
        ("creator", ["alice"]),
        ("endorsements", ["x"]),
        ("endorsements", "x"),
        ("result", ["x"]),
        ("result", {"reads": []}),
        ("body", ["x"]),
    ],
    ids=["creator-list", "endorsement-string", "endorsements-string", "result-list",
         "result-without-message", "body-list"],
)
def test_wrongly_typed_tx_field_reported_not_raised(committed, field, bad_value):
    fed, _ = committed
    path, records = _committed_records(fed)
    target_height = 2
    tx = records[target_height]["transactions"][0]
    if field == "creator":
        tx["body"]["creator"] = bad_value
    else:
        tx[field] = bad_value

    forged = path.with_name("wrongly-typed-field.jsonl")
    _write_records(forged, records)
    report = verify_chain_file(forged, fed.config.orgs_map(), fed.config.endorsement_policy)
    assert Finding(target_height, "tx 0: malformed transaction") in report.findings
    assert report.first_divergent_height == target_height


def test_single_target_flag_of_older_ledgers_commits_and_verifies(committed):
    """A ``flag-affected`` tx in the earlier one-target form (``pid`` the target,
    ``args.source_pid`` the source) is never re-simulated: commit and chain
    verification apply its recorded, endorsed write set."""
    fed, users = committed
    alice = users["alice"]
    flagged = fed.nodes["OrgA"].state.get("21.P/1")
    body = {
        "kind": "flag-affected",
        "pid": "21.P/1",
        "args": {"source_pid": "21.P/0"},
        "creator": alice["identity"].to_creator(),
        "timestamp": flagged.timestamp,
        "nonce": "0" * 32,
    }
    result = SimulationResult(
        message="Success: Resource flagged as affected",
        reads={"21.P/0": 2, "21.P/1": 1},
        writes={"21.P/1": flagged.evolved(
            version=2, status="affected", status_source="21.P/0").to_dict()},
    )
    tx = {"tx_id": tx_id_for(body), "body": body,
          "signature": crypto.sign(alice["key"], canonical_bytes(body)),
          "result": result.to_dict(), "endorsements": [], "validation": None}
    for org in fed.nodes:
        node_identity, node_key = load_node_credentials(fed.config, org)
        tx["endorsements"].append({
            "org": org,
            "node_id": node_identity.user_id,
            "node_public_key": node_identity.public_key,
            "node_certificate": node_identity.certificate,
            "signature": crypto.sign(node_key, _endorsement_message(tx)),
        })
    org_a = fed.nodes["OrgA"]  # the orderer's node, from which the replicas pull
    block = make_block(org_a.height() + 1, org_a.tip_hash(), [tx]).to_dict()
    assert org_a.commit(block)["flags"] == ["VALID"]

    deadline = time.monotonic() + 10
    for node in fed.nodes.values():
        while node.height() < org_a.height():
            assert time.monotonic() < deadline, f"{node.org_name} did not pull the block"
            time.sleep(0.01)
        assert node.read("21.P/1")["status"] == "affected"
        report = verify_chain_file(
            node.store.path, fed.config.orgs_map(), fed.config.endorsement_policy
        )
        assert report.ok, report.findings


def _note_in_result(record):
    record["transactions"][0]["result"]["note"] = "uncovered"


def _note_in_endorsement(record):
    record["transactions"][0]["endorsements"][0]["note"] = "uncovered"


def _note_as_tx_key(record):
    record["transactions"][0]["note"] = "uncovered"


def _note_as_block_key(record):
    record["note"] = "uncovered"


@pytest.mark.parametrize(
    "edit, target_height, finding",
    [
        (_note_in_result, 3, "tx 0: result carries uncovered keys ['note']"),
        (_note_in_endorsement, 4, "tx 0: endorsement carries uncovered keys ['note']"),
        (_note_as_tx_key, 5, "tx 0: transaction carries uncovered keys ['note']"),
        (_note_as_block_key, 2, "block carries uncovered keys ['note']"),
    ],
    ids=["result", "endorsement", "transaction", "block"],
)
def test_uncovered_key_flagged_at_its_height(committed, edit, target_height, finding):
    """A key that no id, signature, hash or replay covers is itself a finding,
    even when the file is rewritten as canonical JSON."""
    fed, _ = committed
    path, records = _committed_records(fed)
    edit(records[target_height])

    forged = path.with_name("uncovered-key.jsonl")
    _write_records(forged, records)
    report = verify_chain_file(forged, fed.config.orgs_map(), fed.config.endorsement_policy)
    assert report.findings == [Finding(target_height, finding)]


# -- a node's audit against its line index -------------------------------------
#
# A node's index holds, per height, where its line ends in the ledger file and
# the line's SHA-256: a checkpoint of every byte the node validated. An audit
# of a file that is exactly those lines replays nothing. Any other file is
# replayed from genesis, and the node's report must be exactly that full
# audit's; a clean replay must then end at the node's tip.

CLEAN = {"ok": True, "first_divergent_height": None, "findings": []}


def _audit(path, fed):
    return verify_chain_file(path, fed.config.orgs_map(), fed.config.endorsement_policy)


def test_truncation_below_the_checkpoint_replays_from_genesis(committed):
    fed, _ = committed
    node = fed.nodes["OrgA"]
    path, height = node.store.path, node.height()
    payload = path.read_bytes()
    last_line_start = payload.rfind(b"\n", 0, -1) + 1
    for cut in (len(payload) - 1, last_line_start - 7, len(payload) // 2):
        path.write_bytes(payload[:cut])
        full = _audit(path, fed)
        assert not full.ok
        assert node.verify_chain() == full.to_dict()
    # Cut at a block boundary, the file replays clean but ends below the tip.
    path.write_bytes(payload[:last_line_start])
    assert _audit(path, fed).ok
    assert node.verify_chain()["first_divergent_height"] == height
    path.write_bytes(payload)
    assert node.verify_chain() == CLEAN


def test_last_block_without_its_line_end_flagged(committed):
    """The next append would land on the same line as the last block."""
    fed, _ = committed
    node = fed.nodes["OrgA"]
    height = node.height()
    payload = node.store.path.read_bytes()
    node.store.path.write_bytes(payload[:-1])
    report = _audit(node.store.path, fed)
    assert report.findings == [Finding(height, "block record has no line end")]
    assert report.first_divergent_height == height
    assert report.tip is None
    assert node.verify_chain() == report.to_dict()
    node.store.path.write_bytes(payload)
    assert node.verify_chain() == CLEAN


def test_no_node_starts_on_a_last_block_without_its_line_end(committed):
    fed, _ = committed
    height = fed.nodes["OrgA"].height()
    fed.stop()
    for node in fed.nodes.values():
        node.store.path.write_bytes(node.store.path.read_bytes()[:-1])
    with pytest.raises(
        LedgerRejectedError, match=f"at height {height}: block record has no line end"
    ):
        Federation.start(fed.config_path)


def test_forged_block_appended_after_the_checkpoint_flagged(committed):
    """The tip's transactions again, under a well-formed header at the next
    height: only replay against the state the chain left can tell."""
    fed, _ = committed
    node = fed.nodes["OrgA"]
    path, records = _committed_records(fed)
    assert node.verify_chain() == CLEAN
    tip = records[-1]
    forged = dict(tip, height=len(records), prev_hash=tip["block_hash"])
    forged["block_hash"] = compute_block_hash(len(records), tip["block_hash"], tip["data_hash"])
    path.write_bytes(path.read_bytes() + canonical_bytes(forged) + b"\n")
    full = _audit(path, fed)
    assert not full.ok
    assert full.first_divergent_height == len(records)
    assert full.tip is None
    assert node.verify_chain() == full.to_dict()


def test_audit_after_later_commits_matches_a_full_audit(committed):
    fed, users = committed
    alice = users["alice"]["ledger"]
    node = fed.nodes["OrgA"]
    assert node.verify_chain() == CLEAN
    earlier = node.height()
    assert publish_raw(alice, "21.P/later", "cas://later", "cl").ok
    assert alice.hlf_invalidate("21.P/1").ok
    full = _audit(node.store.path, fed)
    assert node.verify_chain() == full.to_dict() == CLEAN
    assert full.tip == (node.height(), node.tip_hash())
    assert node.height() > earlier


def test_second_audit_without_new_blocks_checks_no_signature(committed, monkeypatch):
    """Right after commits, an audit of the unchanged file checks no
    signature, and neither does a second one. Once a byte changed, the audit
    replays from genesis, checking signatures, and reports what a full
    audit does."""
    fed, _ = committed
    node = fed.nodes["OrgA"]
    checked = []
    verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: checked.append(args) or verify(*args))
    assert node.verify_chain() == CLEAN
    assert node.verify_chain() == CLEAN
    assert checked == []
    payload = bytearray(node.store.path.read_bytes())
    payload[payload.find(b"cas://", _line_offsets(bytes(payload))[2]) + 6] ^= 0x01
    node.store.path.write_bytes(bytes(payload))
    report = node.verify_chain()
    assert checked, "the changed file was not replayed"
    assert not report["ok"]
    assert report == _audit(node.store.path, fed).to_dict()


def test_node_audit_flags_a_change_inside_its_verified_prefix(committed):
    fed, _ = committed
    node = fed.nodes["OrgB"]
    assert node.verify_chain()["ok"]
    payload = bytearray(node.store.path.read_bytes())
    line_start = _line_offsets(bytes(payload))[2]
    payload[payload.find(b"cas://", line_start) + 6] ^= 0x01
    node.store.path.write_bytes(bytes(payload))
    report = node.verify_chain()
    assert not report["ok"]
    assert report["first_divergent_height"] == 2


def test_blank_lines_between_blocks_flagged(committed):
    """The store never writes a blank line, so bytes in one are covered by nothing."""
    fed, _ = committed
    node = fed.nodes["OrgB"]
    lines = node.store.path.read_bytes().splitlines(keepends=True)
    node.store.path.write_bytes(b"\n \r\n".join(lines))
    for report in (node.verify_chain(), _audit(node.store.path, fed).to_dict()):
        assert not report["ok"]
        assert report["first_divergent_height"] == 1
        assert report["findings"][:2] == [
            {"height": 1, "problem": "unparseable block record"},
            {"height": 2, "problem": "unparseable block record"},
        ]


@pytest.mark.parametrize("audited_before", [False, True], ids=["first-audit", "resumed"])
def test_node_audit_flags_a_file_cut_at_a_block_boundary(committed, audited_before):
    fed, _ = committed
    node = fed.nodes["OrgB"]
    height = node.height()
    if audited_before:
        assert node.verify_chain()["ok"]
    payload = node.store.path.read_bytes()
    node.store.path.write_bytes(payload[: payload.rfind(b"\n", 0, -1) + 1])
    assert _audit(node.store.path, fed).ok
    report = node.verify_chain()
    assert not report["ok"]
    assert report["first_divergent_height"] == height
    [finding] = report["findings"]
    assert finding["height"] == height
    assert f"ends at height {height - 1}" in finding["problem"]
    assert f"tip is at height {height}" in finding["problem"]


def test_node_audit_flags_a_valid_block_appended_behind_its_back(committed, tmp_path):
    fed, users = committed
    original = fed.nodes["OrgB"]
    behind = tmp_path / "behind" / "ledger.jsonl"
    behind.parent.mkdir()
    behind.write_bytes(original.store.path.read_bytes())
    node = OrgNode(
        org_name="OrgB",
        node_identity=original.node_identity,
        node_private_key="00" * 32,  # audits only; no signing needed
        orgs=original.orgs,
        endorsement_policy=original.endorsement_policy,
        ledger_path=behind,
    )
    height = node.height()
    assert node.verify_chain()["ok"]
    assert publish_raw(users["alice"]["ledger"], "21.P/later", "cas://later", "cl").ok
    behind.write_bytes(original.store.path.read_bytes())
    assert _audit(behind, fed).ok
    report = node.verify_chain()
    assert not report["ok"]
    assert report["first_divergent_height"] == height + 1
    [finding] = report["findings"]
    assert f"ends at height {height + 1}" in finding["problem"]
    assert f"tip is at height {height}" in finding["problem"]
