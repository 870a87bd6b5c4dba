"""One round of a workload: a fresh loopback federation, the seeded preload,
a timed phase of CLI operations, and checks of the outputs.

Every user operation goes through ``fedprov.cli.run``. An operation fails
when its exit code is not 0 or when its output fails a check; a failed
operation is kept out of the latency samples.
"""

from __future__ import annotations

import itertools
import json
import queue
import random
import shutil
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gen
from oracle import forward_closure, root_paths

from fedprov import cli
from fedprov.harness import Federation

PRIMARY = {"ingest": "publish", "lineage": "trace", "retract": "invalidate --cascade"}
SECONDARY = {"ingest": "update-prov", "lineage": "verify", "retract": "federation verify-chain"}

INGEST_OPS_PER_CLIENT_S = 8.0   # fixed work: ops per client per second of --seconds
UPDATE_EVERY = 5                # every fifth ingest operation is an update-prov
TRICKLE_INTERVAL_S = 5.0        # lineage: one open-loop publish every 5 s
AUDIT_EVERY = 10                # retract: a verify-chain after every 10 retractions
PRELOAD_THREADS = 2


class CheckFailed(Exception):
    """The program's output or final state disagrees with the benchmark."""


class PreloadFailed(Exception):
    """Set-up could not publish the preload, so nothing can be measured."""


@dataclass
class Account:
    """Per-verb accounting of one run, shared by the client threads."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    latencies: dict = field(default_factory=lambda: defaultdict(list))
    failures: list = field(default_factory=list)
    wrong_outputs: int = 0
    lateness: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, verb: str, seconds: float, code: int, problem: str | None) -> None:
        with self.lock:
            self.attempted[verb] += 1
            if problem is None:
                self.latencies[verb].append(seconds)
                return
            self.failed[verb] += 1
            self.failures.append({"verb": verb, "exit": code, "message": problem})
            if code == 0:
                self.wrong_outputs += 1


class World:
    """The benchmark's own record of what it published: keys, PIDs, edges."""

    def __init__(self, fed: Federation, files: Path, tracer):
        self.fed = fed
        self.tracer = tracer
        self._op_ids = itertools.count()
        self.config = str(fed.config_path)
        self.files = files
        self.specs: dict[str, gen.Spec] = {}
        self.pids: dict[str, str] = {}        # key -> artifact PID
        self.prov: dict[str, str] = {}        # key -> provenance record PID (chain base)
        self.doc_checksum: dict[str, str] = {}
        self.keys: dict[str, str] = {}        # artifact PID -> key
        self.edges: list[tuple[str, str]] = []
        self.via: dict[tuple[str, str], str] = {}
        self.lock = threading.Lock()

    def cli(self, argv: list[str], identity: str | None = None) -> tuple[int, dict, float]:
        full = ["--config", self.config] + (["--identity", identity] if identity else []) + argv
        start = time.perf_counter()
        code, body = cli.run(full)
        return code, body, time.perf_counter() - start

    def op(self, account: Account, verb: str, argv: list[str], identity: str | None,
           check) -> dict | None:
        """Run one CLI operation, check its output, and account for it."""
        self.tracer.set_op(f"{verb}#{next(self._op_ids)}")
        code, body, seconds = self.cli(argv, identity)
        self.tracer.set_op(None)
        if code != 0:
            account.record(verb, seconds, code, str(body.get("error", body)))
            return None
        try:
            problem = check(body)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"{verb}: malformed output ({type(exc).__name__}: {exc})"
        account.record(verb, seconds, 0, problem)
        return None if problem else body

    def write(self, name: str, data: bytes) -> str:
        path = self.files / name
        path.write_bytes(data)
        return str(path)

    def publish(self, account: Account, spec: gen.Spec) -> dict | None:
        with self.lock:
            doc = gen.document(spec, self.pids)
        file_path = self.write(f"{spec.key}.bin", spec.payload)
        doc_path = self.write(f"{spec.key}.prov.json", json.dumps(doc).encode())

        def check(body):
            if body.get("artifact_checksum") != spec.checksum:
                return f"{spec.key}: checksum {body.get('artifact_checksum')} is not the " \
                       f"SHA-256 of the published bytes {spec.checksum}"
            for name, receipt in body["receipts"].items():
                if receipt["status"] != "VALID":
                    return f"{spec.key}: {name} receipt {receipt}"
            return None

        body = self.op(account, "publish", ["publish", file_path, doc_path], spec.owner, check)
        if body is not None:
            with self.lock:
                self.specs[spec.key] = spec
                self.pids[spec.key] = body["artifact_pid"]
                self.keys[body["artifact_pid"]] = spec.key
                self.prov[spec.key] = body["prov_pid"]
                self.doc_checksum[spec.key] = body["doc_checksum"]
                for parent, via in spec.parents:
                    self.edges.append((parent, spec.key))
                    self.via[(parent, spec.key)] = via
        return body

    def ledger_state(self) -> dict:
        return self.fed.nodes[self.fed.config.orderer_org().name].state_dump()

    def require_clean_chain(self) -> None:
        code, body, _ = self.cli(["federation", "verify-chain"])
        if code != 0 or not body.get("all_clear") or not body.get("consistent"):
            raise CheckFailed(f"verify-chain exit {code}: {body.get('error')}")
        if len(set(self.fed.state_digests().values())) != 1:
            raise CheckFailed(f"replica state digests differ: {self.fed.state_digests()}")


def _load_preload(world: World, specs: list[gen.Spec]) -> None:
    """Publish the preload through the CLI write path, two threads at a time.

    Artifacts go out in waves (every dataset, then every model, ...), so the
    two threads mostly serve different experiments; a thread whose parents
    are still in flight waits for them.
    """
    account = Account()
    waves = sorted(specs, key=lambda s: (s.key.count("."), s.key.split(".", 1)[1],
                                         int(s.key.split(".")[0][1:])))
    published = {spec.key: threading.Event() for spec in specs}
    pending = queue.SimpleQueue()
    for spec in waves:
        pending.put(spec)

    def worker():
        while True:
            try:
                spec = pending.get_nowait()
            except queue.Empty:
                return
            for parent, _ in spec.parents:
                published[parent].wait()
            if world.publish(account, spec) is None:
                break
            published[spec.key].set()
        for event in published.values():   # unblock the other thread
            event.set()

    threads = [threading.Thread(target=worker) for _ in range(PRELOAD_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if account.failures:
        raise PreloadFailed(f"preload failed: {account.failures[0]}")


# -- ingest ---------------------------------------------------------------------


def _ingest(world: World, account: Account, seed: int, round_no: int,
            phase_s: float) -> dict:
    preload_keys = sorted(world.specs)
    ops = max(UPDATE_EVERY, round(phase_s * INGEST_OPS_PER_CLIENT_S))
    chains: dict[str, list[str]] = {}    # updated key -> provenance PIDs, oldest first

    def client(user: str) -> None:
        rng = random.Random(f"ingest-{seed}-{round_no}-{user}")
        own = [k for k in preload_keys if world.specs[k].owner == user]
        mine: list[str] = []
        docs: dict[str, dict] = {}
        for i in range(ops):
            if (i + 1) % UPDATE_EVERY == 0:
                key = rng.choice(own)
                _update(world, account, key, chains, docs, rng, i)
                continue
            key = f"{user}.r{round_no}.{i}"
            parents = rng.sample(preload_keys + mine, rng.randint(0, 2))
            spec = gen.Spec(key, user, "result", gen.payload(rng, key),
                            tuple((p, "step") for p in sorted(parents)))
            if world.publish(account, spec) is not None:
                own.append(key)
                mine.append(key)

    _run_threads(client, gen.OWNERS)
    return {"chains": chains}


def _update(world: World, account: Account, key: str, chains: dict, docs: dict,
            rng: random.Random, step: int) -> None:
    spec = world.specs[key]
    chain = chains.setdefault(key, [world.prov[key]])
    current = docs.get(key) or gen.stored_document(spec, world.pids)
    revised = gen.enriched(current, rng, step)
    doc_path = world.write(f"{key}.v{len(chain) + 1}.json", json.dumps(revised).encode())

    def check(body):
        if body.get("classification") != "enrichment":
            return f"{key}: attribute-only edit classified {body.get('classification')!r}"
        if body.get("old_pid") != chain[-1] or body.get("new_pid") in chain:
            return f"{key}: update went from {body.get('old_pid')} to {body.get('new_pid')}"
        if body["receipt"]["status"] != "VALID":
            return f"{key}: receipt {body['receipt']}"
        return None

    body = world.op(account, "update-prov", ["update-prov", chain[-1], doc_path],
                    spec.owner, check)
    if body is not None:
        chain.append(body["new_pid"])
        docs[key] = revised


def _check_ingest(world: World, outcome: dict) -> None:
    state = world.ledger_state()
    expected = set(world.pids.values()) | set(world.prov.values())
    if set(state) != expected:
        raise CheckFailed(f"ledger holds {len(state)} records, the benchmark created "
                          f"{len(expected)}; {len(set(state) ^ expected)} differ")
    for key, pid in world.pids.items():
        if state[pid]["checksum"] != world.specs[key].checksum:
            raise CheckFailed(f"{key}: ledger checksum differs from the published bytes")
    for key, chain in outcome["chains"].items():
        code, body, _ = world.cli(["verify", chain[-1]])
        if code != 0 or body.get("result") != "VERIFIED":
            raise CheckFailed(f"verify {key} exit {code}: {body.get('error')}")
        if [r["pid"] for r in body["version_history"]] != chain:
            raise CheckFailed(f"{key}: version chain {body['version_history']} is not {chain}")
        versions = [h["version"] for h in body["ledger_history"]]
        if body["ledger_version"] != len(chain) or versions != list(range(1, len(chain) + 1)):
            raise CheckFailed(f"{key}: ledger versions {versions} after {len(chain) - 1} "
                              "enrichments")
    world.require_clean_chain()


# -- lineage ----------------------------------------------------------------------


def _lineage(world: World, account: Account, seed: int, round_no: int,
             phase_s: float) -> dict:
    preload_keys = sorted(world.specs)
    fresh: queue.SimpleQueue = queue.SimpleQueue()
    trickles = max(1, round(phase_s / TRICKLE_INTERVAL_S))
    interval = phase_s / trickles
    start = time.perf_counter()
    traced_fresh: list[str] = []

    def producer() -> None:
        rng = random.Random(f"trickle-{seed}-{round_no}")
        for j in range(trickles):
            due = start + (j + 0.5) * interval
            time.sleep(max(0.0, due - time.perf_counter()))
            account.lateness.append(time.perf_counter() - due)
            key = f"trickle.r{round_no}.{j}"
            parents = sorted(rng.sample(preload_keys, rng.randint(1, 2)))
            owner = rng.choice(gen.OWNERS)
            spec = gen.Spec(key, owner, "result", gen.payload(rng, key),
                            tuple((p, "evaluate") for p in parents))
            if world.publish(account, spec) is not None:
                fresh.put(key)

    def consumer() -> None:
        rng = random.Random(f"lineage-{seed}-{round_no}")
        known = list(preload_keys)
        while time.perf_counter() - start < phase_s:
            try:
                key = fresh.get_nowait()
                known.append(key)
                traced_fresh.append(key)
            except queue.Empty:
                key = rng.choice(known)
            _trace(world, account, key)
            target = rng.choice(known)
            pid = world.pids[target] if rng.random() < 0.5 else world.prov[target]
            world.op(account, "verify", ["verify", pid], gen.CONSUMER,
                     lambda body, pid=pid: None if body.get("result") == "VERIFIED"
                     and body.get("pid") == pid else f"verify {pid}: {body.get('result')}")

    _run_threads(lambda role: role(), (producer, consumer))
    return {"traced_fresh": traced_fresh}


def _trace(world: World, account: Account, key: str) -> None:
    with world.lock:
        edges = list(world.edges)
    want = {tuple(world.pids[k] for k in path) for path in root_paths(edges, key)}

    def check(body):
        got = []
        for path in body["paths"]:
            steps = path["steps"]
            got.append(tuple(step["artifact"] for step in steps[0::2]))
            for i in range(1, len(steps) - 1, 2):
                child = world.keys.get(steps[i - 1]["artifact"])
                parent = world.keys.get(steps[i + 1]["artifact"])
                hop = steps[i]
                cited = hop["attested_by"]
                if (hop["via"] != world.via.get((parent, child))
                        or cited["doc_pid"] != world.prov.get(child)
                        or cited["checksum"] != world.doc_checksum.get(child)):
                    return f"trace {key}: hop {parent} -> {child} cites {cited['doc_pid']} " \
                           f"via {hop['via']!r}"
        if len(got) != len(want) or set(got) != want:
            return f"trace {key}: {len(got)} paths, the oracle enumerates {len(want)}"
        return None

    world.op(account, "trace", ["trace", world.pids[key]], gen.CONSUMER, check)


def _check_lineage(world: World, outcome: dict) -> None:
    if not outcome["traced_fresh"]:
        raise CheckFailed("no trickle-published artifact was traced")
    world.require_clean_chain()


# -- retract ---------------------------------------------------------------------


def _retract(world: World, account: Account, seed: int, round_no: int,
             phase_s: float) -> dict:
    edges = list(world.edges)
    order = gen.retractions(f"{seed}.{round_no}", [world.specs[k] for k in sorted(world.specs)])
    status = {key: "valid" for key in world.pids}
    for i, spec in enumerate(order, 1):
        key = spec.key
        below = forward_closure(edges, [key])
        must_flag = {d for d in below if status[d] == "valid"}

        def check(body, key=key, below=below, must_flag=must_flag):
            affected = {world.keys.get(a["pid"]) for a in body["affected"]}
            if body.get("pid") != world.pids[key] or body["receipt"]["status"] != "VALID":
                return f"invalidate {key}: receipt {body.get('receipt')}"
            if not affected <= below:
                return f"invalidate {key}: flagged {sorted(map(str, affected - below))} " \
                       "outside its forward closure"
            if not must_flag <= affected:
                return f"invalidate {key}: left {sorted(must_flag - affected)} unflagged"
            return None

        world.op(account, "invalidate --cascade",
                 ["invalidate", world.pids[key], "--reason", f"retracted in round {round_no}",
                  "--cascade"], spec.owner, check)
        status[key] = "invalidated"
        for d in below:
            if status[d] != "invalidated":
                status[d] = "affected"
        if i % AUDIT_EVERY == 0 or i == len(order):
            world.op(account, "federation verify-chain", ["federation", "verify-chain"], None,
                     lambda body: None if body.get("all_clear") and body.get("consistent")
                     else "verify-chain: not all_clear and consistent")
    return {"retracted": [spec.key for spec in order]}


def _check_retract(world: World, outcome: dict) -> None:
    retracted = set(outcome["retracted"])
    closure = forward_closure(world.edges, retracted)
    state = world.ledger_state()
    for key, pid in world.pids.items():
        if key in retracted:
            want = "invalidated"
        elif key in closure:
            want = "affected"
        else:
            want = "valid"
        if state[pid]["status"] != want:
            raise CheckFailed(f"{key} is {state[pid]['status']}, the oracle says {want}")


PHASES = {
    "ingest": (_ingest, _check_ingest),
    "lineage": (_lineage, _check_lineage),
    "retract": (_retract, _check_retract),
}


def _run_threads(target, args) -> None:
    threads = [threading.Thread(target=target, args=(arg,)) for arg in args]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- one round ---------------------------------------------------------------------


def ledger_tail(path: Path, offset: int) -> tuple[int, int, int]:
    """(bytes, writes, useful flag-affected txs) appended to a ledger after
    *offset*: write-set entries of VALID transactions, and VALID
    flag-affected transactions whose write set is not empty."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        tail = fh.read()
    writes = useful_flags = 0
    for line in tail.splitlines():
        if not line.strip():
            continue
        for tx in json.loads(line)["transactions"]:
            if tx.get("validation") != "VALID":
                continue
            count = len(tx["result"]["writes"])
            writes += count
            if tx["body"]["kind"] == "flag-affected" and count:
                useful_flags += 1
    return len(tail), writes, useful_flags


def run_round(workload: str, seed: int, round_no: int, root: Path, phase_s: float,
              account: Account, tracer) -> dict:
    """Bring up a federation, load the preload, run one timed phase, check it.

    A failed check is returned as the round's ``problem``; a failed preload
    raises PreloadFailed, since then nothing was measured.
    """
    phase, check = PHASES[workload]
    files = root / "files"
    files.mkdir(parents=True)
    started = time.perf_counter()
    fed = Federation.bootstrap(root / "fed", use_tcp=True)
    try:
        for org, user in gen.USERS:
            fed.register_user(org, user)
        world = World(fed, files, tracer)
        _load_preload(world, gen.preload(seed))  # raises PreloadFailed
        setup_s = time.perf_counter() - started

        ledger = fed.config.ledger_path(fed.config.orderer_org().name)
        offset = ledger.stat().st_size
        tracer.active = tracer.enabled
        phase_started = time.perf_counter()
        outcome = phase(world, account, seed, round_no, phase_s)
        phase_elapsed = time.perf_counter() - phase_started
        tracer.active = False
        appended, writes, useful_flags = ledger_tail(ledger, offset)
        try:
            check(world, outcome)
            problem = None
        except CheckFailed as exc:
            problem = str(exc)
    finally:
        tracer.active = False
        fed.stop()
    shutil.rmtree(root)
    return {"setup_s": setup_s, "phase_s": phase_elapsed, "ledger_bytes": appended,
            "ledger_writes": writes, "useful_flags": useful_flags, "problem": problem}
