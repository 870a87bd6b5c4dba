"""fedprov benchmark: the CLI verbs end to end against a loopback federation.

    python3 perfbench/run.py --workload ingest|lineage|retract \
        [--seed 1] [--seconds 15] [--trace 0|1]

Run from anywhere in a checkout; the program is imported from the
checkout's ``src``. A run is ROUNDS rounds; each brings up a fresh federation,
publishes the seeded preload, runs one timed phase of about
``--seconds / ROUNDS`` seconds and checks the outputs. With ``--trace 0``
the last line of stdout is the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run, which also prints its tracing overhead
when an untraced run of the same workload and seed has left its result.
Scratch files and results go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
ROUNDS = 3
WORKLOADS = ("ingest", "lineage", "retract")
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "ledger_writes_per_s": "1/s",
    "ledger_bytes_per_write": "B",
    "primary_p50_ms": "ms",
    "primary_p90_ms": "ms",
    "secondary_p50_ms": "ms",
}


def import_program():
    """Import ``fedprov`` from this checkout's ``src``, or exit with an error."""
    src = ROOT / "src"
    if not (src / "fedprov" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'fedprov'}")
    sys.path.insert(0, str(src))
    import fedprov

    if Path(fedprov.__file__).resolve().parent != (src / "fedprov").resolve():
        sys.exit(f"perfbench: imported fedprov from {fedprov.__file__}, not from {src}")


def pin_to_one_cpu() -> int:
    """Run this process and every thread it starts on one CPU.

    The whole federation shares one interpreter lock. Spread over two
    vCPUs, every hand-off of that lock crosses CPUs, and while the
    hypervisor runs another guest on one vCPU the threads waiting on the
    other stall too; on one CPU the same runs were faster and far steadier.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stolen_seconds(cpu: int) -> float:
    """Time the hypervisor has given to others on *cpu* since boot (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return float("nan")


def end_to_end(workload: str, account, rounds: list[dict]) -> dict:
    from workloads import PRIMARY, SECONDARY

    phase_s = sum(r["phase_s"] for r in rounds)
    writes = sum(r["ledger_writes"] for r in rounds)
    primary = [s * 1000.0 for s in account.latencies[PRIMARY[workload]]]
    secondary = [s * 1000.0 for s in account.latencies[SECONDARY[workload]]]
    completed = sum(len(v) for v in account.latencies.values())
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": completed / phase_s,
        "ledger_writes_per_s": writes / phase_s,
        "ledger_bytes_per_write": sum(r["ledger_bytes"] for r in rounds) / writes,
        "primary_p50_ms": statistics.median(primary),
        "primary_p90_ms": statistics.quantiles(primary, n=10)[-1],
        "secondary_p50_ms": statistics.median(secondary),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def report_verbs(workload: str, account, rounds: list[dict]) -> None:
    print(f"workload {workload}: {ROUNDS} rounds, set-up "
          + ", ".join(f"{r['setup_s']:.2f}" for r in rounds) + " s, timed phases "
          + ", ".join(f"{r['phase_s']:.2f}" for r in rounds) + " s")
    for verb in sorted(account.attempted):
        samples = sorted(account.latencies[verb])
        line = (f"  {verb:<24} attempted {account.attempted[verb]:>5}  "
                f"failed {account.failed[verb]:>3}")
        if samples:
            line += f"  p50 {statistics.median(samples) * 1000:8.1f} ms"
            if len(samples) >= 100:
                line += f"  p90 {statistics.quantiles(samples, n=10)[-1] * 1000:8.1f} ms"
            line += f"  max {samples[-1] * 1000:8.1f} ms  n {len(samples)}"
        print(line)
    if account.lateness:
        late = sorted(account.lateness)
        print(f"  open-loop publishes started late by p50 {statistics.median(late) * 1000:.1f} ms,"
              f" max {late[-1] * 1000:.1f} ms")
    for failure in account.failures:
        print(f"  FAILED {failure['verb']}: exit {failure['exit']}: {failure['message']}")


def report_overhead(workload: str, seed: int, traced: dict) -> None:
    untraced_path = OUT / "results" / f"{workload}-seed{seed}-trace0.json"
    if not untraced_path.exists():
        print(f"tracing overhead: run --trace 0 --seed {seed} first to compare")
        return
    untraced = json.loads(untraced_path.read_text())["end_to_end"]
    print("tracing overhead (traced - untraced, same seed):")
    for name, metric in traced.items():
        base = untraced[name]["value"]
        delta = metric["value"] - base
        print(f"  {name:<24} {metric['value']:10.3f} - {base:10.3f} = {delta:+9.3f} "
              f"{metric['unit']} ({delta / base * 100:+.1f} %)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    import spans
    import workloads

    tracer = spans.Tracer(enabled=bool(args.trace))
    if tracer.enabled:
        tracer.install()
    cpu = pin_to_one_cpu()
    steal_before = stolen_seconds(cpu)
    account = workloads.Account()
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        rounds = [workloads.run_round(args.workload, args.seed, round_no,
                                      work / f"round{round_no}", args.seconds / ROUNDS,
                                      account, tracer)
                  for round_no in range(ROUNDS)]
    except workloads.PreloadFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    problems = [f"round {i}: {r['problem']}" for i, r in enumerate(rounds) if r["problem"]]
    for verb in (workloads.PRIMARY[args.workload], workloads.SECONDARY[args.workload]):
        if len(account.latencies[verb]) < 2:
            print(f"perfbench: {verb} succeeded {len(account.latencies[verb])} times, too few "
                  f"to measure; failures: {account.failures[:3]}", file=sys.stderr)
            return 1

    report_verbs(args.workload, account, rounds)
    print(f"  pinned to cpu {cpu}; the hypervisor stole "
          f"{stolen_seconds(cpu) - steal_before:.2f} s of it during the run")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    metrics = end_to_end(args.workload, account, rounds)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "end_to_end": metrics}
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:12.4f} {metric['unit']}")
    if tracer.enabled:
        ops = sum(account.attempted.values())
        layers = spans.layer_metrics(tracer.spans, ops,
                                     account.attempted["invalidate --cascade"],
                                     sum(r["useful_flags"] for r in rounds))
        record["per_layer"] = layers
        report_overhead(args.workload, args.seed, metrics)
        tracer.dump(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": spans.layer_unit(name)}
                   for name, value in layers.items()}
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:12.4f} {metric['unit']}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not problems and account.wrong_outputs == 0,
        "attempted": sum(account.attempted.values()),
        "failed": sum(account.failed.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
