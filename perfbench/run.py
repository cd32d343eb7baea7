"""Benchmark of the katsura library and command line.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

One process, one closed-loop client, no threads: each operation starts when
the previous one has returned, and every output is checked against the
reference code in oracle.py.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the metrics are those
BENCHMARK.json lists as end_to_end, or as per_layer with --trace 1.  See
perfbench/README.md for the workloads and how to read and compare results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

DEADLINE_S = 30.0   # an operation running longer counts as failed
MIN_OPS = 11        # the tail percentile needs ten samples beyond it
TIME_CAP = 1.3      # after one full pass, a run stops once operation time passes this many --seconds
SETUP_REPEATS = 7

# What a fresh interpreter does before its first command: import the
# package and load the workload's pair files.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import katsura
from katsura.parsing import parse_matrix_file
for name in sys.argv[2:]:
    with open(name, "rb") as fh:
        parse_matrix_file(fh.read())
"""


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"operation ran past {DEADLINE_S} s")


@dataclasses.dataclass
class Stats:
    times: dict = dataclasses.field(default_factory=dict)  # operation key -> its execution times (s)
    bad: set = dataclasses.field(default_factory=set)      # keys with a failed execution
    busy: float = 0.0       # seconds spent inside operations
    executions: int = 0
    failed: int = 0         # failed executions: exceptions, overrun deadlines, wrong outputs
    wrong: int = 0          # executions whose output failed its check
    decided: int = 0
    undecided: int = 0
    errors: Counter = dataclasses.field(default_factory=Counter)


def plan(workload, seconds: float) -> tuple[int, int]:
    """(operations, rounds).  A run does a fixed amount of work: `seconds`
    at the workload's nominal rate, spread over at least `min_rounds` rounds
    of the same operations.  A later commit runs the same operations, so
    medians and tail percentiles compare like with like."""
    executions = max(MIN_OPS, round(seconds * workload.rate))
    count = max(MIN_OPS, min(len(workload.ops), round(executions / workload.min_rounds)))
    return count, max(workload.min_rounds, round(executions / count))


def execute(key, op, stats: Stats, verified: dict, tracer=None) -> None:
    if tracer:
        tracer.op, tracer.active = key, True
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # the failure is the measurement
        out = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    if tracer:
        tracer.active = False
    stats.times.setdefault(key, []).append(elapsed)
    stats.busy += elapsed
    stats.executions += 1
    if isinstance(out, Exception):
        correct, decided, undecided = False, 0, 0
        stats.errors[f"{op.kind}: {type(out).__name__}"] += 1
    elif key in verified and verified[key][0] == out:
        correct, decided, undecided = verified[key][1:]
    else:
        try:
            correct, decided, undecided = op.check(out)
        except Exception as exc:  # a malformed output can break its check
            correct, decided, undecided = False, 0, 0
            stats.errors[f"{op.kind}: check raised {type(exc).__name__}"] += 1
        if correct:
            verified[key] = (out, correct, decided, undecided)
        else:
            stats.wrong += 1
            stats.errors[f"{op.kind}: wrong output"] += 1
    stats.decided += decided
    stats.undecided += undecided
    if not correct:
        stats.failed += 1
        stats.bad.add(key)


def run_rounds(workload, stats: Stats, verified: dict, count: int, rounds: int, seconds: float, tracer=None) -> None:
    """The closed loop: `rounds` passes over the first `count` operations
    of the schedule.  After the first pass the run stops early once
    operation time passes TIME_CAP * seconds."""
    for r in range(rounds):
        for i in range(count):
            if r and stats.busy > TIME_CAP * seconds:
                return
            execute(i, workload.ops[i], stats, verified, tracer)


def measure_setup(files: list[str], repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *files],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def decided_ratio(stats: Stats) -> float:
    """Decided tri-state answers over all tri-state answers; 1.0 when the
    workload gives none."""
    total = stats.decided + stats.undecided
    return stats.decided / total if total else 1.0


def summary_lines(name: str, seed: int, stats: Stats) -> list[str]:
    lines = [
        f"{name} seed {seed}: {len(stats.times)} operations, {stats.executions} executions"
        f" in {stats.busy:.2f} s, {stats.failed} failed (error_ratio"
        f" {stats.failed / stats.executions:.4f}), {stats.wrong} wrong outputs",
        f"decided_ratio {decided_ratio(stats):.4f} ({stats.decided} of"
        f" {stats.decided + stats.undecided} tri-state answers decided)",
    ]
    lines += [f"  failures: {count} x {what}" for what, count in sorted(stats.errors.items())]
    return lines


def latencies(stats: Stats) -> list[float]:
    """Per operation, the lower median of its execution times, sorted.  The
    machine's speed drifts between a usual and a faster state as other
    tenants come and go; the median follows the usual one, where the fastest
    execution would follow how often the faster state came by."""
    return sorted(statistics.median_low(t) for t in stats.times.values())


def end_to_end(stats: Stats, setup: list[float]) -> tuple[dict, list[str]]:
    lat = latencies(stats)
    n = len(lat)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (n - len(stats.bad)) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * lat[n - 11],
        "decided_ratio": decided_ratio(stats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [
        f"latency_tail_ms is p{100.0 * (n - 10) / n:.2f} of {n} operations (10 beyond it):"
        f" {values['latency_tail_ms']:.3f} ms; p50 {values['latency_p50_ms']:.3f} ms",
        "setup_s is the median of " + ", ".join(f"{t:.4f}" for t in setup) + " s",
    ]
    return values, lines


def traced(workload, name: str, seed: int, seconds: float, verified: dict, per_layer: list[dict]):
    """The known defects once, then one untraced pass, then the same
    operations again traced.  The ratio of the two passes' operation times
    is the tracing overhead; the per-layer metrics are per operation of the
    traced pass.  The defects are outside `attempted` and `failed`: they
    fail at the commit that defined the benchmark, and count in
    known_defects.failed instead."""
    from tracer import Tracer  # imports katsura, so only once src/ is on the path

    defects = Stats()
    for i, op in enumerate(workload.defects):
        execute(("defect", i), op, defects, {})
    count = min(len(workload.ops), max(MIN_OPS, round(seconds * workload.rate / 2)))
    plain = Stats()
    run_rounds(workload, plain, verified, count, 1, seconds)
    tracer = Tracer()
    tracer.install()
    try:
        again = Stats()
        run_rounds(workload, again, verified, count, 1, seconds, tracer)
    finally:
        tracer.uninstall()
    ops = len(again.times)
    values = {
        "trace.overhead_ratio": again.busy / plain.busy,
        "error_ratio": (plain.failed + again.failed) / (plain.executions + again.executions),
        "known_defects.failed": defects.failed,
    }
    for metric in per_layer:
        if metric["name"] not in values:
            values[metric["name"]] = tracer.metric(metric["name"], ops)
    out = WORK / f"spans-{name}-{seed}.json"
    out.write_text(json.dumps({
        "workload": name, "seed": seed, "operations": ops,
        "fields": ["id", "parent", "name", "start", "end", "operation"],
        "spans": tracer.spans, "calls": tracer.calls, "self_s": tracer.self_s,
    }))
    lines = [
        f"traced {ops} operations (overhead ratio {values['trace.overhead_ratio']:.3f});"
        f" {len(tracer.spans)} spans written to {out.relative_to(ROOT)}",
    ]
    if defects.executions:
        lines.append(f"known defects, not counted in attempted or failed: {defects.failed} of"
                     f" {defects.executions} failed in {defects.busy:.2f} s")
    lines += [f"  known defect: {count} x {what}" for what, count in sorted(defects.errors.items())]
    both = Stats(
        times=again.times, bad=plain.bad | again.bad, busy=plain.busy + again.busy,
        executions=plain.executions + again.executions, failed=plain.failed + again.failed,
        wrong=plain.wrong + again.wrong + defects.wrong, decided=plain.decided + again.decided,
        undecided=plain.undecided + again.undecided, errors=plain.errors + again.errors,
    )
    return values, both, lines


def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool, setup_repeats=SETUP_REPEATS):
    import workloads  # imports katsura, so only once src/ is on the path

    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.build(name, seed, work)
        verified: dict = {}
        if trace:
            values, stats, lines = traced(workload, name, seed, seconds, verified, spec["per_layer"])
        else:
            setup = measure_setup(workload.files, setup_repeats)
            stats = Stats()
            run_rounds(workload, stats, verified, *plan(workload, seconds), seconds)
            values, lines = end_to_end(stats, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return values, stats, summary_lines(name, seed, stats) + lines


def result(spec_metrics: list[dict], values: dict, stats: Stats) -> dict:
    return {
        "correct": stats.wrong == 0,
        "attempted": stats.executions,
        "failed": stats.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }


def corrupt(out):
    """A wrong variant of an output, which its check must reject."""
    if isinstance(out, str):
        swaps = {"equal": "not-equal", "not-equal": "equal", "unknown": "equal", "none": "h(1)", "cap": "0"}
        if out in swaps:
            return swaps[out]
        k = max(i for i, c in enumerate(out) if c.isdigit())
        return out[:k] + str((int(out[k]) + 1) % 10) + out[k + 1:]
    if isinstance(out, tuple) and isinstance(out[0], int):  # analyze: (exit code, JSON)
        report = json.loads(out[1])
        report["irreducible"]["value"] = "no" if report["irreducible"]["value"] == "yes" else "yes"
        return out[0], json.dumps(report)
    if isinstance(out, tuple):  # groups first: add a free summand to K0
        free, torsion = oracle.parse_group_text(out[0])
        return (oracle.format_group(free + 1, torsion),) + out[1:]
    d = [list(row) for row in out.d]  # a Smith decomposition
    d[0][0] += 1
    return dataclasses.replace(out, d=tuple(map(tuple, d)))


def self_test(spec: dict) -> int:
    """Tiny runs of every workload: every operation kind passes its check and
    a corrupted output fails it, and the result line has the schema
    BENCHMARK.json promises in both modes."""
    import workloads

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        work = WORK / f"self-test-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            seen = set()
            for op in workloads.build(name, 0, work).ops:
                if op.kind in seen:
                    continue
                seen.add(op.kind)
                out = op.run()
                if not op.check(out)[0]:
                    problems.append(f"{name}/{op.kind}: a correct output failed its check")
                if op.check(corrupt(out))[0]:
                    problems.append(f"{name}/{op.kind}: a corrupted output passed its check")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            values, stats, _ = measure(spec, name, 0, 0.0, trace, setup_repeats=1)
            line = json.loads(json.dumps(result(spec[section], values, stats)))
            names = [m["name"] for m in spec[section]]
            ok = (
                set(line) == {"correct", "attempted", "failed", "metrics"}
                and isinstance(line["attempted"], int) and line["attempted"] >= 1
                and isinstance(line["failed"], int)
                and list(line["metrics"]) == names
                and all(isinstance(v["value"], (int, float)) and set(v) == {"value", "unit"}
                        for v in line["metrics"].values())
            )
            if not ok:
                problems.append(f"{name}: malformed result with --trace {int(trace)}")
            if not line["correct"]:
                problems.append(f"{name}: wrong outputs with --trace {int(trace)}: {dict(stats.errors)}")
        print(f"self-test {name}: checked {sorted(seen)}", flush=True)
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test ok" if not problems else f"self-test: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the katsura library and command line.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="quick check of the benchmark itself")
    args = parser.parse_args(argv)

    package = SRC / "katsura"
    if not (package / "__init__.py").is_file():
        print(f"error: no katsura package at {package}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import katsura

    if Path(katsura.__file__).resolve().parent != package.resolve():
        print(f"error: imported katsura from {katsura.__file__}, not {package}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.self_test:
        return self_test(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]] or args.seed is None or args.seconds is None:
        parser.error("--workload (one of BENCHMARK.json's), --seed and --seconds are required")
    values, stats, lines = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result(spec["per_layer" if args.trace else "end_to_end"], values, stats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
