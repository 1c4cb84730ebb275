"""DBGC benchmark: one command, three workloads, end-to-end or per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload archive-fullres --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with layer wrappers installed and prints the per-layer table.
The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed correctness check prints ``"correct": false`` and exits 1.
Seed 1 is the documented default; seed 9001 is held out for checking a
claimed gain on inputs it was not tuned on.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
#: A run that is not done by then is killed: every run must end within 180 s.
DEADLINE_S = 170.0


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_facts(seed: int) -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "storage": "SqliteFrameStore(':memory:') + ReceiptJournal in the checkout "
        "(batch 16, no fsync)",
        "link": "loopback; uplink-temporal shaped by BandwidthShaper(8.2 Mbps, "
        "latency 25 ms), depot-ingest unshaped",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing
    from perfbench.child import Supervisor
    from perfbench.stats import check_name
    from perfbench.workloads import END_TO_END, WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_run"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    trace_path = work / f"trace-{args.workload}.jsonl"
    if args.trace:
        trace_path.unlink(missing_ok=True)
    supervisor = Supervisor(DEADLINE_S)
    started = time.perf_counter()
    try:
        span_cost = tracing.calibrate() if args.trace else 0.0
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), Context(supervisor, run_dir, trace_path)
        )
    finally:
        supervisor.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    facts = host_facts(args.seed)
    if args.trace:
        outcome.facts["span_cost_s"] = span_cost
        values = tracing.layer_metrics(outcome.summary, outcome.facts)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        missing = tracing.missing_spans(args.workload, outcome.summary)
        if missing:
            outcome.problems.append(f"wrappers that never fired: {missing}")
        # The same end-to-end figures under tracing: their gap to an
        # untraced run of the same seed is the tracing overhead.
        for name, (unit, _) in END_TO_END.items():
            outcome.details.append((f"traced.{name}", outcome.metrics[name], unit, ""))
    else:
        values = outcome.metrics
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {
        check_name(name): {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
    correct = not outcome.problems and outcome.failed == 0

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  run {time.perf_counter() - started:.1f} s")
    for key, value in facts.items():
        print(f"# host.{key} = {value}")
    print(f"# {'metric':<34} {'value':>14}  {'unit':<6} samples")
    for name, entry in metrics.items():
        samples = outcome.samples.get(name, "")
        print(f"  {name:<34} {entry['value']:>14.6g}  {entry['unit']:<6} {samples}")
    for name, value, unit, samples in outcome.details:
        print(f"  {name:<34} {value:>14.6g}  {unit:<6} {samples}")
    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    record = {"workload": args.workload, "trace": args.trace, "host": facts,
              "correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics,
              "details": {d[0]: d[1] for d in outcome.details}}
    with open(work / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
