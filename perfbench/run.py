"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oxii-contended --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The metric names, units
and workloads are declared in ``BENCHMARK.json`` at the repository root.

Each measured run happens in a fresh interpreter (this script with
``--child``), so ``peak_rss_mb`` belongs to one workload run and imports and
lazy initialisation (a small warm-up set-up) fall outside both ``setup_s``
and the run phase.  Runs repeat, with the same seed, until ``--seconds`` is
used up (at least :data:`MIN_RUNS`); every reported value is the median over
the runs.  Any failed correctness check makes the command exit non-zero
without printing numbers.

The run phase's cost is counted in user-mode instructions per committed
transaction (``kinstr_per_tx``, from the CPU's counters), not in wall time:
on a shared host the work a core gets through per second swings by a quarter
from one minute to the next with the neighbours' load, while the instruction
count of one seed's run repeats to a fraction of a percent.  Wall throughput
and cycles per transaction are reported with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "kinstr_per_tx": "kinstr/tx",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "commit_frac": "ratio",
    "sim_tps": "tx/sim-s",
    "sim_p50_s": "sim-s",
    "sim_p99_s": "sim-s",
}

#: Per-layer metric -> unit (``--trace 1``).
PER_LAYER = {
    "run.wall_tps": "tx/s",
    "run.kcycles_per_tx": "kcycle/tx",
    "simulation.events": "count",
    "simulation.events_per_tx": "events/tx",
    "simulation.self_s": "s",
    "network.msgs": "count",
    "network.msgs_per_tx": "msgs/tx",
    "network.send_s": "s",
    "network.bytes_per_tx": "B/tx",
    "realnet.loop_s": "s",
    "crypto.signs": "count",
    "crypto.verifies": "count",
    "crypto.s": "s",
    "consensus.decisions": "count",
    "consensus.tx_per_decision": "tx/decision",
    "core.graph_add_s": "s",
    "core.block_add_s": "s",
    "core.seal_s": "s",
    "core.blocks": "count",
    "core.schedule_s": "s",
    "core.commit_batch_s": "s",
    "core.commit_receive_s": "s",
    "core.commit_msgs": "count",
    "contracts.calls": "count",
    "contracts.s": "s",
    "contracts.replay_hit_ratio": "ratio",
    "contracts.useful_ratio": "ratio",
    "ledger.apply_s": "s",
    "ledger.snapshots": "count",
    "ledger.append_s": "s",
    "metrics.record_calls": "count",
    "metrics.record_s": "s",
    "workload.generate_s": "s",
    "paradigms.build_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Untraced runs (or traced/untraced pairs) made even when ``--seconds`` is short.
MIN_RUNS = 3
MIN_TRACED_PAIRS = 1
#: Set-ups per untraced run: ``setup_s`` is the median over all of them.
SETUPS_PER_RUN = 8
#: Transactions in the warm-up run that pays lazy initialisation.
WARMUP_TRANSACTIONS = 64
#: A run that has not finished after this many seconds counts as failed.
RUN_TIMEOUT_S = 150.0


def child(workload_name: str, seed: int, traced: bool) -> dict:
    """One measured run in this (fresh) process; returns its numbers."""
    sys.path.insert(0, str(ROOT / "src"))
    import scenarios
    from counters import CpuCounters

    workload = scenarios.WORKLOADS[workload_name]
    counters = CpuCounters()
    # Warm-up: lazily initialised state, outside every timer.
    scenarios.measure(workload, seed, transactions=WARMUP_TRANSACTIONS)
    if not traced:
        result = scenarios.measure(workload, seed, setups=SETUPS_PER_RUN, counters=counters)
    else:
        from spans import SpanRecorder

        with SpanRecorder() as recorder:
            result = scenarios.measure(workload, seed, recorder=recorder)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def spawn(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run :func:`child` in a fresh interpreter and wait for it to end."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark run failed: {done.stderr.strip().splitlines()[-1:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, traced: bool):
    """Repeat fresh-process runs until ``seconds`` is used up.

    Returns ``(untraced results, traced results)``; with ``traced`` every
    untraced run is paired with a traced one, so ``trace.overhead`` compares
    runs of the same inputs made back to back.
    """
    plain, with_spans = [], []
    kinds = (False, True) if traced else (False,)
    minimum = MIN_TRACED_PAIRS if traced else MIN_RUNS
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        for kind in kinds:
            remaining = RUN_TIMEOUT_S - (time.perf_counter() - began)
            result = spawn(workload, seed, kind, timeout=max(remaining, 1.0))
            (with_spans if kind else plain).append(result)
        elapsed = time.perf_counter() - began
        rounds = len(plain)
        last_round = time.perf_counter() - round_began
        if rounds >= minimum and elapsed + last_round > seconds:
            return plain, with_spans


def check_repeatable(results: list, simulated: bool) -> None:
    """On the simulated backend the same seed must give the same run."""
    if not simulated:
        return
    keys = ("committed", "sim_tps", "sim_p50_s", "sim_p99_s", "latency_samples")
    first = {key: results[0][key] for key in keys}
    for other in results[1:]:
        if {key: other[key] for key in keys} != first:
            raise SystemExit(f"simulated runs of one seed differ: {first} vs {other}")


def end_to_end(plain: list) -> dict:
    return {
        "kinstr_per_tx": median(r["kinstr_per_tx"] for r in plain),
        "setup_s": median(s for r in plain for s in r["setup_s"]),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "commit_frac": median(r["commit_frac"] for r in plain),
        "sim_tps": median(r["sim_tps"] for r in plain),
        "sim_p50_s": median(r["sim_p50_s"] for r in plain),
        "sim_p99_s": median(r["sim_p99_s"] for r in plain),
    }


def per_layer(plain: list, with_spans: list) -> dict:
    values = {
        "run.wall_tps": median(r["wall_tps"] for r in plain),
        "run.kcycles_per_tx": median(r["kcycles_per_tx"] for r in plain),
    }
    values.update(
        (name, median(r["layers"][name] for r in with_spans))
        for name in PER_LAYER
        if name not in values and name != "trace.overhead"
    )
    values["trace.overhead"] = (
        median(r["run_cpu_s"] for r in with_spans) / median(r["run_cpu_s"] for r in plain) - 1.0
    )
    return values


def print_spans(spans: dict) -> None:
    """The span table of one traced run, by self time."""
    print(f"  {'span':24} {'count':>9} {'total_s':>9} {'self_s':>9}")
    for name, row in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {name:24} {row['count']:9d} {row['total_s']:9.3f} {row['self_s']:9.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(args.workload, args.seed, bool(args.trace))))
        return 0

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"the program's sources are missing: no src/repro under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(scenarios.WORKLOADS)}")
    workload = scenarios.WORKLOADS[args.workload]
    traced = bool(args.trace)
    plain, with_spans = collect(args.workload, args.seed, args.seconds, traced)
    check_repeatable(plain + with_spans, workload.simulated)

    results = plain + with_spans
    attempted = sum(r["submitted"] for r in results)
    failed = sum(r["submitted"] - r["completed"] for r in results)
    if traced:
        metrics, units = per_layer(plain, with_spans), PER_LAYER
    else:
        metrics, units = end_to_end(plain), END_TO_END
    print(f"{args.workload} seed={args.seed} runs={len(plain)} traced_runs={len(with_spans)}")
    if traced:
        for label, runs in (("untraced", plain), ("traced", with_spans)):
            print(f"  run_cpu_s per {label} run: " + " ".join(f"{r['run_cpu_s']:.3f}" for r in runs))
        print_spans(with_spans[len(with_spans) // 2]["spans"])
    else:
        for key in ("kinstr_per_tx", "wall_tps"):
            print(f"  {key} per run: " + " ".join(f"{r[key]:.1f}" for r in plain))
        samples = median(r["latency_samples"] for r in plain)
        print(f"  latency samples per run: {samples:g}")
        # commit_frac is reported instead because it is never 0.
        print(f"  fail_frac = {1.0 - metrics['commit_frac']:.6g} ratio (aborted or never completed)")
        # Wall throughput follows the host's load; the trace reports it as run.wall_tps.
        print(f"  wall_tps = {median(r['wall_tps'] for r in plain):.6g} tx/s (not a bounded metric)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
