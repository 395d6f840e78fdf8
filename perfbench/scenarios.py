"""The benchmark's workloads and one measured, checked run of one of them.

Runs go through the program's public entry points only:
``repro.paradigms.run.prepare_driver`` -> ``make_deployment`` ->
``Deployment.run``, then ``deployment.handles`` for the correctness checks.
The load generator is the deployment's in-process client gateway replaying
an open-loop Poisson schedule (one process, one thread).

Why these three workloads (see also ``BENCHMARK.json``):

* ``oxii-contended`` — the paper's headline scenario (OXII over PBFT at
  contention 0.5).  Time goes to the OXII executor path: streaming graph
  build, countdown scheduling and ``StateUpdater.receive``.  Channels are
  trusted, so crypto does nothing.
* ``xov-smallbank-signed`` — XOV has no dependency graph, so a gain in the
  graph/scheduler core must not move it.  An empty fault schedule keeps
  channels untrusted: every message is HMAC-signed and verified, on the
  honest path the fault battery runs.  Endorsement snapshots, MVCC
  validation (about 10 % of transactions abort on a stale read, which is the
  correct outcome, not a failure) and ledger reads beside writes.
* ``oxii-tcp-paced`` — the only workload that crosses pickle framing,
  localhost sockets and the asyncio loop.  Paced in real time
  (``realtime_speed`` 1) at 1000 tx/s, about a third of what one core
  sustains, so latency is set by the pipeline's timers and hops rather than
  by a backlog whose length follows the host's speed.

Deliberately not covered: the OX paradigm, sharding / cross-shard 2PC,
closed-loop agent populations and injected faults.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from repro.common.config import SystemConfig
from repro.common.errors import NetworkError
from repro.common.registry import contract_registry
from repro.paradigms.run import make_deployment, prepare_driver
from repro.realnet.parity import ledger_fingerprint
from repro.testing import FaultInjector, FaultSchedule
from repro.workload.generator import WorkloadConfig

import layers


class CheckFailed(Exception):
    """A run's outputs are wrong; its numbers must not be reported."""


@dataclass(frozen=True)
class Workload:
    """One benchmark input: deployment, workload generator and offered load."""

    paradigm: str
    generator: str
    system: Mapping[str, object]
    offered_load: float
    transactions: int
    drain: float
    workload: Mapping[str, object] = field(default_factory=dict)
    #: Drive the run with an empty fault schedule, so channels stay untrusted
    #: and every message is signed and verified.
    signed: bool = False

    @property
    def simulated(self) -> bool:
        return self.system.get("backend", "sim") == "sim"


WORKLOADS: Dict[str, Workload] = {
    "oxii-contended": Workload(
        paradigm="OXII",
        generator="accounting",
        system={
            "num_orderers": 7,
            "consensus_protocol": "pbft",
            "max_faulty_orderers": 2,
            "num_applications": 3,
            "executors_per_application": 3,
            "block_cut": {"max_transactions": 256, "max_delay": 0.2},
        },
        workload={"contention": 0.5},
        # 7/8 of the 2048 tx/s the deployment cannot sustain at this
        # contention (it commits about 1.9k tx/s): below saturation the
        # backlog does not grow, so simulated latency is steady across seeds.
        offered_load=1792.0,
        transactions=16384,
        drain=60.0,
    ),
    "xov-smallbank-signed": Workload(
        paradigm="XOV",
        generator="smallbank",
        system={
            "num_orderers": 4,
            "consensus_protocol": "pbft",
            "max_faulty_orderers": 1,
            "num_applications": 3,
            "executors_per_application": 2,
            "block_cut": {"max_transactions": 100},
        },
        offered_load=1500.0,
        transactions=18000,
        drain=60.0,
        signed=True,
    ),
    "oxii-tcp-paced": Workload(
        paradigm="OXII",
        generator="accounting",
        # Default 3-orderer Kafka cluster; one simulated second is one wall
        # second.  Not saturated: at saturation latency is the backlog, whose
        # length follows the host's speed, and event-loop wall time leaks
        # into simulated time.
        system={
            "backend": "asyncio-tcp",
            "realtime_speed": 1.0,
            "block_cut": {"max_transactions": 200},
        },
        workload={"contention": 0.5},
        offered_load=1000.0,
        transactions=8000,
        drain=30.0,
    ),
}


def prepare(workload: Workload, seed: int, transactions: int):
    """The run's inputs from the seed: ``(system_config, driver, initial_state)``."""
    system_config = SystemConfig(seed=seed).with_overrides(**workload.system)
    workload_config = WorkloadConfig(
        num_applications=system_config.num_applications, seed=seed
    ).with_overrides(**workload.workload)
    return prepare_driver(
        workload.generator,
        system_config,
        workload_config,
        workload.offered_load,
        transactions / workload.offered_load,
    )


def check_run(handles, driver, ordered: bool) -> None:
    """Raise :class:`CheckFailed` unless the run's outputs are right.

    * every submitted transaction completed at every measurement peer and
      is in the ledger;
    * the measurement peers' committed sequences agree: the exact order when
      ``ordered`` (OXII), the same set otherwise (XOV);
    * no transaction id appears twice in any ledger;
    * the transport's message-conservation identity holds.
    """
    problems = []
    submitted = {tx.tx_id for tx in driver.transactions}
    collector = handles.collector
    if collector.completed_count != len(submitted):
        problems.append(
            f"{collector.completed_count} of {len(submitted)} submitted transactions completed"
        )
    sequences = ledger_fingerprint(handles)
    for peer, sequence in sorted(sequences.items()):
        if len(set(sequence)) != len(sequence):
            problems.append(f"a transaction id appears twice in the ledger of {peer}")
    peers = [peer for peer in handles.measurement_peers if peer in sequences]
    if not peers:
        problems.append("no measurement peer keeps a ledger")
    else:
        reference = sequences[peers[0]]
        if set(reference) != submitted:
            problems.append(
                f"ledger of {peers[0]} holds {len(set(reference))} transactions, "
                f"{len(set(reference) ^ submitted)} differ from the {len(submitted)} submitted"
            )
        for peer in peers[1:]:
            agree = sequences[peer] == reference if ordered else set(sequences[peer]) == set(reference)
            if not agree:
                problems.append(f"ledger of {peer} disagrees with {peers[0]}")
    try:
        handles.network.reconcile()
    except NetworkError as error:
        problems.append(str(error))
    if problems:
        raise CheckFailed("; ".join(problems))


def measure(
    workload: Workload,
    seed: int,
    *,
    transactions: Optional[int] = None,
    setups: int = 1,
    recorder=None,
    counters=None,
) -> Dict[str, object]:
    """Set up ``setups`` times, run the last set-up deployment once, check it.

    Set-up is ``prepare_driver`` + ``make_deployment`` + ``Deployment.build``.
    The extra set-ups build a deployment and discard it, each from a
    collected heap so garbage left by the previous one does not bill it for a
    collection.  They come before the run, because set-ups made after it
    measured up to twice as slow (signed XOV).  The last set-up is timed
    by wrapping the deployment instance's ``build``, which ``Deployment.run``
    calls, so the run phase is ``run`` minus ``build``.

    Each phase is stamped with wall and process CPU time and, given
    :class:`counters.CpuCounters`, with user-mode cycles and instructions
    (reported per committed transaction; 0 without counters).

    With a :class:`spans.SpanRecorder` the layer functions are wrapped for
    the last set-up and the run, and the result carries the per-layer
    numbers under ``"layers"`` and the span table under ``"spans"``.
    """
    count = transactions or workload.transactions

    def stamp():
        wall, cpu = time.perf_counter(), time.process_time()
        return (wall, cpu, *counters.read()) if counters is not None else (wall, cpu, 0, 0)

    def since(began):
        return tuple(now - then for now, then in zip(stamp(), began))

    setup = []
    for _ in range(setups - 1):
        gc.collect()
        began = stamp()
        system_config, driver, initial_state = prepare(workload, seed, count)
        make_deployment(workload.paradigm, system_config).build(initial_state=initial_state)
        setup.append(since(began))

    prepare_fn: Callable = prepare
    if recorder is not None:
        layers.install(recorder)
        prepare_fn = recorder.wrap("workload.generate", prepare)
    gc.collect()
    began = stamp()
    system_config, driver, initial_state = prepare_fn(workload, seed, count)
    deployment = make_deployment(workload.paradigm, system_config)
    prepared = since(began)
    if recorder is not None:
        recorder.patch(contract_registry.get(system_config.contract), ("execute",), "contracts.contract")
    build = deployment.build
    if recorder is not None:
        build = recorder.wrap("paradigms.build", build)
    built = []

    def timed_build(*args, **kwargs):
        began = stamp()
        try:
            return build(*args, **kwargs)
        finally:
            built.append(since(began))

    deployment.build = timed_build
    fault_schedule = FaultInjector(FaultSchedule()) if workload.signed else None
    began = stamp()
    metrics = deployment.run(
        driver=driver,
        initial_state=initial_state,
        offered_load=workload.offered_load,
        drain=workload.drain,
        fault_schedule=fault_schedule,
    )
    run_s, run_cpu_s, run_cycles, run_instructions = (
        whole - part for whole, part in zip(since(began), built[0])
    )
    setup.append(tuple(a + b for a, b in zip(prepared, built[0])))

    handles = deployment.handles
    check_run(handles, driver, ordered=workload.paradigm != "XOV")
    submitted = len(driver.transactions)
    committed = handles.collector.committed_count
    result: Dict[str, object] = {
        "submitted": submitted,
        "completed": handles.collector.completed_count,
        "committed": committed,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "setup_s": [wall for wall, _, _, _ in setup],
        "wall_tps": committed / run_s,
        "kcycles_per_tx": run_cycles / committed / 1e3,
        "kinstr_per_tx": run_instructions / committed / 1e3,
        "commit_frac": committed / submitted,
        "sim_tps": metrics.throughput,
        "sim_p50_s": metrics.latency.p50,
        "sim_p99_s": metrics.latency.p99,
        "latency_samples": metrics.latency.count,
    }
    if recorder is not None:
        spans = recorder.aggregate(exclude_below=layers.SETUP_SPANS)
        result["spans"] = spans
        result["layers"] = layers.layer_metrics(spans, handles, submitted, committed, run_cpu_s)
    return result
