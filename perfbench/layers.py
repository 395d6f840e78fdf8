"""Which program functions the traced run wraps, and the per-layer numbers.

Layers are measured from outside: :func:`install` wraps public functions of
each module at class level with a :class:`spans.SpanRecorder`, and
:func:`layer_metrics` turns the recorded spans plus the deployment's own
counters into the per-layer metrics of ``BENCHMARK.json``.  Every ``*_s``
metric except the two set-up ones (``workload.generate_s``,
``paradigms.build_s``: whole spans) and ``realnet.loop_s`` is *self* time in
wall seconds over the run phase, so the layers add up:
``run CPU ~= sum of layer self times + simulation.self_s + realnet.loop_s``.
"""

from __future__ import annotations

from typing import Dict

from repro.contracts.base import ContractRegistry
from repro.core.block_builder import BlockBuilder
from repro.core.dependency_graph import StreamingGraphBuilder
from repro.core.execution import CommitBatcher, CountdownScheduler, StateUpdater
from repro.crypto.signatures import KeyRegistry
from repro.ledger.ledger import Ledger
from repro.ledger.state import WorldState
from repro.metrics.collector import MetricsCollector
from repro.network.backend import BaseTransport
from repro.network.transport import Network
from repro.realnet.transport import InprocTransport, TcpTransport
from repro.simulation import Environment

#: (span name, class, functions of that class the span wraps).
TARGETS = (
    ("simulation.step", Environment, ("step",)),
    ("network.send", BaseTransport, ("multicast",)),
    ("network.send", Network, ("send",)),
    ("network.send", InprocTransport, ("send",)),
    ("network.send", TcpTransport, ("send",)),
    ("crypto.sign", KeyRegistry, ("sign", "sign_hash")),
    ("crypto.verify", KeyRegistry, ("verify", "verify_hash")),
    ("core.graph_add", StreamingGraphBuilder, ("add",)),
    ("core.block_add", BlockBuilder, ("add",)),
    ("core.seal", BlockBuilder, ("seal",)),
    ("core.schedule", CountdownScheduler, ("ready_indices", "mark_executed", "mark_committed")),
    ("core.commit_batch", CommitBatcher, ("add_result",)),
    ("core.commit_receive", StateUpdater, ("receive",)),
    ("contracts.execute", ContractRegistry, ("execute",)),
    ("ledger.apply", WorldState, ("apply_updates", "apply_results")),
    ("ledger.snapshot", WorldState, ("snapshot",)),
    ("ledger.append", Ledger, ("append",)),
    ("metrics.record", MetricsCollector, ("record_commit",)),
)

#: Spans of the set-up phase; the run-phase layer numbers leave them out.
SETUP_SPANS = ("workload.generate", "paradigms.build")


def install(recorder) -> None:
    """Wrap every function in :data:`TARGETS` (undone by ``recorder.restore``)."""
    for name, owner, functions in TARGETS:
        recorder.patch(owner, functions, name)


def layer_metrics(
    spans: Dict[str, Dict[str, float]],
    handles,
    submitted: int,
    committed: int,
    run_cpu_s: float,
) -> Dict[str, float]:
    """Per-layer numbers of one traced run (the caller adds the ``run.*`` ones).

    ``spans`` is the recorder's table aggregated with :data:`SETUP_SPANS` cut.
    ``realnet.loop_s`` is CPU time, so a paced run's idle waits stay out of it.
    """

    def count(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    def own(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    counters = handles.network.counters()
    decisions = max((o.consensus.decided_count() for o in handles.orderers), default=0)
    calls = count("contracts.execute")
    step_self = own("simulation.step")
    return {
        "simulation.events": count("simulation.step"),
        "simulation.events_per_tx": count("simulation.step") / submitted,
        "simulation.self_s": step_self,
        "network.msgs": counters["messages_sent"],
        "network.msgs_per_tx": counters["messages_sent"] / submitted,
        "network.send_s": own("network.send"),
        "network.bytes_per_tx": counters["bytes_sent"] / submitted,
        "realnet.loop_s": run_cpu_s - spans.get("simulation.step", {}).get("total_s", 0.0),
        "crypto.signs": count("crypto.sign"),
        "crypto.verifies": count("crypto.verify"),
        "crypto.s": own("crypto.sign", "crypto.verify"),
        "consensus.decisions": decisions,
        "consensus.tx_per_decision": submitted / decisions if decisions else 0.0,
        "core.graph_add_s": own("core.graph_add"),
        "core.block_add_s": own("core.block_add"),
        "core.seal_s": own("core.seal"),
        "core.blocks": count("core.seal"),
        "core.schedule_s": own("core.schedule"),
        "core.commit_batch_s": own("core.commit_batch"),
        "core.commit_receive_s": own("core.commit_receive"),
        "core.commit_msgs": count("core.commit_receive"),
        "contracts.calls": calls,
        "contracts.s": own("contracts.execute", "contracts.contract"),
        "contracts.replay_hit_ratio": (calls - count("contracts.contract")) / calls if calls else 0.0,
        "contracts.useful_ratio": committed / calls if calls else 0.0,
        "ledger.apply_s": own("ledger.apply"),
        "ledger.snapshots": count("ledger.snapshot"),
        "ledger.append_s": own("ledger.append"),
        "metrics.record_calls": count("metrics.record"),
        "metrics.record_s": own("metrics.record"),
        "workload.generate_s": spans.get("workload.generate", {}).get("total_s", 0.0),
        "paradigms.build_s": spans.get("paradigms.build", {}).get("total_s", 0.0),
        "trace.unattributed_frac": step_self / run_cpu_s,
    }
