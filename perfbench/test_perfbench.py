"""Tests of the benchmark's own helpers.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pickle
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import scenarios  # noqa: E402
from counters import CountersUnavailable, CpuCounters  # noqa: E402
from repro.network.message import Message  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402

TINY = 300


def _frames_pickle() -> bool:
    """TCP frames carry slotted frozen dataclasses, picklable on Python >= 3.11."""
    try:
        pickle.loads(pickle.dumps(Message(kind="PROBE", body={})))
    except Exception:
        return False
    return True


def _counters():
    try:
        return CpuCounters()
    except CountersUnavailable:
        return None


def test_instruction_count_of_fixed_work_repeats():
    counters = _counters()
    if counters is None:
        pytest.skip("no hardware counters on this machine")

    def instructions_of_loop():
        before = counters.read()
        total = 0
        for i in range(200_000):
            total += i * i
        after = counters.read()
        assert after[0] > before[0]
        return after[1] - before[1]

    counts = [instructions_of_loop() for _ in range(5)]
    counters.close()
    assert max(counts) < 1.02 * min(counts)


def test_self_time_is_span_minus_child_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    assert self_times(parents, starts, ends) == [3.0, 3.0, 2.0, 2.0]


def test_recorder_nests_spans_and_restores_wrapped_functions():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    originals = dict(vars(Layer))
    with recorder:
        recorder.patch(Layer, ("outer", "absent"), "outer")
        recorder.patch(Layer, ("inner",), "inner")
        assert Layer().outer() == 2
    assert vars(Layer)["outer"] is originals["outer"]
    assert vars(Layer)["inner"] is originals["inner"]
    # Clock: outer opens at 0, inner runs 1-2 and 3-4, outer closes at 5.
    assert list(recorder.parents) == [-1, 0, 0]
    table = recorder.aggregate()
    assert table["outer"] == {"count": 1, "total_s": 5.0, "self_s": 3.0}
    assert table["inner"] == {"count": 2, "total_s": 2.0, "self_s": 2.0}
    assert set(recorder.aggregate(exclude_below=("outer",))) == {"outer"}


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(scenarios.WORKLOADS)
    names = [*run.END_TO_END, *run.PER_LAYER, *scenarios.WORKLOADS]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def _ledger_handles(sequences, completed):
    peers = [
        SimpleNamespace(
            node_id=node,
            ledger=SimpleNamespace(
                blocks=lambda ids=ids: [[SimpleNamespace(tx_id=i) for i in ids]]
            ),
        )
        for node, ids in sequences.items()
    ]
    return SimpleNamespace(
        peers=peers,
        measurement_peers=list(sequences),
        collector=SimpleNamespace(completed_count=completed),
        network=SimpleNamespace(reconcile=lambda: {}),
    )


@pytest.mark.parametrize(
    "sequences, completed, ordered, problem",
    [
        ({"p0": "ab", "p1": "ab"}, 2, True, None),
        ({"p0": "ab", "p1": "ba"}, 2, False, None),
        ({"p0": "ab", "p1": "ba"}, 2, True, "disagrees"),
        ({"p0": "ab", "p1": "ab"}, 1, True, "1 of 2"),
        ({"p0": "aab", "p1": "aab"}, 2, True, "twice"),
        ({"p0": "a", "p1": "a"}, 2, True, "differ"),
    ],
)
def test_check_run_verdicts(sequences, completed, ordered, problem):
    handles = _ledger_handles(sequences, completed)
    driver = SimpleNamespace(transactions=[SimpleNamespace(tx_id=i) for i in "ab"])
    if problem is None:
        scenarios.check_run(handles, driver, ordered)
    else:
        with pytest.raises(scenarios.CheckFailed, match=problem):
            scenarios.check_run(handles, driver, ordered)


@pytest.mark.parametrize("name", list(scenarios.WORKLOADS))
def test_tiny_run_passes_checks_and_emits_every_metric(name):
    workload = scenarios.WORKLOADS[name]
    if not workload.simulated and not _frames_pickle():
        pytest.skip("TCP frames need Python >= 3.11")
    counters = _counters()
    plain = scenarios.measure(workload, seed=3, transactions=TINY, setups=2, counters=counters)
    with SpanRecorder() as recorder:
        traced = scenarios.measure(workload, seed=3, transactions=TINY, recorder=recorder)
    plain["peak_rss_mb"] = 1.0
    if counters is not None:
        counters.close()
        assert plain["kinstr_per_tx"] > 0 and plain["kcycles_per_tx"] > 0
    assert plain["submitted"] == plain["completed"] == TINY
    assert len(plain["setup_s"]) == 2
    assert list(run.end_to_end([plain])) == list(run.END_TO_END)
    layers = run.per_layer([plain], [traced])
    assert set(layers) == set(run.PER_LAYER)
    assert (layers["crypto.signs"] > 0) is workload.signed
    assert (layers["crypto.verifies"] > 0) is workload.signed
    has_graph = workload.paradigm == "OXII"
    assert (layers["core.graph_add_s"] > 0) is has_graph
    assert (layers["core.commit_msgs"] > 0) is has_graph
    assert layers["simulation.events"] > 0 and layers["contracts.calls"] > 0
    if workload.simulated:
        # Wrapping layers from outside never changes what the simulation does.
        assert {k: traced[k] for k in ("sim_tps", "sim_p50_s", "committed")} == {
            k: plain[k] for k in ("sim_tps", "sim_p50_s", "committed")
        }
