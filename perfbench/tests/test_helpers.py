"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import helpers  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    timer = helpers.SelfTimer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 0.5
        wrapped_leaf()

    def outer():
        clock.now += 3.0
        wrapped_middle()
        clock.now += 0.25

    wrapped_leaf = timer.wrap("leaf", leaf)
    wrapped_middle = timer.wrap("middle", middle)
    timer.wrap("outer", outer)()

    assert timer.self_s["leaf"] == pytest.approx(4.0)
    assert timer.self_s["middle"] == pytest.approx(1.5)
    assert timer.self_s["outer"] == pytest.approx(3.25)
    # Layers sum to the outermost call's duration: nothing double counts.
    assert timer.total_s() == pytest.approx(clock.now)
    assert timer.calls == {"leaf": 2, "middle": 1, "outer": 1}


def test_self_time_merges_same_layer_and_counts_by_name():
    clock = FakeClock()
    timer = helpers.SelfTimer(clock=clock)

    def inner():
        clock.now += 1.0
        return 7

    seen = []
    wrapped_inner = timer.wrap("synthetic", inner, name="renders", on_return=seen.append)

    def outer():
        clock.now += 1.0
        return wrapped_inner()

    assert timer.wrap("synthetic", outer, name="frames")() == 7
    assert timer.self_s["synthetic"] == pytest.approx(2.0)
    assert timer.calls == {"renders": 1, "frames": 1}
    assert seen == [7]


def test_self_time_survives_exceptions():
    clock = FakeClock()
    timer = helpers.SelfTimer(clock=clock)

    def failing():
        clock.now += 1.0
        raise KeyError("boom")

    def outer():
        clock.now += 1.0
        with pytest.raises(KeyError):
            wrapped_failing()
        clock.now += 1.0

    wrapped_failing = timer.wrap("inner", failing)
    timer.wrap("outer", outer)()
    assert timer.self_s["inner"] == pytest.approx(1.0)
    assert timer.self_s["outer"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
def test_p95_needs_two_hundred_samples():
    assert helpers.samples_beyond(200, 95.0) == 10
    assert helpers.highest_percentile(200) == 95.0
    assert helpers.samples_beyond(199, 95.0) == 9
    assert helpers.highest_percentile(199) == 90.0


def test_highest_percentile_grows_with_samples():
    assert helpers.highest_percentile(1000) == 99.0
    assert helpers.highest_percentile(10_000) == 99.9
    assert helpers.highest_percentile(19) is None


def test_percentile_estimates_quantiles():
    values = list(range(1, 202))
    assert helpers.percentile(values, 50.0) == pytest.approx(101.0)
    assert helpers.percentile(values, 95.0) == pytest.approx(191.0, abs=0.5)
    assert helpers.percentile([3.0], 95.0) == pytest.approx(3.0)
    assert helpers.percentile([25.3] * 50, 50.0) == pytest.approx(25.3)
    with pytest.raises(ValueError):
        helpers.percentile([], 50.0)


def test_percentile_moves_smoothly_across_a_step():
    # 255 frames of two latencies: p95 sits on the step when about 5% of
    # frames are slow.  Each extra slow frame moves the estimate a little.
    estimates = [
        helpers.percentile([31.3] * (255 - slow) + [39.3] * slow, 95.0)
        for slow in (11, 12, 13, 14, 15)
    ]
    assert all(31.3 < value < 39.3 for value in estimates)
    steps = [b - a for a, b in zip(estimates, estimates[1:])]
    assert all(0.0 < step < 2.0 for step in steps)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _stats(**overrides):
    stats = {
        "submitted": 70,
        "admitted": 32,
        "rejected_queue_full": 9,
        "rejected_infeasible": 29,
        "rejected_no_replica": 0,
        "shed": 12,
        "displaced": 12,
        "completed": 17,
        "left_in_queue": 3,
        "tenancy": {
            "per_tenant": {
                "bulk": {
                    "submitted": 23, "admitted": 12, "rejected_queue_full": 2,
                    "rejected_infeasible": 9, "rejected_no_replica": 0,
                    "shed": 12, "displaced": 12, "completed": 0,
                },
                "gold": {
                    "submitted": 47, "admitted": 20, "rejected_queue_full": 7,
                    "rejected_infeasible": 20, "rejected_no_replica": 0,
                    "shed": 0, "displaced": 0, "completed": 17,
                },
            }
        },
    }
    stats.update(overrides)
    return stats


def test_reconciled_scheduler_accounting_passes():
    assert helpers.check_scheduler(_stats()) == []


def test_unreconciled_admissions_fail_the_run():
    failures = helpers.check_scheduler(_stats(completed=16))
    assert any("admitted 32" in failure for failure in failures)
    assert any("completed" in failure and "tenants" in failure for failure in failures)


def test_unreconciled_submissions_fail_the_run():
    failures = helpers.check_scheduler(_stats(rejected_infeasible=28))
    assert any("submitted 70" in failure for failure in failures)


def test_offload_check():
    assert helpers.check_offloads(16, 15, None) == []
    assert helpers.check_offloads(16, 17, None)
    assert helpers.check_offloads(70, 14, _stats(submitted=69))


def _frame(index, latency=25.3, ious=None):
    return SimpleNamespace(
        frame_index=index,
        latency_ms=latency,
        object_ious=ious if ious is not None else {1: 0.9},
        client_processed=True,
        offloaded=False,
        num_rendered=1,
    )


def test_frame_check():
    good = SimpleNamespace(frames=[_frame(i) for i in range(3)])
    assert helpers.check_frames([good], 3) == []
    assert helpers.check_frames([good], 4)
    bad_iou = SimpleNamespace(frames=[_frame(0, ious={1: 1.5})])
    assert helpers.check_frames([bad_iou], 1)
    bad_latency = SimpleNamespace(frames=[_frame(0, latency=float("nan"))])
    assert helpers.check_frames([bad_latency], 1)


def test_telescoping_check():
    good = SimpleNamespace(trace_id="s0-f1", segments={"a": 1.0, "b": 2.0}, e2e_ms=3.0)
    bad = SimpleNamespace(trace_id="s0-f2", segments={"a": 1.0, "b": 2.0}, e2e_ms=3.1)
    assert helpers.check_telescoping([good]) == []
    assert helpers.check_telescoping([good, bad]) == [
        "lineage s0-f2: segments 3.0 != e2e 3.1"
    ]


def test_digest_sees_every_simulated_outcome():
    results = [SimpleNamespace(frames=[_frame(i) for i in range(3)])]
    base = helpers.sim_digest(results, {"sent": 1})
    assert base == helpers.sim_digest(results, {"sent": 1})
    assert base != helpers.sim_digest(results, {"sent": 2})
    results[0].frames[1].latency_ms = 25.300001
    assert base != helpers.sim_digest(results, {"sent": 1})


def test_benchmark_json_names_every_reported_metric():
    import json

    import run

    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    import worker

    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
