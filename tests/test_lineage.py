"""Causal request lineage, critical-path decomposition and the
``repro why`` deadline-miss root-cause console.

Covers the contracts docs/observability.md promises:

* every offloaded frame stitches into a lineage whose exclusive
  segments telescope exactly (±1e-6 ms) to its end-to-end latency;
* every deadline miss classifies to a cause from the fixed taxonomy —
  including under chaos (killed replicas, mid-flight link handoffs);
* exports are byte-deterministic and Chrome flow ids are a pure
  function of ``(session, frame)``, never of object identity;
* the per-cell ``miss_causes`` BENCH section is gated by
  ``repro bench compare``.
"""

from __future__ import annotations

import json

import pytest

from repro.eval import ExperimentSpec, run_experiment
from repro.eval import cli as cli_mod
from repro.eval.cli import main as cli_main
from repro.eval.experiments import FleetSpec, run_fleet
from repro.eval.suites import suite_cells
from repro.obs import (
    CAUSES,
    FRAME_BUDGET_MS,
    SEGMENT_ORDER,
    RequestContext,
    build_lineages,
    build_why,
    chrome_trace,
    classify_misses,
    miss_causes,
    render_waterfall,
    to_jsonl_lines,
    why_filename,
)
from repro.obs.compare import compare_payloads, iter_metric_paths, policy_for

_EPS = 1e-6


def traced_spec(**overrides) -> ExperimentSpec:
    base = dict(
        system="edgeis",
        dataset="xiph_like",
        num_frames=70,
        resolution=(160, 120),
        trace=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def fleet_spec(**overrides) -> FleetSpec:
    base = dict(
        num_clients=2,
        num_frames=50,
        resolution=(96, 72),
        warmup_frames=4,
        trace=True,
    )
    base.update(overrides)
    return FleetSpec(**base)


def assert_telescopes(lineage) -> None:
    """The exclusive segments must sum exactly to the end-to-end span."""
    total = sum(lineage.segments.values())
    assert total == pytest.approx(lineage.e2e_ms, abs=_EPS), lineage.trace_id
    for name, value in lineage.segments.items():
        assert name in SEGMENT_ORDER
        assert value >= -_EPS, f"{lineage.trace_id}: negative {name}"


class TestRequestContext:
    def test_ids_are_pure_functions_of_session_and_frame(self):
        ctx = RequestContext(session=3, frame=41)
        assert ctx.trace_id == "s3-f41"
        assert ctx.flow_id == 3 * 1_000_000 + 42
        # Frozen + value-equal: the same (session, frame) minted anywhere
        # in the pipeline names the same request.
        assert ctx == RequestContext(3, 41)
        assert hash(ctx) == hash(RequestContext(3, 41))
        assert RequestContext(0, 0).flow_id == 1  # ids stay non-zero


class TestSingleClientLineage:
    @pytest.fixture(scope="class")
    def tracer(self):
        return run_experiment(traced_spec()).tracer

    def test_every_offload_has_a_complete_lineage(self, tracer):
        lineages = build_lineages(tracer)
        dispatches = [e for e in tracer.events if e.name == "offload.dispatch"]
        assert len(lineages) == len(dispatches) > 0
        delivered = [
            ln for ln in lineages.values() if ln.outcome == "delivered"
        ]
        # Everything but a possible still-in-flight tail is delivered.
        assert len(delivered) >= len(lineages) - 2 > 0
        for lineage in lineages.values():
            assert lineage.complete, lineage.trace_id
        for lineage in delivered:
            assert lineage.server == 0

    def test_segments_telescope_to_e2e(self, tracer):
        for lineage in build_lineages(tracer).values():
            assert_telescopes(lineage)

    def test_lineages_sorted_by_session_then_frame(self, tracer):
        keys = [(ln.session, ln.frame) for ln in build_lineages(tracer).values()]
        assert keys == sorted(keys)

    def test_waterfall_renders_each_segment_and_footer(self, tracer):
        lineage = next(iter(build_lineages(tracer).values()))
        lines = render_waterfall(lineage)
        text = "\n".join(lines)
        for name in lineage.segments:
            assert name in text
        assert "end-to-end" in lines[-1]
        assert "delivered" in lines[-1]


class TestFleetLineage:
    @pytest.fixture(scope="class")
    def outcome(self):
        # EDF + cross-session batching: exercises admission, queueing,
        # batch assembly and the scheduler delivery path.
        return run_fleet(
            fleet_spec(
                num_clients=3,
                policy="edf",
                queue_limit=6,
                deadline_horizon=36.0,
                batch_window_ms=20.0,
                max_batch_size=3,
            )
        )

    def test_terminal_lineages_complete_and_telescope(self, outcome):
        lineages = build_lineages(outcome.tracer)
        assert lineages
        delivered = [ln for ln in lineages.values() if ln.outcome == "delivered"]
        assert delivered
        for lineage in lineages.values():
            if lineage.outcome != "in-flight":  # run may end mid-request
                assert lineage.complete, lineage.trace_id
            assert_telescopes(lineage)

    def test_batch_members_share_the_infer_span(self, outcome):
        lineages = build_lineages(outcome.tracer)
        batched = [
            s
            for s in outcome.tracer.spans
            if s.name == "server.infer" and len(s.attrs.get("traces", ())) > 1
        ]
        assert batched, "batching fleet produced no multi-member batches"
        for span in batched:
            for trace_id in span.attrs["traces"]:
                lineage = lineages[trace_id]
                assert lineage.infer is span
                assert lineage.batch is not None
                assert lineage.segments.get("batch_wait", 0.0) >= 0.0

    def test_all_misses_classified(self, outcome):
        causes = miss_causes(
            outcome.tracer, FRAME_BUDGET_MS, warmup_frames=4
        )
        assert causes["unclassified"] == 0
        assert causes["classified"] == causes["misses"]
        assert sum(causes["causes"].values()) == causes["classified"]
        for cause in causes["causes"]:
            assert cause in CAUSES
        if causes["misses"]:
            assert causes["top_cause"] in causes["causes"]

    def test_classify_misses_rows_are_well_formed(self, outcome):
        for row in classify_misses(outcome.tracer, warmup_frames=4):
            assert row["cause"] in CAUSES
            assert row["over_ms"] > 0.0
            assert row["latency_ms"] > FRAME_BUDGET_MS


class TestChaosLineage:
    def test_killed_replica_orphans_become_shed_lineages(self):
        # The batch window holds admitted requests in the replica queue,
        # so the kill tick finds work to orphan (a bare queue drains too
        # fast to shed anything at this scale).
        outcome = run_fleet(
            fleet_spec(
                num_clients=4,
                num_frames=56,
                resolution=(128, 96),
                warmup_frames=8,
                num_servers=2,
                batch_window_ms=20.0,
                max_batch_size=3,
                faults="replica-outage",
            )
        )
        lineages = build_lineages(outcome.tracer)
        shed = [ln for ln in lineages.values() if ln.outcome == "shed"]
        rejected = [ln for ln in lineages.values() if ln.outcome == "rejected"]
        # The outage both sheds queued work and rejects new arrivals.
        assert shed, "kill_replica shed no queued requests"
        assert rejected, "outage window rejected no submissions"
        for lineage in shed + rejected:
            assert lineage.complete, lineage.trace_id
            assert_telescopes(lineage)
        # Sheds at the fault tick can precede the item's uplink arrival;
        # the clamp keeps the queue segment a non-negative step.
        for lineage in shed:
            assert lineage.segments["queue_wait"] >= 0.0
        causes = miss_causes(outcome.tracer, FRAME_BUDGET_MS, warmup_frames=8)
        assert causes["unclassified"] == 0

    def test_midflight_handoff_is_attributed_to_the_new_link(self):
        outcome = run_fleet(fleet_spec(scenario="wifi-to-lte"))
        lineages = build_lineages(outcome.tracer)
        handed_off = [
            ln for ln in lineages.values() if ln.handoff_link is not None
        ]
        assert handed_off, "wifi-to-lte produced no handoff-carried transfer"
        for lineage in handed_off:
            assert lineage.handoff_link == "lte"
            assert_telescopes(lineage)
        causes = miss_causes(outcome.tracer, FRAME_BUDGET_MS, warmup_frames=4)
        assert causes["unclassified"] == 0

    def test_straggler_window_classifies_as_straggler_replica(self):
        outcome = run_fleet(
            fleet_spec(num_servers=2, faults="straggler")
        )
        causes = miss_causes(outcome.tracer, FRAME_BUDGET_MS, warmup_frames=4)
        assert causes["unclassified"] == 0
        assert causes["causes"].get("straggler-replica", 0) >= 1


class TestExportDeterminism:
    def test_jsonl_and_chrome_byte_identical_across_runs(self):
        first = run_experiment(traced_spec()).tracer
        second = run_experiment(traced_spec()).tracer
        assert to_jsonl_lines(first) == to_jsonl_lines(second)
        assert json.dumps(chrome_trace(first), sort_keys=True) == json.dumps(
            chrome_trace(second), sort_keys=True
        )

    def test_flow_ids_are_pure_functions_of_the_context(self):
        tracer = run_experiment(traced_spec()).tracer
        flows = [
            e
            for e in chrome_trace(tracer)["traceEvents"]
            if e.get("cat") == "lineage"
        ]
        assert flows
        assert {e["ph"] for e in flows} == {"s", "t", "f"}
        for event in flows:
            session, _, frame = event["args"]["trace"][1:].partition("-f")
            expected = RequestContext(int(session), int(frame)).flow_id
            assert event["id"] == expected  # formula, not id()-derived
            assert event["name"] == "request"
        finishes = [e for e in flows if e["ph"] == "f"]
        assert all(e.get("bp") == "e" for e in finishes)

    def test_span_records_carry_the_trace_id(self):
        tracer = run_experiment(traced_spec()).tracer
        uplinks = [s for s in tracer.spans if s.name == "channel.uplink"]
        assert uplinks
        for span in uplinks:
            record = span.to_record()
            assert record["trace"] == f"s0-f{record['frame']}"
            assert record["session"] == 0


class TestWhyConsole:
    def test_build_why_skips_kernel_cells_and_is_deterministic(self, micro_run):
        first = build_why(*micro_run)
        second = build_why(*micro_run)
        assert first["markdown"] == second["markdown"]
        assert first["unclassified"] == 0
        # micro = 1 pipeline cell + 8 kernel cells; only the former has
        # frames to classify.
        assert list(first["scenarios"]) == ["wifi5-walk"]
        # The ranked causes are the cell's BENCH section.
        payload, _ = micro_run
        assert first["scenarios"]["wifi5-walk"] == (
            payload["scenarios"]["wifi5-walk"]["miss_causes"]
        )

    def test_build_why_rejects_unknown_suite_and_scenario(self):
        # ``why`` selects its cells through the suite registry.
        with pytest.raises(KeyError):
            suite_cells("no-such-suite", traced=True)
        with pytest.raises(ValueError):
            suite_cells("micro", traced=True, scenario="no-such-cell")

    def test_cli_why_writes_byte_stable_console(
        self, micro_run, monkeypatch, tmp_path, capsys
    ):
        # The verb hands only the selected traced cells to the suite
        # runner (stubbed with the shared run) and renders its console.
        calls = []

        def fake_run_suite(suite, label, **kwargs):
            calls.append((suite, label, kwargs))
            return micro_run

        monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = cli_main(
                ["why", "micro", "--label", "t", "--out", str(out)]
            )
            assert not rc
        assert [call[2]["cells"] for call in calls] == [
            suite_cells("micro", traced=True)
        ] * 2
        name = why_filename("micro", "t")
        assert name == "WHY_micro_t.md"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / name).read_text() == build_why(*micro_run)["markdown"]
        assert "wifi5-walk" in capsys.readouterr().out


class TestMissCauseGating:
    def test_policy_for_miss_cause_paths(self):
        unclassified = policy_for("cell.miss_causes.unclassified")
        assert unclassified is not None
        assert not unclassified.higher_is_better
        assert unclassified.min_effect == 0.5  # any growth from zero flags
        count = policy_for("cell.miss_causes.causes.queue-wait")
        assert count is not None
        assert count.min_effect == 2.0

    def _payload(self, unclassified: int, queue_wait: int) -> dict:
        return {
            "schema_version": 5,
            "scenarios": {
                "cell": {
                    "miss_causes": {
                        "budget_ms": 33.3,
                        "misses": queue_wait + unclassified,
                        "classified": queue_wait,
                        "unclassified": unclassified,
                        "causes": {"queue-wait": queue_wait},
                        "top_cause": "queue-wait",
                    }
                }
            },
        }

    def test_iter_metric_paths_yields_miss_cause_metrics(self):
        paths = dict(iter_metric_paths(self._payload(0, 3)))
        assert paths["cell.miss_causes.unclassified"] == 0.0
        assert paths["cell.miss_causes.causes.queue-wait"] == 3.0

    def test_unclassified_growth_regresses_compare(self):
        report = compare_payloads(self._payload(0, 3), self._payload(2, 3))
        assert "cell.miss_causes.unclassified" in report["regressed"]
        steady = compare_payloads(self._payload(0, 3), self._payload(0, 3))
        assert steady["regressed"] == []


class TestPipelineMetricsParity:
    def test_single_and_multi_register_identical_names(self):
        single = run_experiment(traced_spec(num_frames=20)).tracer.metrics
        fleet = run_fleet(fleet_spec(num_frames=20)).tracer.metrics

        def pipeline_names(metrics) -> set[str]:
            snap = metrics.snapshot()
            return {
                name
                for section in snap.values()
                if isinstance(section, dict)
                for name in section
                if name.startswith("pipeline.")
            }

        names = pipeline_names(single)
        assert names == pipeline_names(fleet)
        assert "pipeline.frames" in names
        assert "pipeline.deadline_miss" in names
