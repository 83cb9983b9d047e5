"""Tests for the benchmark harness: suite runner, BENCH artifacts,
noise-aware comparison/regression gating, and the trend aggregator."""

import json

import pytest

from repro.eval.cli import main as cli_main
from repro.eval.reporting import SCHEMA_VERSION
# Note: ``bench_filename`` is deliberately not imported at module scope —
# this repo's pytest config collects ``bench_*`` functions as tests.
from repro.eval import suites as suites_mod
from repro.eval.suites import SUITES, BenchCell, run_suite, spec_section
from repro.obs import bench as bench_mod
from repro.obs import critical as critical_mod
from repro.obs import (
    build_report,
    build_why,
    render_report_html,
    render_report_markdown,
)
from repro.obs.bench import (
    dump_bench,
    environment_fingerprint,
    strip_timing,
    write_bench,
)
from repro.obs.kernelbench import KERNEL_NAMES, TIMING_KEYS
from repro.obs.compare import (
    compare_payloads,
    load_bench_dir,
    policy_for,
    render_comparison,
    render_trend_markdown,
    write_trend_report,
)


@pytest.fixture(scope="module")
def micro_payload(micro_run):
    return micro_run[0]


@pytest.fixture(scope="module")
def degraded_payload():
    return run_suite("micro", "slow", degrade=3.0)[0]


def synthetic_payload(
    label="base", infer_p50=400.0, iou=0.9, miss=0.1, burn=1.0, consumed=0.4
):
    """A handcrafted minimal BENCH payload for comparator unit tests."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "suite": "synthetic",
        "label": label,
        "budget_ms": 33.333333,
        "degrade": 1.0,
        "environment": {},
        "scenarios": {
            "cell": {
                "result": {
                    "mean_iou": iou,
                    "false_rate_75": 0.05,
                    "mean_latency_ms": 20.0,
                    "bytes_up": 100000,
                    "bytes_down": 5000,
                },
                "slo": {
                    "miss_rate": miss,
                    "worst_streak": 3,
                    "latency_p50_ms": 18.0,
                    "latency_p99_ms": 40.0,
                    "total_over_ms": 12.0,
                    "max_over_ms": 6.0,
                },
                "budget": {
                    "target_miss_rate": 0.05,
                    "consumed_fraction": consumed,
                    "max_fast_burn_rate": burn,
                    "max_slow_burn_rate": burn * 0.8,
                },
                "stages": {
                    "server/server.infer": {
                        "mean_ms": infer_p50,
                        "p50_ms": infer_p50,
                        "p90_ms": infer_p50 * 1.05,
                        "p99_ms": infer_p50 * 1.1,
                    },
                    "client/mamt.predict": {
                        "mean_ms": 0.1,
                        "p50_ms": 0.1,
                        "p90_ms": 0.12,
                        "p99_ms": 0.15,
                    },
                },
            }
        },
    }


class TestSuiteRegistry:
    def test_suites_present(self):
        assert {"micro", "smoke", "full"} <= set(SUITES)
        for scenarios in SUITES.values():
            assert scenarios
            assert all(isinstance(s, BenchCell) for s in scenarios)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError, match="unknown suite"):
            run_suite("no-such-suite", "x")

    @pytest.mark.parametrize("suite", ["micro", "smoke", "fleet", "chaos", "tenants"])
    def test_cell_specs_match_committed_baselines(self, suite):
        """Each cell's artifact ``spec`` section equals the committed
        baseline's, without running anything: a spec default that drifts
        (ExperimentSpec.num_frames is 180, the suites run 150 or fewer)
        shows up here instead of as a moved baseline."""
        with open(f"benchmarks/baselines/BENCH_{suite}_baseline.json") as fh:
            baseline = json.load(fh)["scenarios"]
        assert {cell.name for cell in SUITES[suite]} == set(baseline)
        for cell in SUITES[suite]:
            assert spec_section(cell) == baseline[cell.name]["spec"], cell.name

    def test_filename(self):
        assert bench_mod.bench_filename("smoke", "ci") == "BENCH_smoke_ci.json"


class TestBenchPayload:
    def test_structure(self, micro_payload):
        assert micro_payload["schema_version"] == SCHEMA_VERSION
        assert micro_payload["kind"] == "bench"
        assert micro_payload["suite"] == "micro"
        scenario = micro_payload["scenarios"]["wifi5-walk"]
        # Shared result schema rides along with its own version field.
        assert scenario["result"]["schema_version"] == SCHEMA_VERSION
        assert 0.0 < scenario["result"]["mean_iou"] <= 1.0
        stages = scenario["stages"]
        assert "server0/server.infer" in stages
        assert "client/client.process" in stages
        for stats in stages.values():
            assert stats["p50_ms"] <= stats["p90_ms"] <= stats["p99_ms"]
            assert stats["p99_ms"] <= stats["max_ms"] + 1e-9
            # The streaming estimate must bracket within the sample range.
            assert stats["hist_p99_ms"] <= stats["max_ms"] + 1e-9
        slo = scenario["slo"]
        assert slo["frames"] == 50  # 80 frames - 30 warmup
        assert 0.0 <= slo["miss_rate"] <= 1.0
        assert slo["worst_streak"] <= slo["misses"]
        if slo["misses"]:
            assert sum(slo["attribution"].values()) == slo["misses"]
        offload = scenario["offload"]
        assert offload["bytes_up"] > 0
        assert offload["counters"]["server.requests"] >= 1
        assert offload["counters"]["pipeline.frames"] == 80

    def test_budget_section(self, micro_payload):
        assert micro_payload["slo_target"] == 0.05
        budget = micro_payload["scenarios"]["wifi5-walk"]["budget"]
        # The artifact embeds the lean scalar form, never the series.
        assert "burn_series" not in budget
        assert budget["frames"] == 50
        assert budget["allowed_misses"] == pytest.approx(2.5)
        assert budget["misses"] <= budget["frames"]
        assert budget["max_fast_burn_rate"] >= budget["fast_burn_rate"]
        assert budget["max_slow_burn_rate"] >= budget["slow_burn_rate"]
        if budget["misses"] > budget["allowed_misses"]:
            assert budget["exhausted_at_ms"] is not None

    def test_environment_fingerprint(self, micro_payload):
        env = micro_payload["environment"]
        assert env == environment_fingerprint()
        assert set(env) == {
            "python",
            "implementation",
            "platform",
            "machine",
            "numpy",
        }

    def test_byte_identical_across_runs(self, micro_payload):
        # Kernel wall-clock fields are the one sanctioned source of
        # nondeterminism; everything else must match byte for byte.
        again, _ = run_suite("micro", "t")
        assert dump_bench(strip_timing(micro_payload)) == dump_bench(
            strip_timing(again)
        )

    def test_kernel_cells_present_and_equivalent(self, micro_payload):
        cells = {
            name: scenario["kernel"]
            for name, scenario in micro_payload["scenarios"].items()
            if "kernel" in scenario
        }
        assert set(cells) == set(KERNEL_NAMES)
        for name, kernel in cells.items():
            assert kernel["equivalent"], f"{name} diverged from its reference"
        # The vectorization acceptance bar: at least three kernels at 3x+.
        speedups = [
            kernel["speedup_x"]
            for kernel in cells.values()
            if "vectorized_us" in kernel
        ]
        assert sum(1 for s in speedups if s >= 3.0) >= 3

    def test_strip_timing_removes_only_wallclock(self, micro_payload):
        stripped = strip_timing(micro_payload)
        kernel = stripped["scenarios"]["fast.arc_run"]["kernel"]
        assert not set(TIMING_KEYS) & set(kernel)
        assert kernel["equivalent"] is True
        # The original payload is untouched.
        assert "speedup_x" in micro_payload["scenarios"]["fast.arc_run"]["kernel"]

    def test_write_bench(self, micro_payload, tmp_path):
        path = write_bench(micro_payload, tmp_path)
        assert path.name == "BENCH_micro_t.json"
        assert json.loads(path.read_text()) == json.loads(
            dump_bench(micro_payload)
        )


class TestComparePolicies:
    def test_policy_selection(self):
        assert policy_for("x.result.mean_iou").higher_is_better
        assert not policy_for("x.stages.server/server.infer.p50_ms").higher_is_better
        assert policy_for("x.slo.miss_rate") is not None
        assert policy_for("x.offload.offload_count") is None

    def test_budget_policies(self):
        assert not policy_for("x.budget.consumed_fraction").higher_is_better
        assert not policy_for("x.budget.max_fast_burn_rate").higher_is_better
        assert policy_for("x.budget.max_slow_burn_rate") is not None
        assert policy_for("x.budget.target_miss_rate") is None

    def test_identical_payloads_all_neutral(self):
        report = compare_payloads(synthetic_payload(), synthetic_payload())
        assert report["regressed"] == []
        assert report["improved"] == []
        assert report["neutral_count"] == len(report["metrics"])

    def test_budget_burn_regression_fails_gate(self):
        report = compare_payloads(
            synthetic_payload(), synthetic_payload(burn=4.0, consumed=1.6)
        )
        assert "cell.budget.max_fast_burn_rate" in report["regressed"]
        assert "cell.budget.consumed_fraction" in report["regressed"]

    def test_budget_burn_floor_suppresses_wobble(self):
        # 1.0 -> 1.3 burn: 30% relative but under the 0.5 absolute floor.
        report = compare_payloads(synthetic_payload(), synthetic_payload(burn=1.3))
        assert not any("burn_rate" in p for p in report["regressed"])

    def test_nan_budget_metrics_skipped(self):
        old, new = synthetic_payload(), synthetic_payload()
        old["scenarios"]["cell"]["budget"]["consumed_fraction"] = float("nan")
        report = compare_payloads(old, new)
        paths = [entry["metric"] for entry in report["metrics"]]
        assert "cell.budget.consumed_fraction" not in paths
        assert "cell.budget.consumed_fraction" in report["added"]

    def test_regression_names_stage(self):
        report = compare_payloads(
            synthetic_payload(), synthetic_payload(infer_p50=800.0)
        )
        assert any("server/server.infer.p50_ms" in p for p in report["regressed"])

    def test_improvement_detected(self):
        report = compare_payloads(
            synthetic_payload(), synthetic_payload(infer_p50=200.0)
        )
        assert any("server/server.infer" in p for p in report["improved"])
        assert not any("server/server.infer" in p for p in report["regressed"])

    def test_min_effect_floor_suppresses_tiny_absolute_change(self):
        # mamt.predict doubles 0.1 -> 0.2 ms: 100% relative, but below the
        # 0.25 ms latency floor — must stay neutral.
        new = synthetic_payload()
        new["scenarios"]["cell"]["stages"]["client/mamt.predict"]["p50_ms"] = 0.2
        report = compare_payloads(synthetic_payload(), new)
        assert report["regressed"] == []

    def test_rel_threshold_suppresses_small_relative_change(self):
        # 400 -> 408 ms: 8 ms absolute, but only 2% — under the 5% gate.
        report = compare_payloads(
            synthetic_payload(), synthetic_payload(infer_p50=408.0)
        )
        assert report["regressed"] == []

    def test_iou_is_higher_is_better(self):
        worse = compare_payloads(synthetic_payload(), synthetic_payload(iou=0.8))
        assert "cell.result.mean_iou" in worse["regressed"]
        better = compare_payloads(synthetic_payload(), synthetic_payload(iou=0.99))
        assert "cell.result.mean_iou" in better["improved"]

    def test_threshold_scale_loosens_gate(self):
        old, new = synthetic_payload(), synthetic_payload(infer_p50=440.0)
        assert compare_payloads(old, new)["regressed"]  # 10% > 5%
        assert not compare_payloads(old, new, threshold_scale=4.0)["regressed"]

    def test_schema_mismatch_raises(self):
        old, new = synthetic_payload(), synthetic_payload()
        new["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version mismatch"):
            compare_payloads(old, new)

    def test_missing_and_added_metrics_reported(self):
        old, new = synthetic_payload(), synthetic_payload()
        del new["scenarios"]["cell"]["stages"]["client/mamt.predict"]
        report = compare_payloads(old, new)
        assert any("mamt.predict" in p for p in report["missing"])
        assert report["added"] == []

    def test_render_comparison_lists_verdicts(self):
        report = compare_payloads(
            synthetic_payload(), synthetic_payload(infer_p50=800.0)
        )
        rendered = render_comparison(report).render()
        assert "REGRESSED" in rendered
        assert "server/server.infer" in rendered


class TestDegradeGate:
    def test_degraded_run_regresses_server_infer(
        self, micro_payload, degraded_payload
    ):
        report = compare_payloads(micro_payload, degraded_payload)
        assert any("server0/server.infer" in p for p in report["regressed"])

    def test_self_compare_passes(self, micro_payload):
        assert compare_payloads(micro_payload, micro_payload)["regressed"] == []


class TestTrend:
    def test_markdown_rows(self, tmp_path):
        write_bench(synthetic_payload("aaa"), tmp_path)
        fast = synthetic_payload("bbb", infer_p50=200.0)
        fast["suite"] = "synthetic2"
        write_bench(fast, tmp_path)
        entries = load_bench_dir(tmp_path)
        assert [name for name, _ in entries] == [
            "BENCH_synthetic2_bbb.json",
            "BENCH_synthetic_aaa.json",
        ]
        markdown = render_trend_markdown(entries)
        assert "do not edit" in markdown
        assert "BENCH_synthetic_aaa.json" in markdown
        assert markdown.count("| cell |") == 2

    def test_write_trend_report(self, tmp_path):
        write_bench(synthetic_payload(), tmp_path)
        out = write_trend_report(tmp_path)
        assert out == tmp_path / "README.md"
        assert "Benchmark trajectory" in out.read_text()

    def test_empty_dir(self, tmp_path):
        markdown = render_trend_markdown(load_bench_dir(tmp_path))
        assert "No `BENCH_*.json` artifacts" in markdown


class TestBenchCli:
    def test_bench_run_writes_artifact(self, micro_run, monkeypatch, tmp_path, capsys):
        """One ``bench run`` writes BENCH, REPORT md/html and WHY from a
        single simulation of each traced cell."""
        calls = []
        for name in ("run_experiment", "run_fleet"):
            real = getattr(suites_mod, name)

            def counted(spec, real=real):
                calls.append(spec)
                return real(spec)

            monkeypatch.setattr(suites_mod, name, counted)
        code = cli_main(
            ["bench", "run", "--suite", "micro", "--label", "t",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(calls) == len(suites_mod.suite_cells("micro", traced=True)) == 1
        payload = json.loads((tmp_path / "BENCH_micro_t.json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        out = capsys.readouterr().out
        assert "miss rate" in out and "wrote" in out
        # The views are the renders of that run: byte-identical to the
        # same renders of the shared micro run.
        report = build_report(*micro_run)
        assert (tmp_path / "REPORT_micro_t.md").read_text() == (
            render_report_markdown(report)
        )
        assert (tmp_path / "REPORT_micro_t.html").read_text() == (
            render_report_html(report)
        )
        assert (tmp_path / "WHY_micro_t.md").read_text() == (
            build_why(*micro_run)["markdown"]
        )

    def test_bench_run_fails_on_unclassified_miss(
        self, monkeypatch, tmp_path, capsys
    ):
        real = critical_mod.classify_misses

        def leaky(tracer, warmup_frames=0):
            misses = real(tracer, warmup_frames)
            return [{**misses[0], "cause": "unknown"}, *misses[1:]]

        monkeypatch.setattr(critical_mod, "classify_misses", leaky)
        monkeypatch.setitem(
            suites_mod.SUITES, "leaky", (suites_mod.SUITES["micro"][0],)
        )
        code = cli_main(
            ["bench", "run", "--suite", "leaky", "--label", "t",
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert "UNCLASSIFIED: 1 miss(es) have no cause" in capsys.readouterr().out
        payload = json.loads((tmp_path / "BENCH_leaky_t.json").read_text())
        assert payload["scenarios"]["wifi5-walk"]["miss_causes"]["unclassified"] == 1

    def test_bench_run_fails_on_failed_certification(
        self, monkeypatch, tmp_path, capsys
    ):
        cell = BenchCell("k", suites_mod.KernelSpec("fast.arc_run", repeats=1))
        monkeypatch.setitem(suites_mod.SUITES, "doomed", (cell,))
        monkeypatch.setitem(
            suites_mod.CERTIFIERS,
            "doomed",
            lambda payload: {
                "certified": False,
                "checks": {"always_fails": {"ok": False, "cells": 1}},
            },
        )
        code = cli_main(
            ["bench", "run", "--suite", "doomed", "--label", "t",
             "--out", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL  always_fails  cells=1" in out
        assert "NOT CERTIFIED" in out
        payload = json.loads((tmp_path / "BENCH_doomed_t.json").read_text())
        assert payload["certification"]["certified"] is False

    def test_bench_compare_exit_codes(
        self, micro_payload, degraded_payload, tmp_path, capsys
    ):
        base = write_bench(micro_payload, tmp_path)
        slow = write_bench(degraded_payload, tmp_path)
        assert cli_main(["bench", "compare", str(base), str(base)]) == 0
        code = cli_main(["bench", "compare", str(base), str(slow)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "server.infer" in out

    def test_bench_trend_writes_report(self, micro_payload, tmp_path, capsys):
        write_bench(micro_payload, tmp_path)
        code = cli_main(
            ["bench", "trend", "--results-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "README.md").exists()
        assert "wifi5-walk" in (tmp_path / "README.md").read_text()
