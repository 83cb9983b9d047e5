"""Tests for the ops report: payload shape, deterministic markdown/HTML
rendering, file output, and the ``trace --format`` flag."""

import pytest

from repro.eval.cli import main as cli_main
from repro.eval.reporting import SCHEMA_VERSION
from repro.eval.suites import run_suite, suite_cells
from repro.obs import (
    build_report,
    build_why,
    render_report_html,
    render_report_markdown,
)
from repro.obs.report import report_filename, sparkline, write_report


@pytest.fixture(scope="module")
def micro_report(micro_run):
    return build_report(*micro_run)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_floor(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_ramp_spans_levels(self):
        line = sparkline(list(range(9)))
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_long_series_bucketed_to_width(self):
        assert len(sparkline(list(range(500)), width=48)) == 48


class TestReportPayload:
    def test_structure(self, micro_report):
        assert micro_report["schema_version"] == SCHEMA_VERSION
        assert micro_report["kind"] == "report"
        assert micro_report["suite"] == "micro"
        scenario = micro_report["scenarios"]["wifi5-walk"]
        # Superset of the BENCH section: budget with burn series,
        # timeline, sessions, anomalies, duration.
        assert "burn_series" in scenario["budget"]
        assert scenario["timeline"]["series"]
        assert "pipeline.frame_latency_ewma_ms" in scenario["timeline"]["series"]
        assert isinstance(scenario["sessions"], list)
        assert isinstance(scenario["anomalies"], list)
        assert scenario["duration_ms"] > 0.0

    def test_anomalies_sorted_by_severity(self, micro_report):
        for scenario in micro_report["scenarios"].values():
            severities = [a.get("severity", 0.0) for a in scenario["anomalies"]]
            assert severities == sorted(severities, reverse=True)

    def test_kernel_cells_left_out(self, micro_report):
        # micro = 1 pipeline cell + the kernel cells; only the former
        # has a run to report on.
        assert list(micro_report["scenarios"]) == ["wifi5-walk"]


class TestRenderDeterminism:
    def test_two_runs_render_byte_identical(self, micro_run, micro_report):
        # The one re-simulation of these renderers' tests: a second run
        # of the traced cells renders the report and the miss console
        # byte for byte.
        again = run_suite("micro", "t", cells=suite_cells("micro", traced=True))
        report = build_report(*again)
        assert render_report_markdown(micro_report) == render_report_markdown(
            report
        )
        assert render_report_html(micro_report) == render_report_html(report)
        assert build_why(*micro_run)["markdown"] == build_why(*again)["markdown"]

    def test_rendering_leaves_the_run_untouched(self, micro_run):
        _, observed = micro_run
        events = len(observed["wifi5-walk"]["tracer"].events)
        build_report(*micro_run)
        build_why(*micro_run)
        assert len(observed["wifi5-walk"]["tracer"].events) == events


class TestMarkdownRendering:
    def test_sections_present(self, micro_report):
        text = render_report_markdown(micro_report)
        assert text.startswith("# Ops report — micro [t]")
        assert "## Scenario `wifi5-walk`" in text
        assert "### SLO & error budget" in text
        assert "### Burn rate" in text
        assert "### Timelines" in text
        assert "### Top anomalies" in text
        assert "`pipeline.frame_latency_ewma_ms`" in text


class TestHtmlRendering:
    def test_self_contained_document(self, micro_report):
        html = render_report_html(micro_report)
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html  # inline CSS, no external assets
        assert "<svg" in html  # sparklines and burn chart
        assert "href=" not in html
        assert "wifi5-walk" in html


class TestWriteReport:
    def test_writes_selected_formats(self, micro_report, tmp_path):
        paths = write_report(micro_report, tmp_path, formats=("md", "html"))
        assert [p.name for p in paths] == [
            "REPORT_micro_t.md",
            "REPORT_micro_t.html",
        ]
        assert paths[0].read_text().startswith("# Ops report")

    def test_unknown_format_raises(self, micro_report, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(micro_report, tmp_path, formats=("pdf",))

    def test_filename(self):
        assert report_filename("fleet", "ci", "html") == "REPORT_fleet_ci.html"


class TestCliFormatConvention:
    def test_trace_cli_honors_format_subset(self, tmp_path, capsys):
        out_dir = tmp_path / "trace"
        code = cli_main(
            [
                "trace",
                "fig9",
                "--frames",
                "60",
                "--out",
                str(out_dir),
                "--format",
                "table",
            ]
        )
        assert code == 0
        assert (out_dir / "stage_latency.txt").exists()
        assert not (out_dir / "trace.jsonl").exists()
        assert not (out_dir / "trace_chrome.json").exists()

    def test_rejects_formats_the_verb_cannot_render(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["trace", "fig9", "--format", "html"])
