"""Tests for the experiment CLI."""

import json

import pytest

from repro.eval import ExperimentSpec, run_experiment
from repro.eval.cli import build_parser, main
from repro.eval.reporting import SCHEMA_VERSION, result_payload, save_json


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "edgeis" in out and "wifi_5ghz" in out and "kitti_like" in out

    def test_run_requires_known_system(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--system", "magic"])

    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["run"])
        assert args.system == "edgeis"
        assert args.network == "wifi_5ghz"
        assert args.frames == 150


class TestRunCommand:
    def test_run_small_and_save(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "--system",
                "edge_best_effort",
                "--dataset",
                "davis_like",
                "--frames",
                "30",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["system"] == "edge_best_effort"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert 0.0 <= payload["mean_iou"] <= 1.0
        out = capsys.readouterr().out
        assert "mean_iou" in out


class TestServeCommand:
    def test_serve_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.clients == 8
        assert args.policy == "edf"
        assert args.frames == 60

    def test_unknown_policy_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--policy", "lottery"])

    def test_serve_small_fleet_and_save(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.json"
        code = main(
            [
                "serve",
                "--clients",
                "2",
                "--frames",
                "15",
                "--warmup",
                "5",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["sessions"]) == 2
        assert payload["serve"]["policy"] == "edf"
        assert 0.0 <= payload["slo"]["miss_rate"] <= 1.0
        out = capsys.readouterr().out
        assert "fleet SLO" in out and "serve:" in out


class TestResultPayloadSchema:
    def test_round_trips_through_json(self, tmp_path):
        """The shared payload (used by `repro run`, `repro compare` and
        the BENCH `result` sections) must survive save/load unchanged."""
        result = run_experiment(
            ExperimentSpec(
                system="edge_best_effort",
                dataset="davis_like",
                num_frames=20,
                resolution=(160, 120),
                warmup_frames=5,
            )
        ).result
        payload = result_payload(result)
        assert payload["schema_version"] == SCHEMA_VERSION
        # CDF keys are strings so the payload is losslessly JSON-clean.
        assert all(isinstance(key, str) for key in payload["iou_cdf"])
        path = tmp_path / "payload.json"
        save_json(path, payload)
        assert json.loads(path.read_text()) == payload


class TestCleanErrors:
    """Every verb exits with code 2 and a one-line ``error: ...`` message
    on unknown suite/scenario/fault names — never a traceback."""

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.err

    def test_serve_unknown_scenario(self, capsys):
        code, err = self._run(["serve", "--scenario", "meteor-strike"], capsys)
        assert code == 2
        assert err.startswith("error: unknown scenario 'meteor-strike'")
        assert "crowded-occlusion" in err
        assert err.count("\n") == 1  # exactly one line

    def test_serve_unknown_fault(self, capsys):
        code, err = self._run(["serve", "--fault", "cosmic-ray"], capsys)
        assert code == 2
        assert err.startswith("error: unknown fault program 'cosmic-ray'")
        assert "replica-outage" in err
        assert err.count("\n") == 1

    def test_bench_run_unknown_suite(self, capsys):
        code, err = self._run(["bench", "run", "--suite", "bogus"], capsys)
        assert code == 2
        assert err.startswith("error: unknown suite 'bogus'")
        assert "available:" in err and "Traceback" not in err

    def test_bench_compare_missing_artifact(self, capsys):
        code, err = self._run(
            ["bench", "compare", "/no/such/old.json", "/no/such/new.json"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "/no/such/old.json" in err
        assert err.count("\n") == 1

    def test_report_verb_is_gone(self, capsys):
        # ``bench run`` writes the ops report; there is no verb for it.
        with pytest.raises(SystemExit):
            main(["report", "--suite", "fleet"])
        assert "invalid choice: 'report'" in capsys.readouterr().err


class TestListFlags:
    """Every long-running verb exposes ``--list``: a deterministic
    enumeration of the names it accepts, exit 0, nothing executed."""

    def _run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_serve_list(self, capsys):
        code, out = self._run(["serve", "--list"], capsys)
        assert code == 0
        assert "systems:" in out
        assert "qos:" in out and "premium" in out

    def test_bench_run_list(self, capsys):
        code, out = self._run(["bench", "run", "--list"], capsys)
        assert code == 0
        assert "tenants:" in out and "mixed-saturate" in out
        assert "chaos:" in out

    def test_chaos_list(self, capsys):
        code, out = self._run(["list"], capsys)
        assert code == 0
        assert "scenarios:" in out and "faults:" in out
        code, out = self._run(["bench", "run", "--list"], capsys)
        assert code == 0
        assert "chaos:" in out and "wifi-to-lte+replica-outage" in out

    def test_why_list(self, capsys):
        code, out = self._run(["why", "--list"], capsys)
        assert code == 0
        assert "suites:" in out

    def test_tenants_list(self, capsys):
        code, out = self._run(["list"], capsys)
        assert code == 0
        assert "qos:" in out
        assert "tenants:" in out and "gold:premium:2" in out
        code, out = self._run(["bench", "run", "--list"], capsys)
        assert code == 0
        assert "tenants:" in out and "autoscale-burst" in out

    def test_list_output_is_deterministic(self, capsys):
        first = self._run(["bench", "run", "--list"], capsys)
        second = self._run(["bench", "run", "--list"], capsys)
        assert first == second


class TestTenantServe:
    def test_serve_with_tenants_prints_per_tenant_rows(self, capsys):
        code = main(
            [
                "serve",
                "--clients", "4",
                "--frames", "12",
                "--warmup", "4",
                "--tenants", "gold:premium:2,bulk:best_effort:2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gold" in out and "bulk" in out

    def test_serve_tenant_count_mismatch_is_clean_error(self, capsys):
        code = main(
            [
                "serve",
                "--clients", "3",
                "--frames", "8",
                "--tenants", "gold:premium:2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
