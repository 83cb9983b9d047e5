"""Tests for the eval harness helpers (reporting, specs, field study glue)."""

import json

import numpy as np
import pytest

from repro.eval import (
    ABLATION_NAMES,
    SYSTEM_NAMES,
    ExperimentSpec,
    Table,
    format_cdf,
    run_experiment,
    save_json,
)
from repro.eval.field_study import FieldStudyResult, _attention_weight, _fleet


class TestTable:
    def test_render_alignment(self):
        table = Table("demo", ["name", "value"])
        table.add_row("alpha", 1.0)
        table.add_row("b", 12.345)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in text and "12.345" in text
        # All data lines share the same width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_empty_table_renders(self):
        table = Table("empty", ["a", "b"])
        assert "empty" in table.render()

    def test_as_dict_roundtrip(self):
        table = Table("t", ["x"], rows=[[1], [2]])
        payload = table.as_dict()
        assert payload["rows"] == [[1], [2]]


class TestFormatCdf:
    def test_values(self):
        ious = np.array([0.2, 0.6, 0.8, 0.9])
        cdf = format_cdf(ious, points=(0.5, 0.75, 0.95))
        assert cdf[0.5] == 0.25
        assert cdf[0.75] == 0.5
        assert cdf[0.95] == 1.0

    def test_empty(self):
        cdf = format_cdf(np.zeros(0))
        assert all(v == 0.0 for v in cdf.values())

    def test_monotone(self):
        rng = np.random.default_rng(0)
        cdf = format_cdf(rng.uniform(0, 1, 200))
        values = [cdf[k] for k in sorted(cdf)]
        assert values == sorted(values)


class TestSaveJson:
    def test_numpy_types_serializable(self, tmp_path):
        path = tmp_path / "out" / "data.json"
        save_json(
            path,
            {"a": np.float64(1.5), "b": np.int32(3), "c": np.arange(3)},
        )
        loaded = json.loads(path.read_text())
        assert loaded == {"a": 1.5, "b": 3, "c": [0, 1, 2]}


class TestSpecs:
    def test_system_lists(self):
        assert "edgeis" in SYSTEM_NAMES
        assert "baseline" in ABLATION_NAMES
        assert ABLATION_NAMES[-1] == "edgeis"

    def test_complexity_spec_runs(self):
        spec = ExperimentSpec(
            system="edge_best_effort",
            complexity="easy",
            num_frames=30,
            resolution=(160, 120),
            warmup_frames=5,
        )
        outcome = run_experiment(spec)
        assert len(outcome.result.frames) == 30

    def test_motion_grade_spec(self):
        spec = ExperimentSpec(
            system="edge_best_effort",
            dataset="xiph_like",
            motion_grade="jog",
            num_frames=20,
            resolution=(160, 120),
            warmup_frames=5,
        )
        outcome = run_experiment(spec)
        assert outcome.result.duration_ms == pytest.approx(20 / 30 * 1000, rel=0.01)

    def test_unknown_network_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown channel"):
            ExperimentSpec("edgeis", network="carrier_pigeon")

    def test_serving_knobs_are_fleet_only(self):
        # A single-client run is always one session against one FIFO
        # replica: its spec has no serving field to set.
        with pytest.raises(TypeError):
            ExperimentSpec("edgeis", policy="edf")


class TestSingleClientRun:
    """``run_experiment`` is the one-session FIFO fleet: it must equal a
    hand-built :class:`Pipeline` under the single-client seeding (channel
    ``seed + 17``, model ``seed + 29``)."""

    @pytest.mark.parametrize("system", ["edgeis", "eaar"])
    def test_equals_hand_built_pipeline(self, system):
        from repro.eval import build_client
        from repro.model import SimulatedSegmentationModel
        from repro.model.costs import DEVICES
        from repro.network import make_channel
        from repro.obs.trace import Tracer
        from repro.runtime import EdgeServer, Pipeline
        from repro.synthetic import make_dataset

        spec = ExperimentSpec(
            system,
            num_frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            seed=3,
            trace=True,
        )
        outcome = run_experiment(spec)

        video = make_dataset(
            spec.dataset, num_frames=60, resolution=(160, 120), seed=spec.seed
        )
        tracer = Tracer()
        client = build_client(system, video, seed=spec.seed, tracer=tracer)
        channel = make_channel(spec.network, np.random.default_rng(spec.seed + 17))
        model = SimulatedSegmentationModel(
            "mask_rcnn_r101",
            DEVICES[spec.server_device],
            np.random.default_rng(spec.seed + 29),
            metrics=tracer.metrics,
        )
        server = EdgeServer(model, tracer=tracer)
        result = Pipeline(
            video, client, channel, server, warmup_frames=10, tracer=tracer
        ).run()

        assert outcome.result.offload_count > 0
        assert outcome.result.to_dict(include_frames=True) == result.to_dict(
            include_frames=True
        )
        assert outcome.tracer.records() == tracer.records()
        assert outcome.tracer.metrics.snapshot() == tracer.metrics.snapshot()


class TestFieldStudyPieces:
    def test_fleet_composition(self):
        fleet = _fleet()
        assert len(fleet) == 8
        assert sum(1 for d in fleet if d.network == "wifi_5ghz") == 5
        assert sum(1 for d in fleet if d.network == "lte") == 3

    def test_attention_weight_monotone_in_area(self):
        image_area = 320 * 240
        small = _attention_weight(200, image_area)
        large = _attention_weight(8000, image_area)
        assert 0.0 < small < large <= 1.0

    def test_result_aggregation(self):
        result = FieldStudyResult(
            per_device_iou={0: 0.9, 1: 0.8},
            per_device_false_rate={0: 0.05, 1: 0.15},
            rendered_accuracy=0.92,
            rendered_false_rate=0.02,
        )
        assert result.mean_iou == pytest.approx(0.85)
        assert result.mean_false_rate == pytest.approx(0.10)
