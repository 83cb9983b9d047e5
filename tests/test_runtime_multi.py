"""Tests for the multi-client shared-server pipeline."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.eval.experiments import build_client
from repro.model import SimulatedSegmentationModel
from repro.network import make_channel
from repro.obs.trace import Tracer
from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline, Pipeline
from repro.serve import fifo_scheduler
from repro.synthetic import make_dataset


def make_sessions(count, system="edge_best_effort", frames=40, resolution=(160, 120)):
    sessions = []
    for index in range(count):
        video = make_dataset(
            "xiph_like", num_frames=frames, resolution=resolution, seed=index
        )
        client = build_client(system, video, seed=index)
        channel = make_channel("wifi_5ghz", np.random.default_rng(index))
        sessions.append(ClientSession(video=video, client=client, channel=channel))
    return sessions


def make_server():
    return EdgeServer(
        SimulatedSegmentationModel("mask_rcnn_r101", "jetson_tx2", np.random.default_rng(9))
    )


def make_scheduler(num_sessions):
    return fifo_scheduler([make_server()], num_sessions)


def _run_one(system, fleet, frames=60, seed=3):
    """One traced single-client run, through Pipeline or a fleet of one."""
    video = make_dataset("xiph_like", num_frames=frames, resolution=(160, 120), seed=seed)
    tracer = Tracer()
    client = build_client(system, video, seed=seed, tracer=tracer)
    channel = make_channel("wifi_5ghz", np.random.default_rng(seed))
    if fleet:
        session = ClientSession(video=video, client=client, channel=channel)
        pipeline = MultiClientPipeline(
            [session], make_scheduler(1), warmup_frames=10, tracer=tracer
        )
        return pipeline.run()[0], tracer
    pipeline = Pipeline(
        video, client, channel, make_server(), warmup_frames=10, tracer=tracer
    )
    return pipeline.run(), tracer


class TestMultiClientPipeline:
    def test_requires_sessions(self):
        with pytest.raises(ValueError):
            MultiClientPipeline([], make_scheduler(1))

    def test_mismatched_lengths_rejected(self):
        sessions = make_sessions(1, frames=30) + make_sessions(1, frames=40)
        with pytest.raises(ValueError):
            MultiClientPipeline(sessions, make_scheduler(2))

    def test_mismatched_fps_rejected(self):
        sessions = make_sessions(2, frames=30)
        sessions[1].video.fps = 60.0
        with pytest.raises(ValueError, match="same fps"):
            MultiClientPipeline(sessions, make_scheduler(2))

    def test_per_session_results(self):
        sessions = make_sessions(2, frames=40)
        results = MultiClientPipeline(
            sessions, make_scheduler(2), warmup_frames=10
        ).run()
        assert len(results) == 2
        for result in results:
            assert len(result.frames) == 40
            assert result.offload_count >= 1

    def test_single_session_matches_pipeline_shape(self):
        # A fleet of one over a FIFO scheduler is the single-client run:
        # same frames, same trace (up to the indexed lane names), same
        # metrics, given the same seeds for every component.
        lane_map = {"client0": "client", "channel0": "channel"}

        def records(tracer):
            out = tracer.records()
            for record in out:
                record["lane"] = lane_map.get(record["lane"], record["lane"])
            return out

        for system in ("edgeis", "edge_best_effort", "eaar"):
            single, single_tracer = _run_one(system, fleet=False)
            multi, multi_tracer = _run_one(system, fleet=True)
            # edgeIS traces its own stages (VO, CFRS) on the unindexed lane.
            own_lanes = {"client"} if system == "edgeis" else set()
            shared = {"server0", "serve"}
            assert set(single_tracer.lanes()) == {"client", "channel"} | shared
            assert set(multi_tracer.lanes()) == {"client0", "channel0"} | shared | own_lanes
            assert single.offload_count > 0
            assert single.to_dict(include_frames=True) == multi.to_dict(
                include_frames=True
            )
            assert single_tracer.metrics.snapshot() == multi_tracer.metrics.snapshot()
            assert records(single_tracer) == records(multi_tracer)

    def test_contention_serializes_server(self):
        # Four clients saturate the shared server far more than one.
        solo = MultiClientPipeline(make_sessions(1, frames=40), make_scheduler(1)).run()
        fleet = MultiClientPipeline(make_sessions(4, frames=40), make_scheduler(4)).run()
        assert fleet[0].server_utilization() > solo[0].server_utilization()

    def test_shared_field_study_runs(self):
        from repro.eval.field_study import run_field_study

        study = run_field_study(num_frames=40, resolution=(160, 120), shared_server=True)
        assert len(study.per_device_iou) == 8


class TestBenchmarkHookContract:
    def test_each_pipeline_class_runs_the_loop_once(self, monkeypatch):
        """perfbench/worker.py:259 wraps ``cls.__dict__["run"]`` of both
        pipeline classes to time the frame loop.  Each class must define
        ``run`` in its own body (an inherited one is a KeyError there),
        and a single-client run must not pass through
        ``MultiClientPipeline.run`` (the loop would be timed twice)."""
        assert "run" in Pipeline.__dict__
        assert "run" in MultiClientPipeline.__dict__
        calls = []
        fleet_run = MultiClientPipeline.run

        def counting_run(self):
            calls.append(self)
            return fleet_run(self)

        monkeypatch.setattr(MultiClientPipeline, "run", counting_run)
        result, _ = _run_one("edge_best_effort", fleet=False, frames=5)
        assert len(result.frames) == 5
        assert calls == []

    def test_every_layer_hook_resolves(self, monkeypatch):
        """``--mode trace`` of perfbench/worker.py replaces
        ``target.__dict__[attr]`` for every hook of ``_layer_hooks``: the
        owner itself for a class, every ``repro`` module that imported a
        function by name.  A renamed or inherited method, or a function
        no module imports, is a KeyError or a silently missing layer."""
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        spec = importlib.util.spec_from_file_location(
            "perfbench_worker", perfbench / "worker.py"
        )
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        hooks = worker._layer_hooks(worker.Accumulators())
        assert hooks
        for _layer, owner, attr, _counter, _on_return in hooks:
            targets = worker._owners(owner, attr)
            assert targets, f"{owner!r}.{attr} resolves to no repro module"
            for target in targets:
                assert attr in target.__dict__, f"{target!r} has no own {attr}"
