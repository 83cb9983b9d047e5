"""Tests for the pipeline runtime, the edge server and the resource model."""

import numpy as np
import pytest

from repro.eval import ExperimentSpec, build_client, run_experiment
from repro.image import InstanceMask
from repro.model import SimulatedSegmentationModel
from repro.network import make_channel
from repro.runtime import (
    DEVICE_POWER,
    ClientFrameOutput,
    EdgeServer,
    OffloadRequest,
    Pipeline,
    ResourceMonitor,
)
from repro.synthetic import make_dataset


class _NullClient:
    """Client that renders nothing and never offloads."""

    name = "null"

    def process_frame(self, frame, truth, now_ms):
        return ClientFrameOutput(masks=[], compute_ms=5.0)

    def receive_result(self, frame_index, masks, now_ms):
        return 0.0

    def memory_bytes(self):
        return 0


class _SlowClient(_NullClient):
    """Takes 3 frame intervals per frame: most frames rendered stale."""

    name = "slow"

    def process_frame(self, frame, truth, now_ms):
        return ClientFrameOutput(masks=[], compute_ms=100.0)


class _OffloadOnceClient(_NullClient):
    name = "offload_once"

    def __init__(self):
        self.received = []
        self._sent = False

    def process_frame(self, frame, truth, now_ms):
        offload = None
        if not self._sent:
            self._sent = True
            offload = OffloadRequest(
                frame_index=frame.index, payload_bytes=20_000, encode_ms=5.0
            )
        return ClientFrameOutput(masks=[], compute_ms=5.0, offload=offload)

    def receive_result(self, frame_index, masks, now_ms):
        self.received.append((frame_index, len(masks), now_ms))
        return 2.0


def make_pipeline(client, frames=60, dataset="xiph_like"):
    video = make_dataset(dataset, num_frames=frames, resolution=(160, 120))
    channel = make_channel("wifi_5ghz", np.random.default_rng(0))
    server = EdgeServer(
        SimulatedSegmentationModel("mask_rcnn_r101", "jetson_tx2", np.random.default_rng(1))
    )
    return Pipeline(video, client, channel, server, warmup_frames=10)


class TestPipelineMechanics:
    def test_null_client_scores_zero_iou(self):
        result = make_pipeline(_NullClient()).run()
        assert result.mean_iou() == 0.0
        assert result.false_rate(0.75) == 1.0
        assert result.offload_count == 0

    def test_slow_client_shows_stale_frames(self):
        result = make_pipeline(_SlowClient()).run()
        processed = [f for f in result.frames if f.client_processed]
        stale = [f for f in result.frames if not f.client_processed]
        # 100 ms compute at 33 ms frames: roughly 1 in 3 processed.
        assert len(stale) > len(processed)
        # Stale frames report waiting latency > frame interval.
        assert all(f.latency_ms > 33 for f in stale)

    def test_offload_round_trip(self):
        client = _OffloadOnceClient()
        result = make_pipeline(client).run()
        assert result.offload_count == 1
        assert len(client.received) == 1
        frame_index, num_masks, at_ms = client.received[0]
        assert frame_index == 0
        assert num_masks >= 1  # the scene has objects
        # Arrival after uplink + ~400ms inference + downlink.
        assert at_ms > 300
        assert result.bytes_up == 20_000
        assert result.bytes_down > 0

    def test_server_serializes_requests(self):
        server = EdgeServer(
            SimulatedSegmentationModel("mask_rcnn_r101", rng=np.random.default_rng(0))
        )
        video = make_dataset("xiph_like", num_frames=1, resolution=(160, 120))
        _, truth = video.frame_at(0)
        request = OffloadRequest(frame_index=0, payload_bytes=0, encode_ms=0.0)
        entry = (request, truth.masks, (120, 160), 0.0, None)
        done1, _, _ = server.submit([entry], 0.0, 0.8)
        done2, _, _ = server.submit([entry], 0.0, 0.8)
        assert done2 >= done1 * 2 * 0.8  # second waits for the first

    def test_warmup_excluded_from_aggregates(self):
        result = make_pipeline(_NullClient(), frames=20).run()
        measured = result._measured()
        assert all(f.frame_index >= 10 for f in measured)

    def test_run_result_cdf(self):
        result = make_pipeline(_NullClient(), frames=30).run()
        grid, cdf = result.iou_cdf()
        assert cdf[-1] == 1.0  # all IoUs <= 1
        assert (np.diff(cdf) >= 0).all()


class TestResourceMonitor:
    def test_cpu_and_energy_accumulate(self):
        monitor = ResourceMonitor(DEVICE_POWER["iphone_11"], fps=30)
        for index in range(30):
            monitor.sample(index, compute_ms=25.0, memory_bytes=10**8, bytes_sent=1000)
        assert monitor.trace.cpu_percent_mean() == pytest.approx(75.0, abs=1.0)
        assert monitor.trace.energy_joules > 0
        assert monitor.extrapolate_battery_percent(10) > 0

    def test_memory_growth_estimate(self):
        monitor = ResourceMonitor(DEVICE_POWER["iphone_11"], fps=30)
        for index in range(60):
            memory = 10**8 + index * 70_000  # ~2.1 MB/s at 30 fps
            monitor.sample(index, 10.0, memory, 0)
        growth = monitor.trace.memory_growth_mb_per_s()
        assert growth == pytest.approx(2.0, abs=0.3)

    def test_monitored_experiment(self):
        spec = ExperimentSpec(
            system="edgeis",
            dataset="davis_like",
            num_frames=60,
            resolution=(160, 120),
            monitor_resources=True,
        )
        outcome = run_experiment(spec)
        assert outcome.resources is not None
        trace = outcome.resources.trace
        assert len(trace.times_s) > 40
        assert 0 < trace.cpu_percent_mean() <= 100


class TestBuildClient:
    @pytest.mark.parametrize(
        "name",
        ["edgeis", "eaar", "edgeduet", "edge_best_effort", "mobile_only", "baseline+mamt"],
    )
    def test_factory(self, name):
        video = make_dataset("davis_like", num_frames=1, resolution=(160, 120))
        client = build_client(name, video)
        assert hasattr(client, "process_frame")

    def test_unknown_raises(self):
        video = make_dataset("davis_like", num_frames=1, resolution=(160, 120))
        with pytest.raises(ValueError):
            build_client("clairvoyant", video)

    def test_ablation_flags(self):
        video = make_dataset("davis_like", num_frames=1, resolution=(160, 120))
        client = build_client("baseline+ciia", video)
        assert client.config.use_ciia
        assert not client.config.use_mamt
        assert not client.config.use_cfrs
        assert client.name == "baseline+ciia"


class TestRunResultSerialization:
    def test_to_dict_roundtrips_through_json(self):
        import json

        result = make_pipeline(_NullClient(), frames=15).run()
        payload = result.to_dict(include_frames=True)
        restored = json.loads(json.dumps(payload))
        assert restored["system"] == "null"
        assert restored["num_frames"] == 15
        assert len(restored["frames"]) == 15
        assert 0.0 <= restored["mean_iou"] <= 1.0

    def test_summary_only_by_default(self):
        result = make_pipeline(_NullClient(), frames=10).run()
        assert "frames" not in result.to_dict()

    def test_to_dict_frame_entries_match_metrics(self):
        result = make_pipeline(_OffloadOnceClient(), frames=20).run()
        payload = result.to_dict(include_frames=True)
        assert len(payload["frames"]) == len(result.frames)
        for entry, metric in zip(payload["frames"], result.frames):
            assert entry["frame"] == metric.frame_index
            assert entry["latency_ms"] == metric.latency_ms
            assert entry["processed"] == metric.client_processed
            assert entry["offloaded"] == metric.offloaded
            assert entry["ious"] == {
                str(k): v for k, v in metric.object_ious.items()
            }
        assert any(entry["offloaded"] for entry in payload["frames"])


class TestRunResultAggregates:
    def test_iou_cdf_custom_grid(self):
        result = make_pipeline(_NullClient(), frames=20).run()
        grid = np.array([0.0, 0.5, 1.0])
        out_grid, cdf = result.iou_cdf(grid)
        assert out_grid is grid
        # A null client scores IoU 0 on every object: full mass at 0.
        assert cdf.tolist() == [1.0, 1.0, 1.0]

    def test_iou_cdf_empty_measured_set(self):
        result = make_pipeline(_NullClient(), frames=20).run()
        result.frames = [f for f in result.frames if False]
        grid, cdf = result.iou_cdf()
        assert (cdf == 0.0).all()
        assert len(grid) == len(cdf)

    def test_server_utilization_bounds(self):
        idle = make_pipeline(_NullClient(), frames=20).run()
        assert idle.server_utilization() == 0.0
        busy = make_pipeline(_OffloadOnceClient(), frames=20).run()
        assert 0.0 < busy.server_utilization() <= 1.0
        # One ~400 ms inference inside a ~660 ms run.
        assert busy.server_utilization() == pytest.approx(
            busy.server_busy_ms / busy.duration_ms
        )


class TestEdgeServerAvailability:
    def test_is_free_at_tracks_free_at_ms(self):
        server = EdgeServer(
            SimulatedSegmentationModel("mask_rcnn_r101", rng=np.random.default_rng(0))
        )
        assert server.is_free_at(0.0)
        video = make_dataset("xiph_like", num_frames=1, resolution=(160, 120))
        _, truth = video.frame_at(0)
        request = OffloadRequest(frame_index=0, payload_bytes=0, encode_ms=0.0)
        entry = (request, truth.masks, (120, 160), 10.0, None)
        done, _, _ = server.submit([entry], 10.0, 0.8)
        assert server.free_at_ms == done
        assert not server.is_free_at(done - 1.0)
        assert server.is_free_at(done)
        assert server.is_free_at(done + 1.0)


class TestPipelineState:
    def test_pending_list_initialized_in_init(self):
        pipeline = make_pipeline(_NullClient(), frames=5)
        # No lazy hasattr-guarded creation: the queue exists before run().
        assert pipeline.session.pending == []
        pipeline.run()
        assert pipeline.session.pending == []  # drained by the end of the run
