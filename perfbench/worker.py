"""One benchmark process: run a workload through the program's public
entry points (``run_experiment`` / ``run_fleet``) and print the raw
measurements as one JSON line.

``run.py`` starts it in a fresh interpreter with BLAS/OpenMP pinned to
one thread and a fixed hash seed, so every measurement starts from the
same process state.  Modes:

* ``setup``   build the workload and stop as soon as its first frame is
  ready (one set-up sample);
* ``measure`` run whole untraced episodes until ``--seconds`` of frame
  loop were timed, and compute the simulated outcomes of the first;
* ``trace``   run one untraced and one traced episode of the same seed:
  per-layer host self-time, simulated per-stage segments, and the
  tracing overhead.

An episode is the workload run once at its fixed size, so its
simulated outcomes depend on the seed alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager

import helpers

FPS = 30.0
DEADLINE_MS = 1000.0 / FPS
BASELINE_SYSTEMS = ("edge_best_effort", "eaar", "edgeduet")
FLEET_TENANTS = "bulk:best_effort:4,gold:premium:2"

WORKLOADS = ("edgeis-solo", "baselines-shared-video", "fleet-mixed-qos")


def workload_specs(name: str, seed: int, trace: bool) -> list:
    """The entry-point specs of one episode; the program sees only these."""
    from repro.eval.experiments import ExperimentSpec, FleetSpec

    if name == "edgeis-solo":
        # The paper's Fig 9/11 cell: edgeIS on xiph_like over WiFi 5 GHz.
        return [
            ExperimentSpec(
                system="edgeis",
                dataset="xiph_like",
                network="wifi_5ghz",
                num_frames=300,
                resolution=(320, 240),
                server_device="jetson_tx2",
                seed=seed,
                trace=trace,
            )
        ]
    if name == "baselines-shared-video":
        # The comparison systems on one video, as bench_fig9_overall runs them.
        return [
            ExperimentSpec(
                system=system,
                dataset="xiph_like",
                network="wifi_5ghz",
                num_frames=120,
                resolution=(320, 240),
                server_device="jetson_tx2",
                seed=seed,
                trace=trace,
            )
            for system in BASELINE_SYSTEMS
        ]
    if name == "fleet-mixed-qos":
        # Long enough that the premium sessions leave cold start (~frame 100).
        return [
            FleetSpec(
                num_clients=6,
                system="baseline+mamt",
                dataset="xiph_like",
                network="wifi_5ghz",
                num_frames=150,
                resolution=(160, 120),
                server_device="jetson_tx2",
                policy="edf",
                queue_limit=3,
                deadline_horizon=72.0,
                batch_window_ms=20.0,
                max_batch_size=3,
                tenants=FLEET_TENANTS,
                seed=seed,
                trace=trace,
            )
        ]
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# Instrumentation from outside the program
# ----------------------------------------------------------------------
class FirstFrameReady(Exception):
    """Raised by a set-up probe the moment the frame loop would start."""


class RunWindow:
    """Times each frame loop (``Pipeline.run`` / ``MultiClientPipeline.run``).

    Its entry is the moment the first frame is ready: everything before
    it inside the entry point is set-up.
    """

    def __init__(self, stop_at_first_frame: bool = False):
        self.stop_at_first_frame = stop_at_first_frame
        self.first_ready: float | None = None
        self.loops: list[float] = []

    def wrap(self, fn):
        def run(*args, **kwargs):
            start = time.monotonic()
            if self.first_ready is None:
                self.first_ready = start
            if self.stop_at_first_frame:
                raise FirstFrameReady
            try:
                return fn(*args, **kwargs)
            finally:
                self.loops.append(time.monotonic() - start)

        return run


class Accumulators:
    """Counts and simulated values read off wrapped calls' results."""

    def __init__(self):
        self.vo_tracking = 0
        self.keyframes = 0
        self.transfer_masks = 0
        self.infer_ms: list[float] = []
        self.uplink_ms: list[float] = []

    def vo_result(self, result) -> None:
        self.vo_tracking += bool(result.is_tracking)

    def keyframe(self, promoted) -> None:
        self.keyframes += bool(promoted)

    def transfer(self, predictions) -> None:
        self.transfer_masks += len(predictions)

    def infer(self, result) -> None:
        self.infer_ms.append(result.total_ms)

    def uplink(self, ms) -> None:
        self.uplink_ms.append(ms)


def _layer_hooks(acc: Accumulators) -> list[tuple]:
    """``(timer key, owner, attribute, call counter, on_return)`` for every
    public call into a layer.  Module functions are patched wherever a
    ``repro`` module imported them by name."""
    from repro.baselines import systems as baselines
    from repro.core.system import EdgeISSystem
    from repro.encoding import mask_codec, tiles
    from repro.encoding.cfrs import ContentRoiSelector
    from repro.features import matcher
    from repro.model.maskrcnn import SimulatedSegmentationModel
    from repro.network.channel import Channel
    from repro.obs.trace import Tracer
    from repro.runtime.multi import MultiClientPipeline
    from repro.runtime.pipeline import EdgeServer, Pipeline
    from repro.serve import FleetScheduler
    from repro.synthetic.renderer import Renderer
    from repro.synthetic.world import SyntheticVideo
    from repro.tenancy.autoscaler import Autoscaler
    from repro.tenancy.fairness import FairQueue
    from repro.tenancy.metering import TenantMeter
    from repro.transfer.mask_transfer import MaskTransferEngine
    from repro.vo.frontend import FastBriefFrontend, OracleFrontend
    from repro.vo.odometry import VisualOdometry

    hooks = [
        ("synthetic", SyntheticVideo, "frame_at", "synthetic.frames_requested", None),
        ("synthetic", Renderer, "render", "synthetic.renders", None),
        ("features", OracleFrontend, "observe", None, None),
        ("features", FastBriefFrontend, "observe", None, None),
        ("features.match", matcher, "match_descriptors", None, None),
        ("vo", VisualOdometry, "process_frame", "vo.frames", acc.vo_result),
        ("vo", VisualOdometry, "apply_segmentation", None, None),
        ("vo", VisualOdometry, "promote_keyframe", None, acc.keyframe),
        ("transfer", MaskTransferEngine, "predict", None, acc.transfer),
        ("encoding", tiles, "encode_frame", None, None),
        ("encoding", mask_codec, "encoded_size_bytes", None, None),
        ("model", SimulatedSegmentationModel, "infer", "model.calls", acc.infer),
        ("network", Channel, "uplink_ms", None, acc.uplink),
        ("network", Channel, "downlink_ms", None, None),
        ("serve", EdgeServer, "submit", "serve.bare_submits", None),
        ("serve", EdgeServer, "submit_batch", None, None),
        ("serve", FleetScheduler, "submit", None, None),
        ("serve", FleetScheduler, "advance", None, None),
        ("tenancy", FairQueue, "vstart", None, None),
        ("tenancy", FairQueue, "commit", None, None),
        ("tenancy", TenantMeter, "add", None, None),
        ("tenancy", Autoscaler, "tick", None, None),
        ("runtime", Pipeline, "run", None, None),
        ("runtime", MultiClientPipeline, "run", None, None),
        ("obs", Tracer, "span", None, None),
        ("obs", Tracer, "add_span", None, None),
        ("obs", Tracer, "event", None, None),
    ]
    for method in ("decide", "new_area_boxes", "encode", "encode_uniform"):
        hooks.append(("encoding", ContentRoiSelector, method, None, None))
    # Client systems: their own logic between the layers they call.
    hooks.append(("core", EdgeISSystem, "process_frame", None, None))
    hooks.append(("core", EdgeISSystem, "receive_result", "deliveries", None))
    for cls in (
        baselines._TrackedOffloadClient,
        baselines.BestEffortEdgeClient,
        baselines.MobileOnlyClient,
    ):
        hooks.append(("baselines", cls, "process_frame", None, None))
        hooks.append(("baselines", cls, "receive_result", "deliveries", None))
    return hooks


def _delivery_hooks() -> list[tuple]:
    """Only the delivery counters: what an untraced episode needs."""
    return [hook for hook in _layer_hooks(Accumulators()) if hook[3] == "deliveries"]


def _owners(owner, attr):
    """Objects whose ``attr`` must be replaced to intercept the call."""
    if isinstance(owner, type):
        return [owner]
    original = getattr(owner, attr)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "repro" and getattr(module, attr, None) is original
    ]


@contextmanager
def instrumented(timer: helpers.SelfTimer, hooks, window: RunWindow):
    """Install the wrappers for the duration of one episode."""
    from repro.runtime.multi import MultiClientPipeline
    from repro.runtime.pipeline import Pipeline

    saved = []
    try:
        for layer, owner, attr, counter, on_return in hooks:
            for target in _owners(owner, attr):
                original = target.__dict__[attr]
                saved.append((target, attr, original))
                setattr(
                    target,
                    attr,
                    timer.wrap(layer, original, name=counter, on_return=on_return),
                )
        for cls in (Pipeline, MultiClientPipeline):
            current = cls.__dict__["run"]
            saved.append((cls, "run", current))
            cls.run = window.wrap(current)
        yield
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
class Episode:
    """One run of a workload at its fixed size."""

    def __init__(self, name: str, seed: int, trace: bool):
        from repro.eval.experiments import ExperimentSpec, run_experiment, run_fleet

        self.timer = helpers.SelfTimer()
        self.acc = Accumulators()
        self.window = RunWindow()
        hooks = _layer_hooks(self.acc) if trace else _delivery_hooks()
        self.outcomes = []
        self.wall_s = 0.0
        with instrumented(self.timer, hooks, self.window):
            for spec in workload_specs(name, seed, trace):
                entry = run_experiment if isinstance(spec, ExperimentSpec) else run_fleet
                start = time.perf_counter()
                self.outcomes.append(entry(spec))
                self.wall_s += time.perf_counter() - start
        self.results = [
            result
            for outcome in self.outcomes
            for result in (
                [outcome.result] if hasattr(outcome, "result") else outcome.results
            )
        ]
        self.scheduler = getattr(self.outcomes[0], "scheduler", None)
        self.stats = self.scheduler.stats() if self.scheduler is not None else None
        self.tenancy = getattr(self.outcomes[0], "tenancy", None)
        self.num_frames = self.outcomes[0].spec.num_frames
        self.client_frames = sum(len(result.frames) for result in self.results)
        self.loop_s = sum(self.window.loops)
        self.sent = sum(result.offload_count for result in self.results)
        self.delivered = self.timer.calls["deliveries"]
        self.failures = (
            helpers.check_frames(self.results, self.num_frames)
            + helpers.check_offloads(self.sent, self.delivered, self.stats)
            + (helpers.check_scheduler(self.stats) if self.stats is not None else [])
        )
        self.digest = helpers.sim_digest(self.results, self.offload_outcomes())

    def offload_outcomes(self) -> dict:
        outcomes = {"sent": self.sent, "delivered": self.delivered}
        if self.stats is not None:
            for key in helpers.REQUEST_COUNTERS + ("left_in_queue",):
                outcomes[key] = self.stats[key]
        return outcomes

    def frames_per_s(self) -> float:
        return self.client_frames / self.loop_s

    def measured(self, sessions=None):
        """Frames after each run's warm-up, optionally of some sessions."""
        return [
            frame
            for index, result in enumerate(self.results)
            if sessions is None or index in sessions
            for frame in result.frames
            if frame.frame_index >= result.warmup_frames
        ]

    def ious(self, sessions=None) -> list[float]:
        return [
            iou for frame in self.measured(sessions) for iou in frame.object_ious.values()
        ]

    def miss_rate(self, sessions=None) -> float:
        frames = self.measured(sessions)
        return sum(frame.latency_ms > DEADLINE_MS for frame in frames) / len(frames)

    def sim_metrics(self) -> tuple[dict, list[str]]:
        """The simulated end-to-end outcomes, and tail-rule failures."""
        frames = self.measured()
        latencies = [frame.latency_ms for frame in frames]
        ious = self.ious()
        failures = []
        tail = helpers.highest_percentile(len(latencies))
        if tail is None or tail < 95.0:
            failures.append(
                f"{len(latencies)} measured frames leave under "
                f"{helpers.MIN_SAMPLES_BEYOND} samples beyond p95"
            )
        metrics = {
            "sim_latency_p50_ms": helpers.percentile(latencies, 50.0),
            "sim_latency_p95_ms": helpers.percentile(latencies, 95.0),
            "deadline_miss_rate": self.miss_rate(),
            "mean_iou": sum(ious) / len(ious) if ious else 0.0,
            "masked_frame_share": sum(frame.num_rendered > 0 for frame in frames)
            / len(frames),
            "offload_success_rate": self.delivered / self.sent if self.sent else 0.0,
        }
        return metrics, failures


def layer_metrics(traced: Episode, untraced: Episode) -> tuple[dict, list[str]]:
    """Per-layer numbers of a traced episode (host ms per client-frame)."""
    from repro.obs.lineage import build_lineages

    frames = traced.client_frames
    timer, acc = traced.timer, traced.acc
    lineages = [
        lineage
        for outcome in traced.outcomes
        for lineage in build_lineages(outcome.tracer).values()
    ]
    failures = helpers.check_telescoping(lineages)

    def host_ms(key):
        return 1000.0 * timer.self_s.get(key, 0.0) / frames

    def segment_p50(name):
        values = [
            lineage.segments[name] for lineage in lineages if name in lineage.segments
        ]
        return helpers.percentile(values, 50.0) if values else 0.0

    calls = timer.calls
    metrics = {
        "synthetic.host_ms": host_ms("synthetic"),
        "synthetic.frames_requested": calls["synthetic.frames_requested"],
        "synthetic.renders": calls["synthetic.renders"],
        "features.host_ms": host_ms("features"),
        "features.match_host_ms": host_ms("features.match"),
        "vo.host_ms": host_ms("vo"),
        "vo.tracking_share": acc.vo_tracking / max(calls["vo.frames"], 1),
        "vo.keyframes": acc.keyframes,
        "transfer.host_ms": host_ms("transfer"),
        "transfer.masks": acc.transfer_masks,
        "encoding.host_ms": host_ms("encoding"),
        "encoding.offloads_sent": traced.sent,
        "model.host_ms": host_ms("model"),
        "model.calls": calls["model.calls"],
        "model.sim_infer_ms_mean": (
            sum(acc.infer_ms) / len(acc.infer_ms) if acc.infer_ms else 0.0
        ),
        "network.host_ms": host_ms("network"),
        "network.sim_uplink_ms_mean": (
            sum(acc.uplink_ms) / len(acc.uplink_ms) if acc.uplink_ms else 0.0
        ),
        "serve.host_ms": host_ms("serve"),
        "tenancy.host_ms": host_ms("tenancy"),
        "core.host_ms": host_ms("core"),
        "baselines.host_ms": host_ms("baselines"),
        "runtime.host_ms": host_ms("runtime"),
        "runtime.sim_device_compute_ms_p50": segment_p50("device_compute"),
        "runtime.sim_integration_ms_p50": segment_p50("integration"),
        "runtime.latency_samples": len(traced.measured()),
        "obs.host_ms": host_ms("obs"),
        "obs.trace_overhead_pct": 100.0
        * (1.0 - traced.frames_per_s() / untraced.frames_per_s()),
    }
    bytes_up = sum(result.bytes_up for result in traced.results)
    metrics["network.bytes_up"] = bytes_up
    metrics["network.bytes_down"] = sum(result.bytes_down for result in traced.results)
    metrics["encoding.bytes_per_offload"] = bytes_up / traced.sent if traced.sent else 0.0

    # The fleet's simulated busy time is pool-wide (the same on every
    # session's result); bare-server runs each own their server.
    if traced.scheduler is not None:
        busy = traced.scheduler.busy_ms_total
        stats = traced.stats
        serve = {key: stats[key] for key in helpers.REQUEST_COUNTERS}
        serve["rejected"] = (
            stats["rejected_queue_full"]
            + stats["rejected_infeasible"]
            + stats["rejected_no_replica"]
        )
        batch_size = stats["batching"]["mean_batch_size"]
    else:
        busy = sum(result.server_busy_ms for result in traced.results)
        submits = calls["serve.bare_submits"]
        serve = dict.fromkeys(helpers.REQUEST_COUNTERS, 0)
        serve.update(submitted=submits, admitted=submits, completed=submits, rejected=0)
        batch_size = 1.0
    metrics["model.sim_busy_ms"] = busy
    for key in ("submitted", "admitted", "rejected", "shed", "displaced", "completed"):
        metrics[f"serve.{key}"] = serve[key]
    metrics["serve.batch_size_mean"] = batch_size
    metrics["serve.sim_busy_ms_per_completion"] = (
        busy / serve["completed"] if serve["completed"] else 0.0
    )
    metrics["serve.sim_queue_wait_ms_p50"] = segment_p50("queue_wait")
    metrics["serve.sim_batch_wait_ms_p50"] = segment_p50("batch_wait")

    # Tenancy outcomes by QoS class (0 where the workload has no tenants).
    premium, best_effort = set(), set()
    if traced.tenancy is not None:
        for index in range(traced.tenancy.num_sessions):
            qos = traced.tenancy.qos_of(index).name
            (premium if qos == "premium" else best_effort).add(index)
    premium_ious = traced.ious(premium) if premium else []
    metrics["tenancy.premium_deadline_miss_rate"] = (
        traced.miss_rate(premium) if premium else 0.0
    )
    metrics["tenancy.best_effort_deadline_miss_rate"] = (
        traced.miss_rate(best_effort) if best_effort else 0.0
    )
    metrics["tenancy.premium_mean_iou"] = (
        sum(premium_ious) / len(premium_ious) if premium_ious else 0.0
    )

    # Every host millisecond of the traced entry-point calls: the layers'
    # self-times plus what no wrapped call covers (mostly construction).
    wall_ms = 1000.0 * traced.wall_s / frames
    unattributed = wall_ms - 1000.0 * timer.total_s() / frames
    metrics["traced.wall_host_ms"] = wall_ms
    metrics["unattributed.host_ms"] = unattributed
    if unattributed < 0.0:
        failures.append(f"layer self-times exceed the traced wall time by {-unattributed} ms")
    return metrics, failures


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        from repro.eval.experiments import ExperimentSpec, run_experiment, run_fleet

        window = RunWindow(stop_at_first_frame=True)
        spec = workload_specs(args.workload, args.seed, trace=False)[0]
        entry = run_experiment if isinstance(spec, ExperimentSpec) else run_fleet
        with instrumented(helpers.SelfTimer(), [], window):
            try:
                entry(spec)
            except FirstFrameReady:
                pass
        print(json.dumps({"ready_monotonic": window.first_ready}))
        return 0

    first = Episode(args.workload, args.seed, trace=False)
    episodes = [first]
    report = {"ready_monotonic": first.window.first_ready}
    if args.mode == "measure":
        while sum(episode.loop_s for episode in episodes) < args.seconds:
            episodes.append(Episode(args.workload, args.seed, trace=False))
        sim, tail_failures = first.sim_metrics()
        first.failures += tail_failures
        report["sim"] = sim
        report["latency_samples"] = len(first.measured())
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        traced = Episode(args.workload, args.seed, trace=True)
        episodes.append(traced)
        report["per_layer"], layer_failures = layer_metrics(traced, first)
        traced.failures += layer_failures
    for episode in episodes[1:]:
        if episode.digest != first.digest:
            episode.failures.append(
                f"sim_digest {episode.digest} differs from the first episode's {first.digest}"
            )
    report["episodes"] = [
        {
            "loop_s": episode.loop_s,
            "client_frames": episode.client_frames,
            "digest": episode.digest,
            "failures": episode.failures,
        }
        for episode in episodes
    ]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
