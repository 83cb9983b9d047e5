"""Extension study — edge-server contention as the fleet grows.

The paper's field deployment shares one Jetson AGX Xavier among eight
devices (Section VI-G) but reports only aggregate accuracy.  This bench
quantifies what sharing costs: the same edgeIS client run in fleets of
1/2/4/8 against a single Xavier.  CIIA is what makes sharing viable at
all — its ~2x inference cut roughly doubles the fleet a server sustains.
"""

from __future__ import annotations

import numpy as np

from repro.eval import ExperimentSpec, Table
from repro.eval.experiments import _make_video, build_client
from repro.model import SimulatedSegmentationModel
from repro.network import make_channel
from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline
from repro.serve import fifo_scheduler

FLEET_SIZES = (1, 2, 4, 8)


def _run_fleet(size: int, num_frames: int, seed: int, use_ciia: bool = True):
    from repro.core import SystemConfig
    from repro.core.system import EdgeISSystem

    sessions = []
    for device in range(size):
        spec = ExperimentSpec(
            system="edgeis",
            dataset="oilfield",
            num_frames=num_frames,
            seed=seed + device,
        )
        video = _make_video(spec)
        config = SystemConfig(seed=seed + device, use_ciia=use_ciia, use_mamt=True, use_cfrs=True)
        client = EdgeISSystem(
            video.camera,
            (video.camera.height, video.camera.width),
            config=config,
            world=video.world,
        )
        channel = make_channel("wifi_5ghz", np.random.default_rng(seed + 500 + device))
        sessions.append(ClientSession(video=video, client=client, channel=channel))
    server = EdgeServer(
        SimulatedSegmentationModel(
            "mask_rcnn_r101", "jetson_xavier", np.random.default_rng(seed + 999)
        )
    )
    results = MultiClientPipeline(sessions, fifo_scheduler([server], size)).run()
    ious = np.concatenate([r.per_object_ious() for r in results])
    return {
        "mean_iou": float(ious.mean()) if len(ious) else 0.0,
        "false_rate_75": float((ious < 0.75).mean()) if len(ious) else 1.0,
        "server_util": results[0].server_utilization(),
    }


def run_shared_edge(num_frames: int = 120, seed: int = 0, quiet: bool = False) -> dict:
    summary = {size: _run_fleet(size, num_frames, seed) for size in FLEET_SIZES}
    # The ablation row: fleet of 8 without CIIA shows why acceleration
    # is what makes the shared deployment feasible.
    summary["8_no_ciia"] = _run_fleet(8, num_frames, seed, use_ciia=False)

    if not quiet:
        table = Table(
            "Shared edge node — fleet size vs accuracy (oilfield, Xavier)",
            ["fleet", "mean IoU", "false@0.75", "server util"],
        )
        for size in FLEET_SIZES:
            row = summary[size]
            table.add_row(size, row["mean_iou"], row["false_rate_75"], row["server_util"])
        row = summary["8_no_ciia"]
        table.add_row("8 (no CIIA)", row["mean_iou"], row["false_rate_75"], row["server_util"])
        table.print()
    return summary


def bench_shared_edge(benchmark):
    summary = benchmark.pedantic(
        run_shared_edge, kwargs={"num_frames": 70, "quiet": True}, rounds=1, iterations=1
    )
    # Contention grows with fleet size; accuracy degrades gracefully.
    assert summary[1]["server_util"] <= summary[8]["server_util"] + 0.05
    assert summary[1]["mean_iou"] >= summary[8]["mean_iou"] - 0.05
    # CIIA keeps the 8-device fleet usable.
    assert summary[8]["mean_iou"] >= summary["8_no_ciia"]["mean_iou"] - 0.03


if __name__ == "__main__":
    run_shared_edge()
