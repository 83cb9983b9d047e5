"""Extension study — edge-server contention as the fleet grows.

The paper's field deployment shares one Jetson AGX Xavier among eight
devices (Section VI-G) but reports only aggregate accuracy.  This bench
quantifies what sharing costs: the same edgeIS client run in fleets of
1/2/4/8 against a single Xavier.  CIIA is what makes sharing viable at
all — its ~2x inference cut roughly doubles the fleet a server sustains.
"""

from __future__ import annotations

import numpy as np

from repro.eval import Table
from repro.eval.experiments import FIFO_FLEET, FleetSpec, run_fleet

FLEET_SIZES = (1, 2, 4, 8)


def _run_fleet(size: int, num_frames: int, seed: int, use_ciia: bool = True):
    results = run_fleet(
        FleetSpec(
            **FIFO_FLEET,
            num_clients=size,
            # build_client reads "baseline+mamt+cfrs" as edgeIS without CIIA.
            system="edgeis" if use_ciia else "baseline+mamt+cfrs",
            dataset="oilfield",
            num_frames=num_frames,
            resolution=(320, 240),
            server_device="jetson_xavier",
            warmup_frames=45,
            seed=seed,
        )
    ).results
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
