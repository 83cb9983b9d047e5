"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload edgeis-solo --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh ``worker.py`` process started with
BLAS/OpenMP pinned to one thread, ``PYTHONHASHSEED`` fixed and bytecode
caching off.  With ``--trace 0`` the run takes set-up samples (each a
fresh process timed from its start to its first frame ready) and then
measures untraced episodes; it prints the end-to-end metrics.  With ``--trace 1`` it runs
an untraced and a traced episode and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the host, the load average, each episode and the
``sim_digest`` of the simulated outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 2  # set-up probes per run (the measuring process adds one)
RUN_LIMIT_S = 170.0  # every worker must end inside this, from our start

END_TO_END_UNITS = {
    "frames_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_ms": "sim_ms",
    "sim_latency_p95_ms": "sim_ms",
    "deadline_miss_rate": "ratio",
    "mean_iou": "iou",
    "masked_frame_share": "ratio",
    "offload_success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "synthetic.host_ms": "ms",
    "synthetic.frames_requested": "count",
    "synthetic.renders": "count",
    "features.host_ms": "ms",
    "features.match_host_ms": "ms",
    "vo.host_ms": "ms",
    "vo.tracking_share": "ratio",
    "vo.keyframes": "count",
    "transfer.host_ms": "ms",
    "transfer.masks": "count",
    "encoding.host_ms": "ms",
    "encoding.offloads_sent": "count",
    "encoding.bytes_per_offload": "B",
    "model.host_ms": "ms",
    "model.calls": "count",
    "model.sim_infer_ms_mean": "sim_ms",
    "model.sim_busy_ms": "sim_ms",
    "network.host_ms": "ms",
    "network.bytes_up": "B",
    "network.bytes_down": "B",
    "network.sim_uplink_ms_mean": "sim_ms",
    "serve.host_ms": "ms",
    "serve.submitted": "count",
    "serve.admitted": "count",
    "serve.rejected": "count",
    "serve.shed": "count",
    "serve.displaced": "count",
    "serve.completed": "count",
    "serve.batch_size_mean": "count",
    "serve.sim_busy_ms_per_completion": "sim_ms",
    "serve.sim_queue_wait_ms_p50": "sim_ms",
    "serve.sim_batch_wait_ms_p50": "sim_ms",
    "tenancy.host_ms": "ms",
    "tenancy.premium_deadline_miss_rate": "ratio",
    "tenancy.best_effort_deadline_miss_rate": "ratio",
    "tenancy.premium_mean_iou": "iou",
    "core.host_ms": "ms",
    "baselines.host_ms": "ms",
    "runtime.host_ms": "ms",
    "runtime.sim_device_compute_ms_p50": "sim_ms",
    "runtime.sim_integration_ms_p50": "sim_ms",
    "runtime.latency_samples": "count",
    "obs.host_ms": "ms",
    "obs.trace_overhead_pct": "%",
    "unattributed.host_ms": "ms",
    "traced.wall_host_ms": "ms",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        # Every process compiles the program from source, whether or not
        # an earlier run left bytecode behind, so set-up samples agree.
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(SRC),
    )
    return env


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
    }


def run_worker(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (its start time, its report)."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            env=worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker ran past the time limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} worker printed nothing")
    return started, json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from worker import WORKLOADS

    parser = argparse.ArgumentParser(description="edgeIS simulator benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro").is_dir():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    host = host_record()
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                started, probe = run_worker(args, "setup", deadline)
                setup_samples.append(probe["ready_monotonic"] - started)
        started, report = run_worker(args, "measure" if not args.trace else "trace", deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(report["ready_monotonic"] - started)
    host["loadavg_end"] = [round(value, 2) for value in os.getloadavg()]
    print("host " + json.dumps(host, sort_keys=True))

    episodes = report["episodes"]
    attempted = sum(episode["client_frames"] for episode in episodes)
    failed = sum(episode["client_frames"] for episode in episodes if episode["failures"])
    for index, episode in enumerate(episodes):
        print(
            f"episode {index}: {episode['client_frames']} client-frames in "
            f"{episode['loop_s']:.3f} s, sim_digest {episode['digest']}"
        )
        for failure in episode["failures"]:
            print(f"  check failed: {failure}")
    print(f"sim_digest {args.workload} seed={args.seed} {episodes[0]['digest']}")

    if args.trace:
        metrics = {
            name: metric(report["per_layer"][name], unit)
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        loop_s = sum(episode["loop_s"] for episode in episodes)
        print(
            f"setup samples {[round(s, 4) for s in setup_samples]}; "
            f"latency samples {report['latency_samples']}"
        )
        values = dict(report["sim"])
        values["frames_per_s"] = attempted / loop_s
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = report["peak_rss_mb"]
        metrics = {
            name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
