"""Benchmark-suite runner: named scenarios -> versioned BENCH artifacts.

One suite is a tuple of :class:`BenchScenario` cells; running it executes
each cell through the experiment harness with tracing on and folds the
trace into a machine-readable ``BENCH_<suite>_<label>.json`` containing:

* the shared ``result_payload`` summary (IoU, false rates, latency,
  bytes) per scenario;
* per-stage latency percentiles — exact p50/p90/p99 from the full
  per-span sample sets, plus the fixed-bucket
  :meth:`Histogram.percentile` estimate so the two can be reconciled;
* the frame-deadline SLO report (:mod:`repro.obs.slo`): miss rate,
  worst streak, per-stage budget attribution;
* offload/bandwidth counters (CFRS decisions, server requests, bytes);
* an environment fingerprint.

Because the pipeline runs on a simulated clock, a suite is fully
deterministic: two runs on the same machine produce **byte-identical**
artifacts, so BENCH files can be committed, diffed and regression-gated
(see :mod:`repro.obs.compare` and ``repro bench compare``).

The ``degrade`` knob synthetically slows the edge server by the given
factor (device speed divided by it) — the self-test for the regression
gate: a degraded run must make ``repro bench compare`` fail, naming the
``server.infer`` stage.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .budget import DEFAULT_SLO_TARGET, evaluate_error_budget
from .critical import miss_causes
from .metrics import Histogram
from .slo import FRAME_BUDGET_MS, evaluate_slo, exact_percentile
from .trace import Tracer

__all__ = [
    "BenchScenario",
    "FleetBenchScenario",
    "KernelBenchScenario",
    "ChaosBenchScenario",
    "TenantBenchScenario",
    "SUITES",
    "environment_fingerprint",
    "stage_percentiles",
    "run_scenario",
    "run_scenario_observed",
    "run_suite",
    "bench_filename",
    "dump_bench",
    "strip_timing",
    "write_bench",
]


@dataclass(frozen=True)
class BenchScenario:
    """One named cell of a benchmark suite."""

    name: str
    dataset: str = "xiph_like"
    network: str = "wifi_5ghz"
    motion: str = "walk"
    system: str = "edgeis"
    frames: int = 150
    resolution: tuple[int, int] = (320, 240)
    warmup_frames: int = 45
    seed: int = 0
    server_device: str = "jetson_tx2"


@dataclass(frozen=True)
class FleetBenchScenario(BenchScenario):
    """A multi-client serving cell (run through ``repro.serve``).

    Subclasses :class:`BenchScenario` so fleet cells slot into the same
    suites/artifacts; the extra fields configure the fleet topology and
    the scheduler.  ``scheduler=False`` reproduces the paper's bare
    deployment — one FIFO server, no admission control — which is the
    regression baseline the deadline-aware cells are gated against.
    """

    num_clients: int = 8
    num_servers: int = 1
    scheduler: bool = True
    policy: str = "edf"
    queue_limit: int = 4
    deadline_horizon: float = 12.0
    degrade_enabled: bool = True
    degrade_failure_threshold: int = 2
    degrade_min_ms: float = 300.0
    # Cross-session batching (max_batch_size=1 disables it).
    batch_window_ms: float = 0.0
    max_batch_size: int = 1
    batch_alpha: float = 0.8


@dataclass(frozen=True)
class ChaosBenchScenario(FleetBenchScenario):
    """One adversarial-scenario x fault cell (:mod:`repro.chaos`).

    Runs a fleet cell where the scene comes from the chaos scenario
    registry and a named fault program injects serving faults on the
    simulated clock.  The certified claim: through degrade -> recover the
    cell's SLO error budget holds (``budget.consumed_fraction < 1.0`` at
    the cell's looser ``slo_target``).  The extra ``chaos`` payload
    section records the scenario, the fault program and the injector's
    event log (all sim-clock deterministic, so it is part of the
    byte-identity contract).
    """

    chaos_scenario: str = ""
    fault: str = "none"
    # Adversarial cells run against a looser per-cell miss-rate target
    # than DEFAULT_SLO_TARGET: the certification is "the fleet survives
    # inside an explicit, budgeted degradation", not "chaos is free".
    slo_target: float = 0.25


@dataclass(frozen=True)
class TenantBenchScenario(FleetBenchScenario):
    """One multi-tenant serving cell (:mod:`repro.tenancy`).

    A fleet cell whose sessions are partitioned into QoS-classed tenants
    (``tenants`` is the ``name:qos:count`` directory string).  The cell
    emits a ``tenants`` payload section — per-tenant meters, per-tenant
    SLO slices and the exact reconciliation against the fleet-level
    ``serve.*`` counters — plus an ``autoscale`` section when the
    queue-driven autoscaler is on.  The ``role`` marks how the suite
    certification consumes the cell: ``reference`` is the unsaturated
    premium-only baseline, ``certify`` is the saturated mixed-QoS cell
    whose premium miss rate is held against the reference.
    """

    tenants: str = ""
    role: str = "reference"  # "reference" | "certify" | "exhibit"
    # Certified ceiling for the premium tenant's frame-deadline miss
    # rate in the saturated cell.
    premium_slo_target: float = 0.15
    # Queue-driven autoscaling (repro.tenancy.Autoscaler).
    autoscale: bool = False
    autoscale_min: int = 1
    autoscale_max: int = 4
    autoscale_up_depth: float = 2.0
    autoscale_down_depth: float = 0.0
    autoscale_warmup_ms: float = 200.0
    autoscale_hold_ms: float = 1000.0
    autoscale_cooldown_ms: float = 100.0


@dataclass(frozen=True)
class KernelBenchScenario(BenchScenario):
    """One vectorized-kernel micro cell (:mod:`repro.obs.kernelbench`).

    Times a vectorized hot-path kernel against its scalar ``*_reference``
    implementation and emits a ``kernel`` payload section whose
    ``speedup_x`` is regression-gated.  Wall-clock fields are excluded
    from the artifact byte-identity contract via :func:`strip_timing`.
    """

    kernel: str = ""
    repeats: int = 7


# Suite sizing: ``micro`` is one small cell for unit tests and quick local
# sanity runs; ``smoke`` is the CI perf gate (two networks, ~30 s total);
# ``full`` mirrors the paper-figure trace scenarios; ``fleet`` is the
# 8-client saturation study for the serving layer (FIFO baseline vs
# deadline-aware policies — see docs/serving.md).
SUITES: dict[str, tuple[BenchScenario, ...]] = {
    "micro": (
        BenchScenario(
            "wifi5-walk", frames=80, resolution=(160, 120), warmup_frames=30
        ),
        # One cell per vectorized hot-path kernel (docs/performance.md):
        # speedup over the scalar reference is the gated metric.
        KernelBenchScenario("fast.arc_run", kernel="fast.arc_run"),
        KernelBenchScenario("rpn.assemble", kernel="rpn.assemble"),
        KernelBenchScenario("rpn.confidence", kernel="rpn.confidence"),
        KernelBenchScenario("ba.jacobian", kernel="ba.jacobian"),
        KernelBenchScenario("ba.ransac_score", kernel="ba.ransac_score"),
        KernelBenchScenario("ba.dlt_rows", kernel="ba.dlt_rows"),
        KernelBenchScenario(
            "transfer.contour_depth", kernel="transfer.contour_depth"
        ),
        KernelBenchScenario("serve.batch_latency", kernel="serve.batch_latency"),
        KernelBenchScenario("features.hamming", kernel="features.hamming"),
        KernelBenchScenario("vo.oracle_observe", kernel="vo.oracle_observe"),
        KernelBenchScenario("synthetic.raster", kernel="synthetic.raster"),
    ),
    "smoke": (
        BenchScenario(
            "wifi5-walk", frames=96, resolution=(224, 168), warmup_frames=24
        ),
        BenchScenario(
            "lte-walk",
            network="lte",
            frames=96,
            resolution=(224, 168),
            warmup_frames=24,
        ),
    ),
    "full": (
        BenchScenario("fig9-wifi5"),
        BenchScenario("fig10-wifi24", network="wifi_2.4ghz"),
        BenchScenario("fig10-lte", network="lte"),
        BenchScenario("fig12-jog", dataset="kitti_like", motion="jog"),
    ),
    "fleet": (
        # The paper's deployment: 8 clients, one FIFO server, no policy.
        FleetBenchScenario(
            "fifo-1srv",
            system="baseline+mamt",
            frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            scheduler=False,
        ),
        # Deadline-aware EDF with bounded queues + MAMT-fallback degrade:
        # must beat fifo-1srv on frame-deadline miss rate.
        FleetBenchScenario(
            "edf-1srv-degrade",
            system="baseline+mamt",
            frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            policy="edf",
            queue_limit=6,
            deadline_horizon=36.0,
        ),
        # EDF plus cross-session batching: one GPU amortizes its fixed
        # per-call cost over requests of different clients.  Same config
        # as edf-1srv-degrade apart from the batching window; spends less
        # server busy-ms per completed frame at an equal miss rate (see
        # tests/test_serve.py::TestBatchingFleet).
        FleetBenchScenario(
            "edf-1srv-batch",
            system="baseline+mamt",
            frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            policy="edf",
            queue_limit=6,
            deadline_horizon=36.0,
            batch_window_ms=20.0,
            max_batch_size=3,
        ),
        # Horizontal scaling: two replicas behind least-queue placement.
        FleetBenchScenario(
            "lq-2srv",
            system="baseline+mamt",
            frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            policy="least_queue",
            num_servers=2,
        ),
    ),
    # Multi-tenant serving (docs/tenancy.md): the certified claim is
    # that with a best-effort tenant saturating the fleet, the premium
    # tenant's frame-deadline miss rate stays within its SLO target and
    # within 2x of the unsaturated premium-only reference, while the
    # best-effort tenant absorbs every shed/displacement and all the
    # degradation growth.  The best-effort tenant deliberately owns the
    # *lowest* session indices (it submits first every tick and fills
    # the queues), so premium isolation is earned through weighted-fair
    # displacement, not submission-order luck.  deadline_horizon=72
    # keeps every request feasible (one service fits the deadline), so
    # queue contention — not infeasibility — is the binding constraint.
    "tenants": (
        # Unsaturated reference: the premium tenant alone on the fleet.
        TenantBenchScenario(
            "premium-only",
            system="baseline+mamt",
            frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            num_clients=2,
            tenants="gold:premium:2",
            role="reference",
            policy="edf",
            queue_limit=3,
            deadline_horizon=72.0,
        ),
        # The certified cell: the same premium tenant, plus a
        # best-effort tenant large enough to saturate the single
        # replica on its own.
        TenantBenchScenario(
            "mixed-saturate",
            system="baseline+mamt",
            frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            num_clients=10,
            tenants="bulk:best_effort:8,gold:premium:2",
            role="certify",
            policy="edf",
            queue_limit=3,
            deadline_horizon=72.0,
        ),
        # All three QoS classes under the same saturation with the
        # queue-driven autoscaler on: standby replicas absorb the burst
        # after the warm-up lag, and the replica-count series is part
        # of the byte-identity contract.
        TenantBenchScenario(
            "autoscale-burst",
            system="baseline+mamt",
            frames=60,
            resolution=(160, 120),
            warmup_frames=10,
            num_clients=10,
            tenants="bulk:best_effort:6,silver:standard:2,gold:premium:2",
            role="exhibit",
            policy="edf",
            queue_limit=3,
            deadline_horizon=72.0,
            autoscale=True,
            autoscale_min=1,
            autoscale_max=3,
            autoscale_up_depth=1.5,
            autoscale_warmup_ms=150.0,
            autoscale_hold_ms=800.0,
        ),
    ),
    # Adversarial scenario x fault matrix (docs/scenarios.md): every
    # registry scenario against every fault program, certified to hold
    # its SLO error budget through degrade -> recover.  The name lists
    # are hard-coded (not imported from repro.chaos) to keep this module
    # import-light; tests/test_chaos.py asserts they stay in sync with
    # the registries.
    "chaos": tuple(
        ChaosBenchScenario(
            f"{scenario_name}+{fault_name}",
            system="baseline+mamt",
            frames=56,
            resolution=(128, 96),
            warmup_frames=8,
            num_clients=4,
            num_servers=2,
            policy="edf",
            queue_limit=6,
            deadline_horizon=36.0,
            chaos_scenario=scenario_name,
            fault=fault_name,
        )
        for scenario_name in (
            "crowded-occlusion",
            "whip-pan",
            "transit",
            "lighting-flip",
            "wifi-to-lte",
        )
        for fault_name in ("none", "replica-outage", "straggler", "uplink-stall")
    ),
}


def environment_fingerprint() -> dict:
    """Where the suite ran — stable across runs on one machine, so it
    does not break byte-identical artifacts; differs across machines so
    cross-host comparisons are explainable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": np.__version__,
    }


def stage_percentiles(tracer: Tracer) -> dict[str, dict]:
    """``"lane/stage" -> latency stats`` over every span of the trace.

    p50/p90/p99 are exact (full sample set retained); ``hist_p90_ms`` /
    ``hist_p99_ms`` are the fixed-bucket :meth:`Histogram.percentile`
    estimates of the same distribution, kept alongside so drift between
    the streaming estimator and ground truth is itself observable.
    """
    samples: dict[str, list[float]] = {}
    for span in tracer.spans:
        samples.setdefault(f"{span.lane}/{span.name}", []).append(span.dur_ms)
    stages: dict[str, dict] = {}
    for key in sorted(samples):
        durations = samples[key]
        hist = Histogram(key)
        for value in durations:
            hist.observe(value)
        stages[key] = {
            "count": len(durations),
            "total_ms": round(sum(durations), 6),
            "mean_ms": round(sum(durations) / len(durations), 6),
            "p50_ms": round(exact_percentile(durations, 50.0), 6),
            "p90_ms": round(exact_percentile(durations, 90.0), 6),
            "p99_ms": round(exact_percentile(durations, 99.0), 6),
            "max_ms": round(max(durations), 6),
            "hist_p90_ms": round(hist.percentile(90.0), 6),
            "hist_p99_ms": round(hist.percentile(99.0), 6),
        }
    return stages


def _lean_budget(budget_report: dict) -> dict:
    """The artifact-embedded form: scalars only, no burn series."""
    return {k: v for k, v in budget_report.items() if k != "burn_series"}


def run_scenario(
    scenario: BenchScenario,
    degrade: float = 1.0,
    budget_ms: float = FRAME_BUDGET_MS,
    slo_target: float = DEFAULT_SLO_TARGET,
) -> dict:
    """Run one scenario traced and fold it into its JSON payload."""
    payload, _ = run_scenario_observed(
        scenario, degrade=degrade, budget_ms=budget_ms, slo_target=slo_target
    )
    return payload


def run_scenario_observed(
    scenario: BenchScenario,
    degrade: float = 1.0,
    budget_ms: float = FRAME_BUDGET_MS,
    slo_target: float = DEFAULT_SLO_TARGET,
    sample_interval_ms: float | None = None,
) -> tuple[dict, dict]:
    """Run one scenario and return ``(payload, observed)``.

    ``payload`` is the BENCH scenario section (including the lean
    error-budget scalars).  ``observed`` carries what the ops report
    needs beyond the artifact: the live tracer and timeline sampler,
    the full budget report (with its burn series) and the simulated run
    duration.
    """
    # Imported here: ``repro.eval`` imports the runtime, which imports
    # this package — a module-level import would be circular.
    from ..eval.experiments import ExperimentSpec, run_experiment
    from ..eval.reporting import result_payload

    if isinstance(scenario, KernelBenchScenario):
        return _run_kernel_scenario(scenario), {}
    if isinstance(scenario, FleetBenchScenario):
        return _run_fleet_scenario(
            scenario, degrade, budget_ms, slo_target, sample_interval_ms
        )

    spec = ExperimentSpec(
        system=scenario.system,
        dataset=scenario.dataset,
        network=scenario.network,
        num_frames=scenario.frames,
        resolution=scenario.resolution,
        motion_grade=scenario.motion,
        warmup_frames=scenario.warmup_frames,
        seed=scenario.seed,
        server_device=scenario.server_device,
        server_latency_scale=degrade,
        trace=True,
        sample_interval_ms=sample_interval_ms,
    )
    outcome = run_experiment(spec)
    tracer = outcome.tracer
    counters = tracer.metrics.snapshot()["counters"]
    budget_report = evaluate_error_budget(
        tracer,
        budget_ms=budget_ms,
        target=slo_target,
        warmup_frames=scenario.warmup_frames,
    )
    payload = {
        "spec": {
            "system": scenario.system,
            "dataset": scenario.dataset,
            "network": scenario.network,
            "motion": scenario.motion,
            "frames": scenario.frames,
            "resolution": list(scenario.resolution),
            "warmup_frames": scenario.warmup_frames,
            "seed": scenario.seed,
            "server_device": scenario.server_device,
            "degrade": degrade,
        },
        "result": result_payload(outcome.result),
        "stages": stage_percentiles(tracer),
        "slo": evaluate_slo(
            tracer, budget_ms=budget_ms, warmup_frames=scenario.warmup_frames
        ),
        "budget": _lean_budget(budget_report),
        "miss_causes": miss_causes(
            tracer, budget_ms, warmup_frames=scenario.warmup_frames
        ),
        "offload": {
            "offload_count": int(outcome.result.offload_count),
            "bytes_up": int(outcome.result.bytes_up),
            "bytes_down": int(outcome.result.bytes_down),
            "counters": dict(sorted(counters.items())),
        },
    }
    observed = {
        "tracer": tracer,
        "sampler": outcome.sampler,
        "budget": budget_report,
        "duration_ms": outcome.result.duration_ms,
    }
    return payload, observed


def _run_kernel_scenario(scenario: KernelBenchScenario) -> dict:
    """Run one vectorized-kernel micro cell into its payload section."""
    from .kernelbench import run_kernel

    return {
        "spec": {
            "kernel": scenario.kernel,
            "repeats": scenario.repeats,
            "seed": scenario.seed,
        },
        "kernel": run_kernel(
            scenario.kernel, seed=scenario.seed, repeats=scenario.repeats
        ),
    }


def _run_fleet_scenario(
    scenario: FleetBenchScenario,
    degrade: float = 1.0,
    budget_ms: float = FRAME_BUDGET_MS,
    slo_target: float = DEFAULT_SLO_TARGET,
    sample_interval_ms: float | None = None,
) -> tuple[dict, dict]:
    """Run one fleet cell and fold it into the BENCH scenario payload.

    The ``result`` section keeps the single-run key names (so the same
    compare policies gate it): quality/latency keys are means over the
    fleet's sessions, byte/offload counters are fleet totals, and
    ``server_utilization`` is normalized by the number of replicas.  The
    extra ``serve`` section carries the scheduler's admit/shed/degrade
    accounting (informational — not gated).
    """
    from ..eval.experiments import FleetSpec, run_fleet

    is_chaos = isinstance(scenario, ChaosBenchScenario)
    is_tenant = isinstance(scenario, TenantBenchScenario)
    tenant_kwargs = {}
    if is_tenant:
        tenant_kwargs = dict(
            tenants=scenario.tenants,
            autoscale=scenario.autoscale,
            autoscale_min=scenario.autoscale_min,
            autoscale_max=scenario.autoscale_max,
            autoscale_up_depth=scenario.autoscale_up_depth,
            autoscale_down_depth=scenario.autoscale_down_depth,
            autoscale_warmup_ms=scenario.autoscale_warmup_ms,
            autoscale_hold_ms=scenario.autoscale_hold_ms,
            autoscale_cooldown_ms=scenario.autoscale_cooldown_ms,
        )
    network = scenario.network
    if is_chaos:
        from ..chaos import make_scenario

        # Chaos cells certify against their own (looser) miss-rate
        # target; the suite-level target still governs plain cells.
        slo_target = scenario.slo_target
        # The scenario registry owns the channel choice.
        network = make_scenario(scenario.chaos_scenario).network
    spec = FleetSpec(
        num_clients=scenario.num_clients,
        system=scenario.system,
        dataset=scenario.dataset,
        network=scenario.network,
        num_frames=scenario.frames,
        resolution=scenario.resolution,
        motion_grade=scenario.motion,
        server_device=scenario.server_device,
        server_latency_scale=degrade,
        scheduler=scenario.scheduler,
        num_servers=scenario.num_servers,
        policy=scenario.policy,
        queue_limit=scenario.queue_limit,
        deadline_horizon=scenario.deadline_horizon,
        degrade=scenario.degrade_enabled,
        degrade_failure_threshold=scenario.degrade_failure_threshold,
        degrade_min_ms=scenario.degrade_min_ms,
        batch_window_ms=scenario.batch_window_ms,
        max_batch_size=scenario.max_batch_size,
        batch_alpha=scenario.batch_alpha,
        warmup_frames=scenario.warmup_frames,
        seed=scenario.seed,
        trace=True,
        sample_interval_ms=sample_interval_ms,
        scenario=scenario.chaos_scenario if is_chaos else None,
        faults=scenario.fault if is_chaos else "none",
        **tenant_kwargs,
    )
    outcome = run_fleet(spec)
    tracer = outcome.tracer
    results = outcome.results
    counters = tracer.metrics.snapshot()["counters"]
    budget_report = evaluate_error_budget(
        tracer,
        budget_ms=budget_ms,
        target=slo_target,
        warmup_frames=scenario.warmup_frames,
    )
    count = len(results)
    offload_count = sum(r.offload_count for r in results)
    bytes_up = sum(r.bytes_up for r in results)
    bytes_down = sum(r.bytes_down for r in results)
    busy_ms = results[0].server_busy_ms if results else 0.0
    duration = outcome.duration_ms
    if scenario.scheduler:
        serve = {"scheduler": True, **outcome.scheduler.stats(duration)}
    else:
        serve = {"scheduler": False, "policy": "fifo", "num_servers": 1}
    payload = {
        "spec": {
            "system": scenario.system,
            "dataset": scenario.dataset,
            "network": network,
            "motion": scenario.motion,
            "frames": scenario.frames,
            "resolution": list(scenario.resolution),
            "warmup_frames": scenario.warmup_frames,
            "seed": scenario.seed,
            "server_device": scenario.server_device,
            "degrade": degrade,
            "num_clients": scenario.num_clients,
            "num_servers": scenario.num_servers,
            "scheduler": scenario.scheduler,
            "policy": scenario.policy if scenario.scheduler else "fifo",
            "queue_limit": scenario.queue_limit,
            "deadline_horizon": scenario.deadline_horizon,
            "degrade_enabled": scenario.degrade_enabled,
            "batch_window_ms": scenario.batch_window_ms,
            "max_batch_size": scenario.max_batch_size,
        },
        "result": {
            "schema_version": _result_schema_version(),
            "system": results[0].system,
            "num_clients": count,
            "mean_iou": float(sum(r.mean_iou() for r in results) / count),
            "false_rate_75": float(
                sum(r.false_rate(0.75) for r in results) / count
            ),
            "false_rate_50": float(
                sum(r.false_rate(0.5) for r in results) / count
            ),
            "mean_latency_ms": float(
                sum(r.mean_latency_ms() for r in results) / count
            ),
            "offload_count": int(offload_count),
            "bytes_up": int(bytes_up),
            "bytes_down": int(bytes_down),
            "server_utilization": float(
                busy_ms / (duration * scenario.num_servers) if duration else 0.0
            ),
        },
        "stages": stage_percentiles(tracer),
        "slo": evaluate_slo(
            tracer, budget_ms=budget_ms, warmup_frames=scenario.warmup_frames
        ),
        "budget": _lean_budget(budget_report),
        "miss_causes": miss_causes(
            tracer, budget_ms, warmup_frames=scenario.warmup_frames
        ),
        "offload": {
            "offload_count": int(offload_count),
            "bytes_up": int(bytes_up),
            "bytes_down": int(bytes_down),
            "counters": dict(sorted(counters.items())),
        },
        "serve": serve,
    }
    if is_chaos:
        # Chaos-only keys live in their own section (and two spec keys)
        # so plain fleet cells stay byte-identical to their pre-chaos
        # artifacts.
        payload["spec"]["chaos_scenario"] = scenario.chaos_scenario
        payload["spec"]["fault"] = scenario.fault
        payload["chaos"] = {
            "scenario": scenario.chaos_scenario,
            "fault": scenario.fault,
            "slo_target": round(scenario.slo_target, 6),
            "events": list(outcome.chaos.log) if outcome.chaos is not None else [],
            "certified": bool(
                budget_report["consumed_fraction"] < 1.0
            ),
        }
    if is_tenant:
        # Tenant-only keys live in their own sections (plus spec keys)
        # so plain fleet cells keep their pre-tenancy shape.
        payload["spec"]["tenants"] = scenario.tenants
        payload["spec"]["role"] = scenario.role
        payload["spec"]["premium_slo_target"] = round(
            scenario.premium_slo_target, 6
        )
        payload["spec"]["autoscale"] = scenario.autoscale
        payload["tenants"] = _tenant_section(scenario, outcome, budget_ms)
        if outcome.autoscaler is not None:
            payload["autoscale"] = outcome.autoscaler.stats()
    observed = {
        "tracer": tracer,
        "sampler": outcome.sampler,
        "budget": budget_report,
        "duration_ms": duration,
    }
    return payload, observed


def _tenant_section(
    scenario: TenantBenchScenario, outcome, budget_ms: float
) -> dict:
    """The per-tenant slice of one tenant cell's payload.

    Carries the tenant directory, one entry per tenant (meter counters,
    session assignment, degrade-event count and the tenant's own SLO
    evaluated over just its sessions), the fair-queue state, and the
    reconciliation proof: per-tenant request counters must sum to the
    fleet-level ``serve.*`` counts *exactly*, and metered server
    milliseconds must match the pool's busy time to float tolerance.
    """
    from ..tenancy.metering import REQUEST_COUNTERS

    scheduler = outcome.scheduler
    directory = scheduler.tenancy
    tracer = outcome.tracer
    meter_stats = scheduler.meter.stats()

    degrade_by_session: dict[int, int] = {}
    for event in tracer.events:
        if event.name == "serve.degrade":
            session = int(event.attrs.get("session", -1))
            degrade_by_session[session] = degrade_by_session.get(session, 0) + 1

    per_tenant = {}
    for name in directory.tenants:
        sessions = directory.sessions_of(name)
        entry = dict(meter_stats[name])
        entry["sessions"] = list(sessions)
        entry["degrade_events"] = sum(
            degrade_by_session.get(s, 0) for s in sessions
        )
        entry["slo"] = evaluate_slo(
            tracer,
            budget_ms=budget_ms,
            warmup_frames=scenario.warmup_frames,
            sessions=set(sessions),
        )
        per_tenant[name] = entry

    totals = scheduler.meter.totals()
    requests = {}
    requests_exact = True
    for key in REQUEST_COUNTERS:
        tenant_sum = int(totals[key])
        fleet = int(scheduler.counts[key])
        requests[key] = {"tenant_sum": tenant_sum, "fleet": fleet}
        requests_exact = requests_exact and tenant_sum == fleet
    server_ms_tenants = sum(
        scheduler.meter.counts[name]["server_ms"] for name in directory.tenants
    )
    server_ms_pool = sum(
        replica.server.busy_ms_total for replica in scheduler.pool.replicas
    )
    server_ms_delta = abs(server_ms_tenants - server_ms_pool)
    return {
        "directory": directory.describe(),
        "per_tenant": per_tenant,
        "fair": scheduler.fair.stats(),
        "reconciliation": {
            "requests_exact": bool(requests_exact),
            "requests": requests,
            "server_ms_tenants": round(server_ms_tenants, 6),
            "server_ms_pool": round(server_ms_pool, 6),
            "server_ms_delta": round(server_ms_delta, 6),
            "server_ms_ok": bool(server_ms_delta <= 1e-6),
        },
    }


def _result_schema_version() -> int:
    from ..eval.reporting import SCHEMA_VERSION

    return SCHEMA_VERSION


def _certify_tenants(payload: dict) -> dict:
    """Suite-level certification of the multi-tenant isolation claim.

    Checks, against the ``certify`` (saturated-mix) cell and the
    ``reference`` (unsaturated premium-only) cell:

    * the premium tenant's miss rate stays within its SLO target;
    * it also stays within 2x of the unsaturated reference (an absolute
      floor keeps a 0.0-reference from demanding perfection);
    * no premium request is ever shed or displaced;
    * saturation adds no premium degradation: premium's degrade-event
      count under saturation stays at or below the reference cell's;
    * the best-effort tenant absorbs every shed/displacement and all
      non-premium degradation;
    * per-tenant metering reconciles exactly in every cell, and the
      autoscale exhibit actually scaled up.
    """
    floor = 0.02  # absolute slack when the reference miss rate is ~0
    scenarios = payload["scenarios"]
    reference = next(
        (c for c in scenarios.values() if c["spec"].get("role") == "reference"),
        None,
    )
    certify = next(
        (c for c in scenarios.values() if c["spec"].get("role") == "certify"),
        None,
    )
    if reference is None or certify is None:
        return {"certified": False, "error": "missing reference/certify cell"}

    def names_by_qos(cell: dict, qos: str) -> list[str]:
        return [
            t["name"]
            for t in cell["tenants"]["directory"]
            if t["qos"] == qos
        ]

    def tenant_sum(cell: dict, names: list[str], key: str) -> float:
        return sum(cell["tenants"]["per_tenant"][n][key] for n in names)

    def premium_miss(cell: dict) -> float:
        rates = [
            cell["tenants"]["per_tenant"][n]["slo"]["miss_rate"]
            for n in names_by_qos(cell, "premium")
        ]
        return max(rates) if rates else 0.0

    premium = names_by_qos(certify, "premium")
    best_effort = names_by_qos(certify, "best_effort")
    miss = premium_miss(certify)
    ref_miss = premium_miss(reference)
    target = float(certify["spec"]["premium_slo_target"])
    limit = max(2.0 * ref_miss, floor)

    fleet_shed = int(certify["serve"]["shed"])
    fleet_displaced = int(certify["serve"]["displaced"])
    fleet_degrades = int(
        tenant_sum(certify, list(certify["tenants"]["per_tenant"]), "degrade_events")
    )
    premium_degrades = int(tenant_sum(certify, premium, "degrade_events"))
    reference_premium_degrades = int(
        tenant_sum(reference, names_by_qos(reference, "premium"), "degrade_events")
    )
    be_shed = int(tenant_sum(certify, best_effort, "shed"))
    be_displaced = int(tenant_sum(certify, best_effort, "displaced"))
    be_degrades = int(tenant_sum(certify, best_effort, "degrade_events"))

    reconciliation_ok = all(
        cell["tenants"]["reconciliation"]["requests_exact"]
        and cell["tenants"]["reconciliation"]["server_ms_ok"]
        for cell in scenarios.values()
        if "tenants" in cell
    )
    autoscale_cells = [c for c in scenarios.values() if "autoscale" in c]
    autoscale_ok = all(
        int(c["autoscale"]["scale_ups"]) >= 1 for c in autoscale_cells
    )

    checks = {
        "premium_within_slo": {
            "ok": bool(miss <= target),
            "miss_rate": round(miss, 6),
            "target": round(target, 6),
        },
        "premium_within_2x_reference": {
            "ok": bool(miss <= limit),
            "miss_rate": round(miss, 6),
            "reference_miss_rate": round(ref_miss, 6),
            "limit": round(limit, 6),
        },
        "premium_never_shed": {
            "ok": bool(
                tenant_sum(certify, premium, "shed") == 0
                and tenant_sum(certify, premium, "displaced") == 0
            ),
            "shed": int(tenant_sum(certify, premium, "shed")),
            "displaced": int(tenant_sum(certify, premium, "displaced")),
        },
        "premium_degrade_shielded": {
            "ok": bool(premium_degrades <= reference_premium_degrades),
            "degrade_events": premium_degrades,
            "reference_degrade_events": reference_premium_degrades,
        },
        "best_effort_absorbs": {
            "ok": bool(
                be_shed == fleet_shed
                and be_displaced == fleet_displaced
                and be_degrades == fleet_degrades - premium_degrades
            ),
            "best_effort_shed": be_shed,
            "fleet_shed": fleet_shed,
            "best_effort_displaced": be_displaced,
            "fleet_displaced": fleet_displaced,
            "best_effort_degrades": be_degrades,
            "non_premium_degrades": fleet_degrades - premium_degrades,
        },
        "metering_reconciles": {"ok": bool(reconciliation_ok)},
        "autoscaler_engaged": {
            "ok": bool(autoscale_ok),
            "cells": len(autoscale_cells),
        },
    }
    return {
        "certified": bool(all(c["ok"] for c in checks.values())),
        "checks": checks,
    }


# Suites whose artifacts carry a suite-level ``certification`` section,
# computed over the finished cells (so ``repro bench run`` and the
# dedicated CLI verb produce identical artifacts).
_SUITE_CERTIFIERS = {"tenants": _certify_tenants}


def run_suite(
    suite: str,
    label: str,
    degrade: float = 1.0,
    budget_ms: float = FRAME_BUDGET_MS,
    slo_target: float = DEFAULT_SLO_TARGET,
) -> dict:
    """Run every scenario of a named suite into one BENCH payload."""
    from ..eval.reporting import SCHEMA_VERSION

    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "suite": suite,
        "label": label,
        "budget_ms": round(budget_ms, 6),
        "slo_target": round(slo_target, 6),
        "degrade": degrade,
        "environment": environment_fingerprint(),
        "scenarios": {
            scenario.name: run_scenario(
                scenario, degrade, budget_ms, slo_target=slo_target
            )
            for scenario in SUITES[suite]
        },
    }
    certifier = _SUITE_CERTIFIERS.get(suite)
    if certifier is not None:
        payload["certification"] = certifier(payload)
    return payload


def bench_filename(suite: str, label: str) -> str:
    return f"BENCH_{suite}_{label}.json"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def dump_bench(payload: dict) -> str:
    """Canonical serialized form — sorted keys, so equal payloads are
    byte-identical files."""
    return (
        json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
        + "\n"
    )


def strip_timing(payload: dict) -> dict:
    """A deep copy of a BENCH payload without the wall-clock fields of
    kernel cells — the part of the artifact covered by the byte-identity
    contract (everything a simulated-clock run fully determines)."""
    from copy import deepcopy

    from .kernelbench import TIMING_KEYS

    stripped = deepcopy(payload)
    for scenario in stripped.get("scenarios", {}).values():
        kernel = scenario.get("kernel")
        if kernel:
            for key in TIMING_KEYS:
                kernel.pop(key, None)
    return stripped


def write_bench(payload: dict, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / bench_filename(payload["suite"], payload["label"])
    path.write_text(dump_bench(payload))
    return path
