"""Benchmark suites: named cells, one runner, per-suite certification.

A suite is a tuple of :class:`BenchCell`.  A cell holds the spec the
harness already runs: an :class:`ExperimentSpec` (one device against one
edge, paper Fig 9/11), a :class:`FleetSpec` (many devices sharing the
edge, paper Section VI-G, plus the serving, chaos and tenancy layers) or
a :class:`KernelSpec` (one vectorized kernel timed against its scalar
reference).  :func:`run_cell` runs any of them traced and folds the run
into its BENCH scenario section; :func:`run_suite` runs a whole suite
into the payload :mod:`repro.obs.bench` serializes, with a
``certification`` section for the suites in :data:`CERTIFIERS`, and
hands back what it observed so the ops report
(:func:`repro.obs.report.build_report`) and the miss console
(:func:`repro.obs.critical.build_why`) render from the same run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..chaos import FAULTS, SCENARIOS, make_scenario
from ..obs.bench import environment_fingerprint, stage_percentiles
from ..obs.budget import DEFAULT_SLO_TARGET, evaluate_error_budget
from ..obs.critical import miss_causes
from ..obs.kernelbench import KERNEL_NAMES, run_kernel
from ..obs.slo import FRAME_BUDGET_MS, evaluate_slo
from ..obs.timeline import DEFAULT_SAMPLE_INTERVAL_MS
from ..serve import FIFO_DEADLINE_HORIZON, FIFO_POLICY, FIFO_QUEUE_LIMIT
from ..tenancy.metering import REQUEST_COUNTERS
from .experiments import ExperimentSpec, FleetSpec, run_experiment, run_fleet
from .reporting import SCHEMA_VERSION, result_payload

__all__ = [
    "BenchCell",
    "KernelSpec",
    "SUITES",
    "CERTIFIERS",
    "suite_cells",
    "spec_section",
    "run_cell",
    "run_suite",
]


@dataclass(frozen=True)
class KernelSpec:
    """One vectorized-kernel micro cell (:mod:`repro.obs.kernelbench`).

    Times a vectorized hot-path kernel against its scalar ``*_reference``
    implementation; the cell's ``kernel`` payload section carries a
    regression-gated ``speedup_x``.  Wall-clock fields are excluded from
    the artifact byte-identity contract via
    :func:`~repro.obs.bench.strip_timing`.
    """

    kernel: str
    repeats: int = 7
    seed: int = 0


@dataclass(frozen=True)
class BenchCell:
    """One named cell of a benchmark suite.

    ``spec`` is what runs.  The other fields parameterize certification
    and never reach the simulation: ``slo_target`` replaces the suite's
    error-budget miss-rate target for this cell; ``role`` (``reference``
    | ``certify`` | ``exhibit``) and ``premium_slo_target`` tell the
    tenants certifier how to read the cell.
    """

    name: str
    spec: ExperimentSpec | FleetSpec | KernelSpec
    slo_target: float | None = None
    role: str | None = None
    premium_slo_target: float | None = None


# Suite sizing: ``micro`` is one small cell plus the kernel cells, for
# unit tests and quick local sanity runs; ``smoke`` is the CI perf gate
# (two networks, ~30 s total); ``full`` mirrors the paper-figure trace
# scenarios; ``fleet`` is the 8-client saturation study for the serving
# layer (FIFO baseline vs deadline-aware policies — see docs/serving.md).
SUITES: dict[str, tuple[BenchCell, ...]] = {
    "micro": (
        BenchCell(
            "wifi5-walk",
            ExperimentSpec(
                "edgeis", num_frames=80, resolution=(160, 120), warmup_frames=30
            ),
        ),
        # One cell per vectorized hot-path kernel (docs/performance.md):
        # speedup over the scalar reference is the gated metric.
        *(BenchCell(name, KernelSpec(name)) for name in KERNEL_NAMES),
    ),
    "smoke": tuple(
        BenchCell(
            name,
            ExperimentSpec(
                "edgeis",
                network=network,
                num_frames=96,
                resolution=(224, 168),
                warmup_frames=24,
            ),
        )
        for name, network in (("wifi5-walk", "wifi_5ghz"), ("lte-walk", "lte"))
    ),
    "full": tuple(
        BenchCell(
            name,
            ExperimentSpec(
                "edgeis",
                dataset=dataset,
                network=network,
                motion_grade=motion,
                num_frames=150,
            ),
        )
        for name, dataset, network, motion in (
            ("fig9-wifi5", "xiph_like", "wifi_5ghz", "walk"),
            ("fig10-wifi24", "xiph_like", "wifi_2.4ghz", "walk"),
            ("fig10-lte", "xiph_like", "lte", "walk"),
            ("fig12-jog", "kitti_like", "wifi_5ghz", "jog"),
        )
    ),
    # FleetSpec's defaults are the fleet suite's shape: 8 baseline+mamt
    # clients, 60 frames at 160x120, 10 warm-up frames.
    "fleet": (
        # The paper's deployment: 8 clients, one FIFO server, nothing
        # rejected, shed or degraded.
        BenchCell(
            "fifo-1srv",
            FleetSpec(
                policy=FIFO_POLICY,
                queue_limit=FIFO_QUEUE_LIMIT,
                deadline_horizon=FIFO_DEADLINE_HORIZON,
                degrade=False,
            ),
        ),
        # Deadline-aware EDF with bounded queues + MAMT-fallback degrade:
        # must beat fifo-1srv on frame-deadline miss rate.
        BenchCell(
            "edf-1srv-degrade",
            FleetSpec(policy="edf", queue_limit=6, deadline_horizon=36.0),
        ),
        # EDF plus cross-session batching: one GPU amortizes its fixed
        # per-call cost over requests of different clients.  Same config
        # as edf-1srv-degrade apart from the batching window; spends less
        # server busy-ms per completed frame at an equal miss rate (see
        # tests/test_serve.py::TestBatchingFleet).
        BenchCell(
            "edf-1srv-batch",
            FleetSpec(
                policy="edf",
                queue_limit=6,
                deadline_horizon=36.0,
                batch_window_ms=20.0,
                max_batch_size=3,
            ),
        ),
        # Horizontal scaling: two replicas behind least-queue placement.
        BenchCell("lq-2srv", FleetSpec(policy="least_queue", num_servers=2)),
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
        BenchCell(
            "premium-only",
            FleetSpec(
                num_clients=2,
                tenants="gold:premium:2",
                queue_limit=3,
                deadline_horizon=72.0,
            ),
            role="reference",
            premium_slo_target=0.15,
        ),
        # The certified cell: the same premium tenant, plus a
        # best-effort tenant large enough to saturate the single
        # replica on its own.
        BenchCell(
            "mixed-saturate",
            FleetSpec(
                num_clients=10,
                tenants="bulk:best_effort:8,gold:premium:2",
                queue_limit=3,
                deadline_horizon=72.0,
            ),
            role="certify",
            premium_slo_target=0.15,
        ),
        # All three QoS classes under the same saturation with the
        # queue-driven autoscaler on: standby replicas absorb the burst
        # after the warm-up lag, and the replica-count series is part
        # of the byte-identity contract.
        BenchCell(
            "autoscale-burst",
            FleetSpec(
                num_clients=10,
                tenants="bulk:best_effort:6,silver:standard:2,gold:premium:2",
                queue_limit=3,
                deadline_horizon=72.0,
                autoscale=True,
                autoscale_min=1,
                autoscale_max=3,
                autoscale_up_depth=1.5,
                autoscale_warmup_ms=150.0,
                autoscale_hold_ms=800.0,
            ),
            role="exhibit",
            premium_slo_target=0.15,
        ),
    ),
    # Adversarial scenario x fault matrix (docs/scenarios.md): every
    # registry scenario against every fault program, certified to hold
    # its SLO error budget through degrade -> recover.  The cells run
    # against a looser miss-rate target than DEFAULT_SLO_TARGET: the
    # claim is "the fleet survives inside an explicit, budgeted
    # degradation", not "chaos is free".
    "chaos": tuple(
        BenchCell(
            f"{scenario_name}+{fault_name}",
            FleetSpec(
                num_clients=4,
                num_frames=56,
                resolution=(128, 96),
                warmup_frames=8,
                num_servers=2,
                queue_limit=6,
                deadline_horizon=36.0,
                scenario=scenario_name,
                faults=fault_name,
            ),
            slo_target=0.25,
        )
        for scenario_name in SCENARIOS
        for fault_name in FAULTS
    ),
}


def suite_cells(
    suite: str, traced: bool = False, scenario: str | None = None
) -> tuple[BenchCell, ...]:
    """The cells of ``suite``; with ``traced`` only the simulated ones,
    with ``scenario`` only the cell of that name.

    Kernel cells are gated by ``bench compare`` alone: they leave no
    trace to explain, so ``why`` skips them.
    """
    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    cells = tuple(
        cell
        for cell in SUITES[suite]
        if not (traced and isinstance(cell.spec, KernelSpec))
        and scenario in (None, cell.name)
    )
    if not cells:
        raise ValueError(f"no traceable scenario named {scenario!r} in suite {suite!r}")
    return cells


# Artifact ``spec`` key -> spec field.  The keys are the artifact's own
# names (committed baselines use them), so they differ from the fields.
_SPEC_KEYS = {
    "system": "system",
    "dataset": "dataset",
    "network": "network",
    "motion": "motion_grade",
    "frames": "num_frames",
    "resolution": "resolution",
    "warmup_frames": "warmup_frames",
    "seed": "seed",
    "server_device": "server_device",
    "degrade": "server_latency_scale",
}
_FLEET_KEYS = {
    "num_clients": "num_clients",
    "num_servers": "num_servers",
    "policy": "policy",
    "queue_limit": "queue_limit",
    "deadline_horizon": "deadline_horizon",
    "degrade_enabled": "degrade",
    "batch_window_ms": "batch_window_ms",
    "max_batch_size": "max_batch_size",
}
# Chaos and tenant keys appear only on those cells, so plain fleet cells
# keep the shape they had before either layer existed.
_CHAOS_KEYS = {"chaos_scenario": "scenario", "fault": "faults"}
_TENANT_KEYS = {"tenants": "tenants", "autoscale": "autoscale"}


def spec_section(cell: BenchCell) -> dict:
    """The artifact's ``spec`` section for ``cell`` (its ``degrade`` is
    the spec's ``server_latency_scale``)."""
    spec = cell.spec
    if isinstance(spec, KernelSpec):
        return asdict(spec)
    fleet = isinstance(spec, FleetSpec)
    keys = dict(_SPEC_KEYS)
    if fleet:
        keys.update(_FLEET_KEYS)
        if spec.scenario is not None:
            keys.update(_CHAOS_KEYS)
        if spec.tenants is not None:
            keys.update(_TENANT_KEYS)
    section = {key: getattr(spec, field) for key, field in keys.items()}
    section["resolution"] = list(spec.resolution)
    if fleet:
        if spec.scenario is not None:
            # The scenario registry owns the channel choice.
            section["network"] = make_scenario(spec.scenario).network
        if spec.tenants is not None:
            section["role"] = cell.role
            section["premium_slo_target"] = round(cell.premium_slo_target, 6)
    return section


def run_cell(
    cell: BenchCell,
    degrade: float = 1.0,
    budget_ms: float = FRAME_BUDGET_MS,
    slo_target: float = DEFAULT_SLO_TARGET,
) -> tuple[dict, dict]:
    """Run one cell traced and sampled; return ``(payload, observed)``.

    ``degrade`` slows the edge server by that factor (the regression
    gate's self-test: a degraded run must make ``repro bench compare``
    fail, naming the ``server.infer`` stage).

    ``payload`` is the cell's BENCH scenario section (including the lean
    error-budget scalars).  ``observed`` carries what the ops report and
    the miss console need beyond the artifact: the live tracer and
    timeline sampler, the full budget report (with its burn series) and
    the simulated run duration.  Kernel cells return an empty
    ``observed``.

    A fleet cell's ``result`` section keeps the single-run key names (so
    the same compare policies gate it): quality/latency keys are means
    over the fleet's sessions, byte/offload counters are fleet totals,
    and ``server_utilization`` is normalized by the number of replicas.
    Its ``serve`` section carries the scheduler's admit/shed/degrade
    accounting (informational — not gated).
    """
    if isinstance(cell.spec, KernelSpec):
        kernel = cell.spec
        payload = {
            "spec": spec_section(cell),
            "kernel": run_kernel(kernel.kernel, seed=kernel.seed, repeats=kernel.repeats),
        }
        return payload, {}

    spec = replace(
        cell.spec,
        trace=True,
        server_latency_scale=degrade,
        sample_interval_ms=DEFAULT_SAMPLE_INTERVAL_MS,
    )
    if cell.slo_target is not None:
        slo_target = cell.slo_target
    fleet = isinstance(spec, FleetSpec)
    if fleet:
        outcome = run_fleet(spec)
        results = outcome.results
        duration = outcome.duration_ms
    else:
        outcome = run_experiment(spec)
        results = [outcome.result]
        duration = outcome.result.duration_ms
    tracer = outcome.tracer
    warmup = spec.warmup_frames
    counters = tracer.metrics.snapshot()["counters"]
    budget_report = evaluate_error_budget(
        tracer, budget_ms=budget_ms, target=slo_target, warmup_frames=warmup
    )
    offload = {
        "offload_count": int(sum(r.offload_count for r in results)),
        "bytes_up": int(sum(r.bytes_up for r in results)),
        "bytes_down": int(sum(r.bytes_down for r in results)),
    }
    payload = {
        "spec": spec_section(replace(cell, spec=spec)),
        "result": (
            _fleet_result(results, offload, duration, spec.provisioned_servers)
            if fleet
            else result_payload(outcome.result)
        ),
        "stages": stage_percentiles(tracer),
        "slo": evaluate_slo(tracer, budget_ms=budget_ms, warmup_frames=warmup),
        "budget": {k: v for k, v in budget_report.items() if k != "burn_series"},
        "miss_causes": miss_causes(tracer, budget_ms, warmup_frames=warmup),
        "offload": {**offload, "counters": dict(sorted(counters.items()))},
    }
    if fleet:
        payload["serve"] = outcome.scheduler.stats(duration)
        if spec.scenario is not None:
            payload["chaos"] = {
                "scenario": spec.scenario,
                "fault": spec.faults,
                "slo_target": round(slo_target, 6),
                "events": list(outcome.chaos.log) if outcome.chaos is not None else [],
                "certified": bool(budget_report["consumed_fraction"] < 1.0),
            }
        if spec.tenants is not None:
            payload["tenants"] = _tenant_section(outcome, budget_ms, warmup)
            if outcome.autoscaler is not None:
                payload["autoscale"] = outcome.autoscaler.stats()
    observed = {
        "tracer": tracer,
        "sampler": outcome.sampler,
        "budget": budget_report,
        "duration_ms": duration,
    }
    return payload, observed


def _fleet_result(results, offload: dict, duration: float, num_servers: int) -> dict:
    """The fleet's ``result`` section: per-session means and fleet totals."""
    count = len(results)
    busy_ms = results[0].server_busy_ms if results else 0.0
    return {
        "schema_version": SCHEMA_VERSION,
        "system": results[0].system,
        "num_clients": count,
        "mean_iou": float(sum(r.mean_iou() for r in results) / count),
        "false_rate_75": float(sum(r.false_rate(0.75) for r in results) / count),
        "false_rate_50": float(sum(r.false_rate(0.5) for r in results) / count),
        "mean_latency_ms": float(sum(r.mean_latency_ms() for r in results) / count),
        **offload,
        "server_utilization": float(
            busy_ms / (duration * num_servers) if duration else 0.0
        ),
    }


def _tenant_section(outcome, budget_ms: float, warmup_frames: int) -> dict:
    """The per-tenant slice of one tenant cell's payload.

    Carries the tenant directory, one entry per tenant (meter counters,
    session assignment, degrade-event count and the tenant's own SLO
    evaluated over just its sessions), the fair-queue state, and the
    reconciliation proof: per-tenant request counters must sum to the
    fleet-level ``serve.*`` counts *exactly*, and metered server
    milliseconds must match the pool's busy time to float tolerance.
    """
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
            warmup_frames=warmup_frames,
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


def _certify_chaos(payload: dict) -> dict:
    """Suite-level certification of the chaos matrix: one check per
    cell, passing when the cell held its SLO error budget
    (``budget.consumed_fraction < 1.0`` at the cell's ``slo_target``)
    through degrade -> recover."""
    checks = {
        name: {
            "ok": bool(cell["chaos"]["certified"]),
            "consumed_fraction": cell["budget"]["consumed_fraction"],
            "slo_target": cell["chaos"]["slo_target"],
            "miss_rate": cell["slo"]["miss_rate"],
            "events": len(cell["chaos"]["events"]),
        }
        for name, cell in payload["scenarios"].items()
    }
    return {
        "certified": bool(all(c["ok"] for c in checks.values())),
        "checks": checks,
    }


# Suites whose artifacts carry a suite-level ``certification`` section,
# computed over the finished cells; ``repro bench run`` fails when it
# does not hold.
CERTIFIERS = {"tenants": _certify_tenants, "chaos": _certify_chaos}


def run_suite(
    suite: str,
    label: str,
    degrade: float = 1.0,
    budget_ms: float = FRAME_BUDGET_MS,
    slo_target: float = DEFAULT_SLO_TARGET,
    cells: tuple[BenchCell, ...] | None = None,
) -> tuple[dict, dict[str, dict]]:
    """Run every cell of a named suite (or just ``cells`` of it) once.

    Returns ``(payload, observed)``: the BENCH payload, and each traced
    cell's ``observed`` (see :func:`run_cell`) by cell name, in suite
    order.
    """
    if cells is None:
        cells = suite_cells(suite)
    runs = {cell.name: run_cell(cell, degrade, budget_ms, slo_target) for cell in cells}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "suite": suite,
        "label": label,
        "budget_ms": round(budget_ms, 6),
        "slo_target": round(slo_target, 6),
        "degrade": degrade,
        "environment": environment_fingerprint(),
        "scenarios": {name: cell_payload for name, (cell_payload, _) in runs.items()},
    }
    certifier = CERTIFIERS.get(suite)
    if certifier is not None:
        payload["certification"] = certifier(payload)
    return payload, {name: seen for name, (_, seen) in runs.items() if seen}
