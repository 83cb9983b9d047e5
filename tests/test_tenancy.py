"""Tests for repro.tenancy: QoS classes, the tenant directory,
start-time fair queueing, per-tenant metering, weighted-fair
displacement, the queue-driven autoscaler, and the committed tenants
BENCH baseline."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.eval.experiments import FleetSpec, run_fleet
from repro.model import SimulatedSegmentationModel
from repro.obs import Tracer
from repro.runtime.interface import OffloadRequest
from repro.runtime.pipeline import EdgeServer
from repro.serve import (
    ADMIT,
    REJECT_QUEUE_FULL,
    AdmissionConfig,
    DegradeConfig,
    FleetScheduler,
)
from repro.tenancy import (
    DEFAULT_TENANTS,
    QOS_CLASSES,
    Autoscaler,
    AutoscalerConfig,
    FairQueue,
    TenantDirectory,
    TenantMeter,
    TenantSpec,
    parse_tenants,
)
from repro.tenancy.metering import REQUEST_COUNTERS

BASELINE = Path(__file__).resolve().parent.parent / (
    "benchmarks/baselines/BENCH_tenants_baseline.json"
)


def make_edge_server(seed=9):
    return EdgeServer(
        SimulatedSegmentationModel(
            "mask_rcnn_r101", "jetson_tx2", np.random.default_rng(seed)
        )
    )


def make_request(frame=0, payload=1000):
    return OffloadRequest(frame_index=frame, payload_bytes=payload, encode_ms=5.0)


class TestQoSClasses:
    def test_registry(self):
        assert set(QOS_CLASSES) == {"premium", "standard", "best_effort"}
        premium = QOS_CLASSES["premium"]
        bulk = QOS_CLASSES["best_effort"]
        # Priority 0 is the strongest claim; only premium is shed-exempt.
        assert premium.priority < QOS_CLASSES["standard"].priority < bulk.priority
        assert premium.shed_exempt and not bulk.shed_exempt
        assert premium.weight > QOS_CLASSES["standard"].weight > bulk.weight
        # Premium degrades last (scaled-up failure threshold), best
        # effort first.
        assert premium.degrade_scale > 1.0 > bulk.degrade_scale

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown QoS"):
            TenantSpec("x", "platinum", 1)
        with pytest.raises(ValueError, match="at least one session"):
            TenantSpec("x", "premium", 0)


class TestTenantDirectory:
    def test_contiguous_session_assignment(self):
        directory = TenantDirectory(
            (TenantSpec("a", "premium", 2), TenantSpec("b", "best_effort", 3))
        )
        assert directory.num_sessions == 5
        assert directory.sessions_of("a") == [0, 1]
        assert directory.sessions_of("b") == [2, 3, 4]
        assert directory.tenant_of(4) == "b"
        assert directory.qos_of(0).name == "premium"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            TenantDirectory(
                (TenantSpec("a", "premium", 1), TenantSpec("a", "standard", 1))
            )

    def test_describe_is_json_clean_and_ordered(self):
        directory = TenantDirectory(DEFAULT_TENANTS)
        described = directory.describe()
        json.dumps(described)
        assert [entry["name"] for entry in described] == [
            spec.name for spec in DEFAULT_TENANTS
        ]

    def test_parse_tenants(self):
        directory = TenantDirectory(
            parse_tenants("gold:premium:1,bulk:best_effort:2")
        )
        assert directory.tenants == ["gold", "bulk"]
        assert directory.num_sessions == 3

    def test_parse_tenants_errors(self):
        with pytest.raises(ValueError):
            parse_tenants("")
        with pytest.raises(ValueError):
            parse_tenants("gold:premium")
        with pytest.raises(ValueError):
            parse_tenants("gold:premium:zero")


class TestFairQueue:
    def test_commit_advances_by_inverse_weight(self):
        fair = FairQueue(TenantDirectory(DEFAULT_TENANTS))
        # premium weight 4 -> finish advances 0.25; best_effort weight 1.
        assert fair.commit("gold") == 0.0
        assert fair.finish["gold"] == pytest.approx(0.25)
        assert fair.commit("bulk") == 0.0
        assert fair.finish["bulk"] == pytest.approx(1.0)

    def test_no_credit_for_idling(self):
        fair = FairQueue(TenantDirectory(DEFAULT_TENANTS))
        for _ in range(4):
            fair.commit("bulk")
        # bulk's own virtual start reflects its backlog; an idle tenant
        # starts at the global virtual time, not at zero.
        assert fair.vstart("bulk") == pytest.approx(4.0)
        assert fair.vstart("gold") == pytest.approx(fair.virtual_time)
        assert fair.vstart("gold") < fair.vstart("bulk")

    def test_stats_json_clean(self):
        fair = FairQueue(TenantDirectory(DEFAULT_TENANTS))
        fair.commit("silver")
        json.dumps(fair.stats())


class TestTenantMeter:
    def test_counts_and_totals(self):
        meter = TenantMeter(TenantDirectory(DEFAULT_TENANTS))
        meter.add("gold", "submitted")
        meter.add("gold", "admitted")
        meter.add("bulk", "submitted")
        meter.add("bulk", "shed")
        meter.add("gold", "server_ms", 12.5)
        stats = meter.stats()
        assert stats["gold"]["admitted"] == 1
        assert stats["gold"]["server_ms"] == pytest.approx(12.5)
        assert stats["bulk"]["shed_rate"] == pytest.approx(1.0)
        totals = meter.totals()
        assert totals["submitted"] == 2
        assert totals["shed"] == 1
        json.dumps(stats)

    def test_attach_registers_tenant_counters(self):
        tracer = Tracer()
        meter = TenantMeter(TenantDirectory(DEFAULT_TENANTS))
        meter.attach(tracer.metrics)
        meter.add("gold", "submitted")
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["tenant.gold.submitted"] == 1


class TestDisplacement:
    def make_scheduler(self, tenants, **kwargs):
        directory = TenantDirectory(parse_tenants(tenants))
        kwargs.setdefault(
            "admission",
            AdmissionConfig(queue_limit=2, reject_infeasible=False),
        )
        scheduler = FleetScheduler(
            [make_edge_server()],
            num_sessions=directory.num_sessions,
            tenancy=directory,
            **kwargs,
        )
        return scheduler, directory

    def submit(self, scheduler, session, frame=0, t=0.0):
        return scheduler.submit(
            session, make_request(frame), [], (120, 160), t, t + 1.0, 33.0, t
        )

    def test_premium_displaces_saturating_best_effort(self):
        scheduler, directory = self.make_scheduler(
            "bulk:best_effort:2,gold:premium:1"
        )
        # Two best-effort items fill the queue; the premium arrival must
        # evict one rather than be rejected.
        assert self.submit(scheduler, 0) == (True, ADMIT)
        assert self.submit(scheduler, 1) == (True, ADMIT)
        assert self.submit(scheduler, 2) == (True, ADMIT)
        assert scheduler.counts["displaced"] == 1
        assert scheduler.counts["shed"] == 1
        assert scheduler.meter.counts["bulk"]["displaced"] == 1
        assert scheduler.meter.counts["bulk"]["shed"] == 1
        assert scheduler.meter.counts["gold"]["admitted"] == 1

    def test_best_effort_cannot_displace_premium(self):
        scheduler, directory = self.make_scheduler(
            "gold:premium:2,bulk:best_effort:1"
        )
        assert self.submit(scheduler, 0) == (True, ADMIT)
        assert self.submit(scheduler, 1) == (True, ADMIT)
        admitted, status = self.submit(scheduler, 2)
        assert not admitted and status == REJECT_QUEUE_FULL
        assert scheduler.counts["displaced"] == 0

    def test_equal_claims_break_on_session_then_frame(self):
        # Two distinct best-effort tenants, both previously idle, share
        # an SFQ virtual start of 0.0: the victim must be the weaker
        # *request identity* — the larger (session, frame).
        scheduler, directory = self.make_scheduler(
            "a:best_effort:1,b:best_effort:1,gold:premium:1"
        )
        assert self.submit(scheduler, 0) == (True, ADMIT)
        assert self.submit(scheduler, 1) == (True, ADMIT)
        assert self.submit(scheduler, 2) == (True, ADMIT)
        assert scheduler.meter.counts["b"]["displaced"] == 1
        assert scheduler.meter.counts["a"]["displaced"] == 0

    def test_premium_is_never_shed_at_drain(self):
        scheduler, directory = self.make_scheduler(
            "bulk:best_effort:1,gold:premium:1",
            degrade=DegradeConfig(failure_threshold=1),
        )
        # Both queued behind the same replica with ~33 ms deadlines; the
        # first dispatch runs the GPU far past both.  The best-effort
        # item is shed; the premium one is dispatched late instead.
        assert self.submit(scheduler, 0, frame=0) == (True, ADMIT)
        assert self.submit(scheduler, 1, frame=0) == (True, ADMIT)
        outcomes = scheduler.advance(100_000.0)
        kinds = {o.item.tenant: o.kind for o in outcomes}
        assert kinds["gold"] == "complete"
        assert scheduler.meter.counts["gold"]["shed"] == 0

    def test_tenancy_session_mismatch_rejected(self):
        directory = TenantDirectory(parse_tenants("gold:premium:2"))
        with pytest.raises(ValueError, match="tenant directory covers"):
            FleetScheduler(
                [make_edge_server()], num_sessions=5, tenancy=directory
            )

    def test_stats_tenancy_section_json_clean(self):
        scheduler, directory = self.make_scheduler(
            "bulk:best_effort:2,gold:premium:1"
        )
        self.submit(scheduler, 0)
        stats = scheduler.stats(1000.0)
        section = stats["tenancy"]
        assert [t["name"] for t in section["tenants"]] == ["bulk", "gold"]
        assert section["per_tenant"]["bulk"]["submitted"] == 1
        json.dumps(stats)


class TestMeteringReconciliation:
    def test_totals_match_fleet_counts_exactly(self):
        directory = TenantDirectory(
            parse_tenants("bulk:best_effort:2,gold:premium:1")
        )
        scheduler = FleetScheduler(
            [make_edge_server()],
            num_sessions=3,
            tenancy=directory,
            admission=AdmissionConfig(queue_limit=1),
            degrade=DegradeConfig(failure_threshold=1),
        )
        # A mixed workload: admissions, queue-full rejections,
        # displacements, infeasible rejections and drain sheds.
        for tick in range(12):
            now = tick * 20.0
            scheduler.submit(
                tick % 3, make_request(tick), [], (120, 160),
                now, now + 1.0, 33.0, now,
            )
            scheduler.advance(now)
        scheduler.advance(100_000.0)
        totals = scheduler.meter.totals()
        for key in REQUEST_COUNTERS:
            assert totals[key] == scheduler.counts[key], key
        server_ms = sum(
            scheduler.meter.counts[name]["server_ms"]
            for name in directory.tenants
        )
        assert server_ms == pytest.approx(scheduler.pool.busy_ms_total)


class TestAutoscaler:
    def make_scheduler(self, servers=3, queue_limit=8):
        return FleetScheduler(
            [make_edge_server(seed) for seed in range(servers)],
            num_sessions=4,
            admission=AdmissionConfig(
                queue_limit=queue_limit, reject_infeasible=False
            ),
        )

    def fill_queue(self, scheduler, n, t=0.0):
        for i in range(n):
            scheduler.submit(
                i % 4, make_request(i), [], (120, 160), t, t + 1.0, 33.0, t
            )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_replicas"):
            AutoscalerConfig(min_replicas=0).validate()
        with pytest.raises(ValueError, match="exceed"):
            AutoscalerConfig(scale_up_depth=1.0, scale_down_depth=1.0).validate()
        with pytest.raises(ValueError, match="exceeds"):
            Autoscaler(self.make_scheduler(2), AutoscalerConfig(min_replicas=3))

    def test_starts_at_min_replicas(self):
        scheduler = self.make_scheduler(3)
        scaler = Autoscaler(scheduler, AutoscalerConfig(min_replicas=1))
        assert len(scheduler.pool.live_replicas()) == 1
        assert scaler.replica_series == [[0.0, 1]]

    def test_scale_up_waits_for_warmup(self):
        scheduler = self.make_scheduler(2)
        scaler = Autoscaler(
            scheduler,
            AutoscalerConfig(min_replicas=1, scale_up_depth=2.0, warmup_ms=200.0),
        )
        self.fill_queue(scheduler, 5)
        scaler.tick(0.0)
        assert scaler.scale_ups == 1
        # Decision made, but capacity lags by warmup_ms.
        assert len(scheduler.pool.live_replicas()) == 1
        scaler.tick(100.0)
        assert len(scheduler.pool.live_replicas()) == 1
        scaler.tick(200.0)
        assert len(scheduler.pool.live_replicas()) == 2
        assert scaler.replica_series == [[0.0, 1], [200.0, 2]]

    def test_scale_down_hysteresis_and_floor(self):
        scheduler = self.make_scheduler(2)
        scaler = Autoscaler(
            scheduler,
            AutoscalerConfig(
                min_replicas=1,
                scale_up_depth=2.0,
                warmup_ms=0.0,
                scale_down_hold_ms=300.0,
                cooldown_ms=0.0,
            ),
        )
        self.fill_queue(scheduler, 5)
        scaler.tick(0.0)
        scaler.tick(0.0)  # warmup_ms=0: ready immediately
        assert len(scheduler.pool.live_replicas()) == 2
        scheduler.advance(100_000.0)  # drain everything
        # Low load must persist for scale_down_hold_ms before capacity
        # returns to standby.
        scaler.tick(100_000.0)
        assert len(scheduler.pool.live_replicas()) == 2
        scaler.tick(100_200.0)
        assert len(scheduler.pool.live_replicas()) == 2
        scaler.tick(100_400.0)
        assert len(scheduler.pool.live_replicas()) == 1
        assert scaler.scale_downs == 1
        # Never below the floor, no matter how long the idle stretch.
        for t in range(5):
            scaler.tick(101_000.0 + 500.0 * t)
        assert len(scheduler.pool.live_replicas()) == 1

    def test_standby_with_queued_work_rejected(self):
        scheduler = self.make_scheduler(2, queue_limit=2)
        self.fill_queue(scheduler, 4)
        busy = next(
            r.index for r in scheduler.pool.replicas if r.queue
        )
        with pytest.raises(ValueError, match="queued"):
            scheduler.set_replica_standby(busy)

    def test_standby_transitions_do_not_count_as_faults(self):
        scheduler = self.make_scheduler(2)
        Autoscaler(scheduler, AutoscalerConfig(min_replicas=1))
        assert scheduler.counts["replica_kills"] == 0
        assert scheduler.counts["replica_revives"] == 0

    def test_stats_json_clean(self):
        scaler = Autoscaler(self.make_scheduler(2), AutoscalerConfig())
        stats = scaler.stats()
        json.dumps(stats)
        assert stats["final_live"] == 1


class TestFleetIntegration:
    SPEC = dict(
        num_clients=5,
        num_frames=30,
        resolution=(160, 120),
        policy="edf",
        queue_limit=3,
        deadline_horizon=72.0,
        tenants="bulk:best_effort:3,gold:premium:2",
        warmup_frames=5,
        trace=True,
    )

    def test_tenancy_session_count_must_match(self):
        with pytest.raises(ValueError, match="session counts"):
            FleetSpec(
                num_clients=3, num_frames=4,
                tenants="gold:premium:2",
            )

    def test_contexts_carry_tenant_and_meters_reconcile(self):
        outcome = run_fleet(FleetSpec(**self.SPEC))
        scheduler = outcome.scheduler
        tenants_seen = {
            span.ctx.tenant
            for span in outcome.tracer.spans
            if span.ctx is not None and span.ctx.tenant is not None
        }
        assert tenants_seen <= {"bulk", "gold"} and tenants_seen
        totals = scheduler.meter.totals()
        for key in REQUEST_COUNTERS:
            assert totals[key] == scheduler.counts[key], key
        server_ms = sum(
            scheduler.meter.counts[name]["server_ms"]
            for name in scheduler.tenancy.tenants
        )
        assert server_ms == pytest.approx(scheduler.pool.busy_ms_total)
        # tenant.* counters mirror the meter exactly.
        counters = outcome.tracer.metrics.snapshot()["counters"]
        assert counters["tenant.gold.submitted"] == (
            scheduler.meter.counts["gold"]["submitted"]
        )

    def test_autoscaled_fleet_is_byte_deterministic(self):
        spec = FleetSpec(
            **self.SPEC,
            autoscale=True,
            autoscale_min=1,
            autoscale_max=3,
            autoscale_up_depth=1.5,
            autoscale_warmup_ms=150.0,
            autoscale_hold_ms=800.0,
        )

        def run_once():
            outcome = run_fleet(spec)
            return json.dumps(
                {
                    "serve": outcome.scheduler.stats(outcome.duration_ms),
                    "autoscale": outcome.autoscaler.stats(),
                },
                sort_keys=True,
            )

        first = run_once()
        second = run_once()
        assert first == second
        payload = json.loads(first)
        assert payload["autoscale"]["scale_ups"] >= 1
        series = payload["autoscale"]["replica_series"]
        assert series[0] == [0.0, 1]
        assert all(isinstance(point[1], int) for point in series)

    def test_provisioned_servers_counts_standby_replicas(self):
        assert FleetSpec(autoscale=True, autoscale_max=3).provisioned_servers == 3
        assert FleetSpec(num_servers=2).provisioned_servers == 2

    def test_autoscale_emits_trace_events(self):
        spec = FleetSpec(
            **self.SPEC,
            autoscale=True,
            autoscale_min=1,
            autoscale_max=3,
            autoscale_up_depth=1.5,
            autoscale_warmup_ms=150.0,
        )
        outcome = run_fleet(spec)
        names = {e.name for e in outcome.tracer.events}
        assert "autoscale.scale_up" in names
        assert "autoscale.replica_ready" in names


@pytest.mark.skipif(not BASELINE.exists(), reason="baseline not committed")
class TestTenantsBaseline:
    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads(BASELINE.read_text())

    def test_certified(self, payload):
        certification = payload["certification"]
        assert certification["certified"] is True
        for name, check in certification["checks"].items():
            assert check["ok"], name

    def test_cells_present_with_roles(self, payload):
        cells = payload["scenarios"]
        roles = {cells[name]["spec"]["role"] for name in cells}
        assert roles == {"reference", "certify", "exhibit"}

    def test_reconciliation_exact_in_every_cell(self, payload):
        for name, cell in payload["scenarios"].items():
            recon = cell["tenants"]["reconciliation"]
            assert recon["requests_exact"] is True, name
            assert recon["server_ms_ok"] is True, name

    def test_autoscale_series_committed(self, payload):
        cell = payload["scenarios"]["autoscale-burst"]
        series = cell["autoscale"]["replica_series"]
        assert series[0] == [0.0, 1]
        assert cell["autoscale"]["scale_ups"] >= 1

    def test_utilization_is_over_the_provisioned_pool(self, payload):
        # The autoscale cell provisions autoscale_max=3 replicas; its
        # fleet utilization is the mean over all of them, not busy time
        # over the one num_servers names.
        cell = payload["scenarios"]["autoscale-burst"]
        per_server = cell["serve"]["per_server"]
        assert len(per_server) == 3
        utilization = cell["result"]["server_utilization"]
        assert utilization == pytest.approx(
            sum(s["utilization"] for s in per_server) / 3
        )
        assert 0.0 < utilization <= 1.0

    @pytest.mark.parametrize("name", ["premium-only", "mixed-saturate"])
    def test_utilization_never_exceeds_one(self, payload, name):
        # Busy time counts only service inside the run: the tail of a
        # service still running at the end is not charged to it.
        cell = payload["scenarios"][name]
        assert 0.0 < cell["result"]["server_utilization"] <= 1.0
        for entry in cell["serve"]["per_server"]:
            assert 0.0 < entry["utilization"] <= 1.0
