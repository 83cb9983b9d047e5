"""Tests for repro.serve: policies, admission control, the degrade state
machine, the fleet scheduler, and the committed fleet BENCH baseline."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.model import SimulatedSegmentationModel
from repro.obs import Tracer, session_timelines
from repro.runtime.interface import OffloadRequest
from repro.runtime.pipeline import EdgeServer
from repro.serve import (
    ADMIT,
    REJECT_INFEASIBLE,
    REJECT_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
    BatchConfig,
    DegradeConfig,
    DegradeManager,
    FleetScheduler,
    POLICY_NAMES,
    ServeItem,
    ServerPool,
    ServerReplica,
    estimate_batch_ms,
    make_policy,
)

BASELINE = Path(__file__).resolve().parent.parent / (
    "benchmarks/baselines/BENCH_fleet_baseline.json"
)


class _StubServer:
    """Just enough of EdgeServer for placement/admission unit tests."""

    def __init__(self, free_at_ms=0.0):
        self.free_at_ms = free_at_ms
        self.lane = "server"

    def batch_setup_ms(self):
        return 0.0


def make_item(seq=0, session=0, arrive_ms=0.0, deadline_ms=400.0):
    request = OffloadRequest(frame_index=seq, payload_bytes=1000, encode_ms=5.0)
    return ServeItem(
        seq=seq,
        session_index=session,
        request=request,
        truth_masks=[],
        image_shape=(120, 160),
        send_ms=arrive_ms - 2.0,
        arrive_ms=arrive_ms,
        deadline_ms=deadline_ms,
    )


def make_replicas(*free_ats, est_infer_ms=100.0):
    return [
        ServerReplica(index, _StubServer(free_at), est_infer_ms)
        for index, free_at in enumerate(free_ats)
    ]


def make_edge_server(seed=9):
    return EdgeServer(
        SimulatedSegmentationModel(
            "mask_rcnn_r101", "jetson_tx2", np.random.default_rng(seed)
        )
    )


class TestPolicies:
    def test_registry(self):
        assert set(POLICY_NAMES) == {"round_robin", "least_queue", "edf"}
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("priority-lottery")

    def test_round_robin_cycles(self):
        policy = make_policy("round_robin")
        replicas = make_replicas(0.0, 0.0, 0.0)
        picks = [policy.choose(make_item(i), replicas, 0.0).index for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_queue_prefers_short_queue(self):
        policy = make_policy("least_queue")
        replicas = make_replicas(0.0, 0.0)
        replicas[0].queue.append(make_item(0))
        assert policy.choose(make_item(1), replicas, 0.0).index == 1

    def test_least_queue_ties_break_on_backlog_then_index(self):
        policy = make_policy("least_queue")
        replicas = make_replicas(500.0, 100.0)  # equal queue lengths (0)
        assert policy.choose(make_item(0), replicas, 0.0).index == 1

    def test_edf_places_on_earliest_completion(self):
        policy = make_policy("edf")
        # Replica 0 busy until 600 ms, replica 1 free: EDF must pick 1.
        replicas = make_replicas(600.0, 0.0)
        assert policy.choose(make_item(0, arrive_ms=10.0), replicas, 0.0).index == 1

    def test_edf_service_order_is_deadline_first(self):
        policy = make_policy("edf")
        late = make_item(seq=0, deadline_ms=900.0)
        urgent = make_item(seq=1, deadline_ms=100.0)
        assert sorted([late, urgent], key=policy.service_key)[0] is urgent

    def test_fifo_service_order_is_sequence(self):
        policy = make_policy("least_queue")
        first = make_item(seq=0, deadline_ms=900.0)
        second = make_item(seq=1, deadline_ms=100.0)
        assert sorted([second, first], key=policy.service_key)[0] is first

    def test_edf_identical_deadlines_break_on_session_then_frame(self):
        # Identical deadlines must order by stable request identity
        # (session, then frame) — never by admission order — so drain
        # order is a pure function of the workload.
        policy = make_policy("edf")
        items = [
            make_item(seq=5, session=1, deadline_ms=400.0),
            make_item(seq=6, session=0, deadline_ms=400.0),
            make_item(seq=2, session=0, deadline_ms=400.0),
        ]
        ordered = sorted(items, key=policy.service_key)
        assert [(i.session_index, i.frame_index) for i in ordered] == [
            (0, 2),
            (0, 6),
            (1, 5),
        ]


class TestAdmission:
    def test_deadline_from_horizon(self):
        controller = AdmissionController(AdmissionConfig(deadline_horizon=12.0))
        assert controller.deadline_for(100.0, 33.0) == pytest.approx(496.0)

    def test_admit_when_free_and_feasible(self):
        controller = AdmissionController()
        replica = make_replicas(0.0, est_infer_ms=100.0)[0]
        decision = controller.check(
            make_item(arrive_ms=10.0, deadline_ms=500.0), replica, 0.0
        )
        assert decision.status == ADMIT and decision.admitted

    def test_reject_queue_full(self):
        controller = AdmissionController(AdmissionConfig(queue_limit=1))
        replica = make_replicas(0.0)[0]
        replica.queue.append(make_item(0))
        decision = controller.check(
            make_item(1, arrive_ms=10.0, deadline_ms=10_000.0), replica, 0.0
        )
        assert decision.status == REJECT_QUEUE_FULL and not decision.admitted

    def test_reject_infeasible(self):
        controller = AdmissionController()
        # Replica busy for 700 ms; deadline at 400 ms can't be met.
        replica = make_replicas(700.0, est_infer_ms=350.0)[0]
        decision = controller.check(
            make_item(arrive_ms=10.0, deadline_ms=400.0), replica, 0.0
        )
        assert decision.status == REJECT_INFEASIBLE

    def test_infeasible_check_can_be_disabled(self):
        controller = AdmissionController(AdmissionConfig(reject_infeasible=False))
        replica = make_replicas(700.0, est_infer_ms=350.0)[0]
        decision = controller.check(
            make_item(arrive_ms=10.0, deadline_ms=400.0), replica, 0.0
        )
        assert decision.admitted

    def test_should_shed_on_expired_deadline(self):
        controller = AdmissionController()
        item = make_item(deadline_ms=400.0)
        assert controller.should_shed(item, start_ms=395.0, est_infer_ms=100.0)
        assert not controller.should_shed(item, start_ms=100.0, est_infer_ms=100.0)

    def test_admit_exactly_at_feasibility_threshold(self):
        # The feasibility check is strict (est > deadline): an arrival
        # whose estimated completion lands exactly on its deadline is
        # still admitted; one estimated a hair later is rejected.
        controller = AdmissionController()
        replica = make_replicas(0.0, est_infer_ms=100.0)[0]
        est = (
            replica.est_completion_ms(make_item(arrive_ms=10.0), 0.0)
            + controller.config.est_downlink_ms
        )
        at = controller.check(
            make_item(arrive_ms=10.0, deadline_ms=est), replica, 0.0
        )
        assert at.status == ADMIT
        assert at.est_completion_ms == pytest.approx(est)
        below = controller.check(
            make_item(arrive_ms=10.0, deadline_ms=est - 0.001), replica, 0.0
        )
        assert below.status == REJECT_INFEASIBLE

    def test_queue_full_reported_before_infeasibility(self):
        # Both reject reasons apply here; the queue-full verdict must win
        # deterministically (it is checked first), so rejection counters
        # are stable under backlog estimate drift.
        controller = AdmissionController(AdmissionConfig(queue_limit=1))
        replica = make_replicas(700.0, est_infer_ms=350.0)[0]
        replica.queue.append(make_item(0))
        decision = controller.check(
            make_item(1, arrive_ms=10.0, deadline_ms=400.0), replica, 0.0
        )
        assert decision.status == REJECT_QUEUE_FULL


class TestDegradeManager:
    def test_degrades_after_threshold(self):
        manager = DegradeManager(2, DegradeConfig(failure_threshold=2))
        assert manager.on_failure(0, 10.0) is False
        assert manager.on_failure(0, 20.0) is True
        assert manager.is_degraded(0)
        assert not manager.is_degraded(1)

    def test_success_resets_failure_run(self):
        manager = DegradeManager(1, DegradeConfig(failure_threshold=2))
        manager.on_failure(0, 10.0)
        manager.on_success(0)
        assert manager.on_failure(0, 20.0) is False
        assert not manager.is_degraded(0)

    def test_disabled_never_degrades(self):
        manager = DegradeManager(1, DegradeConfig(enabled=False, failure_threshold=1))
        assert manager.on_failure(0, 10.0) is False
        assert not manager.is_degraded(0)

    def test_recovery_waits_for_min_degraded_ms(self):
        manager = DegradeManager(1, DegradeConfig(failure_threshold=1, min_degraded_ms=300.0))
        manager.on_failure(0, 100.0)
        assert manager.maybe_recover(200.0, queue_depth=0) is None
        assert manager.maybe_recover(400.0, queue_depth=0) == 0
        assert not manager.is_degraded(0)

    def test_recovery_waits_for_queue_depth(self):
        manager = DegradeManager(1, DegradeConfig(failure_threshold=1, recover_depth=1))
        manager.on_failure(0, 0.0)
        assert manager.maybe_recover(1000.0, queue_depth=5) is None
        assert manager.maybe_recover(1000.0, queue_depth=1) == 0

    def test_recovery_is_staggered_oldest_first(self):
        manager = DegradeManager(3, DegradeConfig(failure_threshold=1))
        manager.on_failure(2, 50.0)
        manager.on_failure(0, 100.0)
        manager.on_failure(1, 150.0)
        assert manager.maybe_recover(1000.0, queue_depth=0) == 2
        assert manager.maybe_recover(1000.0, queue_depth=0) == 0
        assert manager.maybe_recover(1000.0, queue_depth=0) == 1
        assert manager.maybe_recover(1000.0, queue_depth=0) is None

    def test_keyframe_flag_is_one_shot(self):
        manager = DegradeManager(1, DegradeConfig(failure_threshold=1))
        manager.on_failure(0, 0.0)
        assert not manager.take_keyframe_request(0)
        manager.maybe_recover(1000.0, queue_depth=0)
        assert manager.take_keyframe_request(0)
        assert not manager.take_keyframe_request(0)

    def test_stats_counts(self):
        manager = DegradeManager(2, DegradeConfig(failure_threshold=1))
        manager.on_failure(0, 0.0)
        manager.maybe_recover(1000.0, queue_depth=0)
        manager.on_failure(1, 1000.0)
        stats = manager.stats()
        assert stats["degrade_events"] == 2
        assert stats["recover_events"] == 1
        assert stats["degraded_at_end"] == [1]


class TestServerPool:
    def test_requires_servers(self):
        with pytest.raises(ValueError, match="at least one"):
            ServerPool([])

    def test_replica_lanes_renamed(self):
        pool = ServerPool([make_edge_server(1), make_edge_server(2)])
        assert [r.server.lane for r in pool.replicas] == ["server0", "server1"]

    def test_queue_depth_and_free(self):
        pool = ServerPool([make_edge_server()])
        assert pool.queue_depth() == 0
        assert pool.is_free_at(0.0)
        pool.replicas[0].queue.append(make_item())
        assert pool.queue_depth() == 1
        assert not pool.is_free_at(0.0)


class TestFleetScheduler:
    def make_scheduler(self, **kwargs):
        kwargs.setdefault("num_sessions", 2)
        return FleetScheduler([make_edge_server()], **kwargs)

    def test_submit_admits_then_bounds_queue(self):
        scheduler = self.make_scheduler(
            admission=AdmissionConfig(queue_limit=1, reject_infeasible=False)
        )
        request = OffloadRequest(frame_index=0, payload_bytes=1000, encode_ms=5.0)
        first = scheduler.submit(0, request, [], (120, 160), 0.0, 5.0, 33.0, 0.0)
        second = scheduler.submit(1, request, [], (120, 160), 0.0, 6.0, 33.0, 0.0)
        assert first == (True, ADMIT)
        # queue_limit=1: the first request sits in the queue until a
        # drain, so the second arrival finds it full.
        assert second == (False, REJECT_QUEUE_FULL)
        scheduler.advance(10_000.0)  # drains the queue
        third = scheduler.submit(
            0, request, [], (120, 160), 10_000.0, 10_005.0, 33.0, 10_000.0
        )
        assert third == (True, ADMIT)

    def test_infeasible_rejection_trips_degrade(self):
        scheduler = self.make_scheduler(
            admission=AdmissionConfig(deadline_horizon=1.0),
            degrade=DegradeConfig(failure_threshold=2),
        )
        request = OffloadRequest(frame_index=0, payload_bytes=1000, encode_ms=5.0)
        # Deadline = send + 33 ms; est completion >= 350 ms prior: reject.
        for send in (0.0, 33.0):
            admitted, status = scheduler.submit(
                0, request, [], (120, 160), send, send + 5.0, 33.0, send
            )
            assert not admitted and status == REJECT_INFEASIBLE
        assert scheduler.is_degraded(0)
        assert scheduler.counts["rejected_infeasible"] == 2

    def test_shed_and_reject_accounting_reconciles(self):
        from repro.tenancy import TenantDirectory, parse_tenants

        directory = TenantDirectory(
            parse_tenants("bulk:best_effort:1,gold:premium:1")
        )
        scheduler = FleetScheduler(
            [make_edge_server()],
            num_sessions=2,
            tenancy=directory,
            admission=AdmissionConfig(queue_limit=1),
        )
        request_of = lambda tick: OffloadRequest(  # noqa: E731
            frame_index=tick, payload_bytes=1000, encode_ms=5.0
        )
        for tick in range(10):
            now = 30.0 * tick
            scheduler.submit(
                tick % 2, request_of(tick), [], (120, 160),
                now, now + 1.0, 33.0, now,
            )
            scheduler.advance(now)
        scheduler.advance(100_000.0)
        counts = scheduler.counts
        # Every submission gets exactly one admission verdict, and every
        # admitted item either completes or is shed (displaced items are
        # a subset of shed) — the books balance on both axes, and the
        # per-tenant meters agree with the fleet counters exactly.
        assert counts["submitted"] == 10
        verdicts = (
            counts["admitted"]
            + counts["rejected_queue_full"]
            + counts["rejected_infeasible"]
            + counts["rejected_no_replica"]
        )
        assert verdicts == counts["submitted"]
        assert counts["completed"] + counts["shed"] == counts["admitted"]
        assert counts["displaced"] <= counts["shed"]
        totals = scheduler.meter.totals()
        for key, value in totals.items():
            assert value == counts[key], key

    def test_drain_completes_admitted_work(self):
        scheduler = self.make_scheduler()
        request = OffloadRequest(frame_index=3, payload_bytes=1000, encode_ms=5.0)
        admitted, _ = scheduler.submit(
            0, request, [], (120, 160), 0.0, 5.0, 100.0, 0.0
        )
        assert admitted
        assert scheduler.advance(0.0) == []  # GPU start (5 ms) still ahead
        outcomes = scheduler.advance(10_000.0)
        assert [o.kind for o in outcomes] == ["complete"]
        assert outcomes[0].item.frame_index == 3
        assert outcomes[0].completion_ms > 5.0
        assert scheduler.counts["completed"] == 1

    def test_shed_expired_queue_entries(self):
        scheduler = self.make_scheduler(
            admission=AdmissionConfig(reject_infeasible=False),
            degrade=DegradeConfig(failure_threshold=1),
        )
        request = OffloadRequest(frame_index=0, payload_bytes=1000, encode_ms=5.0)
        # Two requests, tight deadlines: the first occupies the GPU past
        # both deadlines, so the queued one is shed unrun.
        scheduler.submit(0, request, [], (120, 160), 0.0, 5.0, 33.0, 0.0)
        scheduler.submit(1, request, [], (120, 160), 0.0, 6.0, 33.0, 0.0)
        outcomes = scheduler.advance(10_000.0)
        kinds = sorted(o.kind for o in outcomes)
        assert kinds == ["complete", "shed"]
        assert scheduler.counts["shed"] == 1
        shed = next(o for o in outcomes if o.kind == "shed")
        assert scheduler.is_degraded(shed.item.session_index)

    def test_deterministic_across_runs(self):
        def run_once():
            scheduler = self.make_scheduler(num_sessions=3)
            request = OffloadRequest(
                frame_index=0, payload_bytes=1000, encode_ms=5.0
            )
            for tick in range(20):
                now = tick * 33.0
                scheduler.submit(
                    tick % 3, request, [], (120, 160), now, now + 5.0, 33.0, now
                )
                scheduler.advance(now)
            scheduler.advance(10_000.0)
            return scheduler.stats(10_000.0)

        assert run_once() == run_once()

    def test_stats_shape(self):
        scheduler = self.make_scheduler()
        stats = scheduler.stats(1000.0)
        assert stats["policy"] == "edf"
        assert stats["num_servers"] == 1
        assert stats["submitted"] == 0
        assert stats["per_server"][0]["utilization"] == 0.0
        json.dumps(stats)  # JSON-clean

    def test_recover_under_sustained_saturation_redegrades_cleanly(self):
        """A session recovered while the system is still saturated must
        re-degrade on its next rejection, with the degrade -> recover ->
        degrade trajectory fully mirrored in serve.* events, counters,
        and the reconstructed session timeline."""
        tracer = Tracer()
        scheduler = self.make_scheduler(
            admission=AdmissionConfig(queue_limit=1, reject_infeasible=False),
            # recover_depth above the queue bound: recovery fires even
            # though the queue never drains — the saturation trap.
            degrade=DegradeConfig(
                failure_threshold=1, min_degraded_ms=50.0, recover_depth=8
            ),
            tracer=tracer,
        )
        request = OffloadRequest(frame_index=0, payload_bytes=1000, encode_ms=5.0)

        # t=0: session 0 fills the single queue slot; session 1 is
        # rejected and degrades immediately (threshold 1).
        scheduler.submit(0, request, [], (120, 160), 0.0, 5.0, 33.0, 0.0)
        scheduler.submit(1, request, [], (120, 160), 0.0, 6.0, 33.0, 0.0)
        assert scheduler.is_degraded(1)

        # The first item reaches the GPU and occupies it for hundreds of
        # ms; refill the queue so it stays full through the recovery.
        scheduler.advance(10.0)
        scheduler.submit(0, request, [], (120, 160), 20.0, 25.0, 33.0, 20.0)

        # t=60: min_degraded_ms elapsed, depth (1) <= recover_depth (8)
        # -> session 1 recovers while the queue is still full...
        scheduler.advance(60.0)
        assert not scheduler.is_degraded(1)

        # ...so its next submit is rejected again and re-degrades.
        admitted, status = scheduler.submit(
            1, request, [], (120, 160), 60.0, 66.0, 33.0, 60.0
        )
        assert not admitted and status == REJECT_QUEUE_FULL
        assert scheduler.is_degraded(1)

        # Events, counters and the degrade stats must all agree.
        names = [
            e.name
            for e in tracer.events
            if e.attrs.get("session") == 1 and e.name.startswith("serve.")
        ]
        assert names == [
            "serve.reject",
            "serve.degrade",
            "serve.recover",
            "serve.reject",
            "serve.degrade",
        ]
        assert tracer.metrics.counter("serve.degrade").value == 2
        assert tracer.metrics.counter("serve.recover").value == 1
        stats = scheduler.degrade.stats()
        assert stats["degrade_events"] == 2
        assert stats["recover_events"] == 1
        assert stats["degraded_at_end"] == [1]

        # The ops-report reconstruction sees the same trajectory.
        timeline = next(
            t for t in session_timelines(tracer, duration_ms=100.0)
            if t["session"] == 1
        )
        assert [t["state"] for t in timeline["transitions"]] == [
            "normal",
            "degraded",
            "normal",
            "degraded",
        ]
        assert timeline["final_state"] == "degraded"
        assert timeline["degrades"] == 2
        assert timeline["recovers"] == 1


class TestClientCapabilities:
    def make_client(self):
        from repro.eval.experiments import build_client
        from repro.synthetic import make_dataset

        video = make_dataset("xiph_like", num_frames=10, resolution=(160, 120), seed=0)
        return build_client("baseline+mamt", video, seed=0), video

    def test_offload_disabled_suppresses_attempts(self):
        client, video = self.make_client()
        client.set_offload_enabled(False)
        for index in range(6):
            frame, truth = video.frame_at(index)
            output = client.process_frame(frame, truth, index * 33.0)
            assert output.offload is None

    def test_offload_rejected_frees_slot(self):
        client, video = self.make_client()
        frame, truth = video.frame_at(0)
        output = client.process_frame(frame, truth, 0.0)
        assert output.offload is not None
        before = client._outstanding
        client.offload_rejected(0, 10.0)
        assert client._outstanding == before - 1

    def test_request_keyframe_forces_full_offload(self):
        client, video = self.make_client()
        client.set_offload_enabled(False)
        frame, truth = video.frame_at(0)
        client.process_frame(frame, truth, 0.0)
        client.set_offload_enabled(True)
        client.request_keyframe()
        frame, truth = video.frame_at(1)
        output = client.process_frame(frame, truth, 33.0)
        assert output.offload is not None
        assert output.offload.reason == "recover-keyframe"
        assert output.offload.instructions is None
        # One-shot: the next offload is a normal one.
        client.offload_rejected(1, 40.0)
        frame, truth = video.frame_at(2)
        output = client.process_frame(frame, truth, 66.0)
        if output.offload is not None:
            assert output.offload.reason != "recover-keyframe"

    def test_baseline_clients_implement_offload_rejected(self):
        from repro.baselines.systems import (
            BestEffortEdgeClient,
            EAARClient,
            EdgeDuetClient,
            MobileOnlyClient,
        )

        for cls in (BestEffortEdgeClient, EAARClient, EdgeDuetClient):
            client = cls((120, 160))
            client._outstanding = 1
            client.offload_rejected(0, 0.0)
            assert client._outstanding == 0
        MobileOnlyClient().offload_rejected(0, 0.0)  # no-op, must not raise


class TestFleetExperiment:
    def test_small_fleet_runs_and_reports(self):
        from repro.eval.experiments import FleetSpec, run_fleet

        spec = FleetSpec(
            num_clients=3,
            num_frames=20,
            resolution=(128, 96),
            warmup_frames=5,
            seed=3,
        )
        outcome = run_fleet(spec)
        assert len(outcome.results) == 3
        stats = outcome.scheduler.stats(outcome.duration_ms)
        assert stats["submitted"] > 0
        assert stats["submitted"] == (
            stats["admitted"]
            + stats["rejected_queue_full"]
            + stats["rejected_infeasible"]
        )

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"num_clients": 0}, "num_clients must be >= 1"),
            ({"num_clients": 3, "tenants": "gold:premium:2"}, "session counts"),
            ({"scenario": "meteor-strike"}, "unknown scenario"),
            ({"faults": "cosmic-ray"}, "unknown fault program"),
            ({"network": "wifi_5ghz:5,lte:2"}, "link counts sum to 7"),
            ({"num_clients": 2, "network": "wifi_5ghz:1,5g:1"}, "unknown channel '5g'"),
        ],
    )
    def test_malformed_spec_fails_at_construction(self, kwargs, message):
        from repro.eval.experiments import FleetSpec

        with pytest.raises(ValueError, match=message):
            FleetSpec(**kwargs)

    def test_network_mix_assigns_links_in_session_order(self):
        from repro.eval.experiments import FleetSpec, run_fleet

        outcome = run_fleet(
            FleetSpec(num_clients=3, network="wifi_5ghz:2,lte:1", num_frames=3)
        )
        assert [s.channel.profile.name for s in outcome.sessions] == [
            "wifi_5ghz",
            "wifi_5ghz",
            "lte",
        ]

    def test_dynamic_reaches_every_scene(self):
        from repro.eval.experiments import FleetSpec, run_fleet

        outcome = run_fleet(FleetSpec(num_clients=2, dynamic=True, num_frames=3))
        assert all(",dyn" in s.video.name for s in outcome.sessions)

    def test_fifo_fleet_is_the_fifo_scheduler(self):
        from repro.eval.experiments import FIFO_FLEET, FleetSpec, run_fleet
        from repro.serve import fifo_scheduler

        built = run_fleet(FleetSpec(**FIFO_FLEET, num_clients=1, num_frames=2)).scheduler
        reference = fifo_scheduler([make_edge_server()], num_sessions=1)
        assert built.pool.policy.name == reference.pool.policy.name
        assert built.admission.config == reference.admission.config
        assert built.degrade.config == reference.degrade.config

    def test_channel_rngs_are_independent(self):
        from repro.network import spawn_channel_rngs

        rngs = spawn_channel_rngs(7, 3)
        draws = [rng.uniform() for rng in rngs]
        assert len(set(draws)) == 3
        again = [rng.uniform() for rng in spawn_channel_rngs(7, 3)]
        assert draws == again  # deterministic per (seed, index)


class TestFleetBaselineArtifact:
    """The committed fleet BENCH artifact must certify the tentpole
    claim: under 8-client saturation, deadline-aware scheduling with
    MAMT-fallback degradation strictly beats the FIFO deployment
    on frame-deadline miss rate."""

    @pytest.fixture(scope="class")
    def payload(self):
        assert BASELINE.exists(), "run: repro bench run --suite fleet --label baseline --out benchmarks/baselines"
        return json.loads(BASELINE.read_text())

    def test_scenarios_present(self, payload):
        assert payload["suite"] == "fleet"
        assert {"fifo-1srv", "edf-1srv-degrade", "lq-2srv"} <= set(
            payload["scenarios"]
        )

    def test_deadline_aware_beats_fifo_miss_rate(self, payload):
        fifo = payload["scenarios"]["fifo-1srv"]["slo"]["miss_rate"]
        edf = payload["scenarios"]["edf-1srv-degrade"]["slo"]["miss_rate"]
        assert edf < fifo  # strictly lower

    def test_shed_and_degrade_counts_recorded(self, payload):
        serve = payload["scenarios"]["edf-1srv-degrade"]["serve"]
        assert serve["shed"] + serve["rejected_infeasible"] > 0
        assert serve["shed"] >= 1
        assert serve["degrade"]["degrade_events"] >= 1


class TestFifoConfiguration:
    """The paper's deployment is the scheduler's FIFO configuration:
    nothing is ever rejected, shed or degraded, and service follows
    arrival order."""

    @staticmethod
    def assert_never_refuses(stats):
        for key in (
            "rejected_queue_full",
            "rejected_infeasible",
            "rejected_no_replica",
            "shed",
            "displaced",
        ):
            assert stats[key] == 0, key
        assert stats["degrade"]["degrade_events"] == 0
        assert stats["submitted"] == stats["admitted"]
        assert stats["submitted"] == stats["completed"] + stats["left_in_queue"]

    def pipeline(self, system, num_frames=120, tracer=None):
        from repro.eval.experiments import build_client
        from repro.network import make_channel
        from repro.runtime import Pipeline
        from repro.synthetic import make_dataset

        video = make_dataset("xiph_like", num_frames=num_frames, resolution=(160, 120))
        return Pipeline(
            video,
            build_client(system, video, tracer=tracer),
            make_channel("wifi_5ghz", np.random.default_rng(1)),
            make_edge_server(),
            tracer=tracer,
        )

    def test_pipeline_run_never_refuses(self):
        # edge_best_effort offloads every frame it can, so the queue
        # still holds work when the run ends.
        pipeline = self.pipeline("edge_best_effort")
        result = pipeline.run()
        stats = pipeline.scheduler.stats(result.duration_ms)
        assert stats["policy"] == "round_robin"
        assert stats["submitted"] == result.offload_count > 0
        self.assert_never_refuses(stats)
        assert 0.0 < result.server_utilization() <= 1.0
        assert stats["per_server"][0]["utilization"] <= 1.0

    def test_fifo_cell_never_refuses(self):
        from dataclasses import replace

        from repro.eval.experiments import run_fleet
        from repro.eval.suites import suite_cells

        (cell,) = suite_cells("fleet", scenario="fifo-1srv")
        outcome = run_fleet(replace(cell.spec, num_frames=30, resolution=(128, 96)))
        self.assert_never_refuses(outcome.scheduler.stats(outcome.duration_ms))
        payload = json.loads(BASELINE.read_text())
        self.assert_never_refuses(payload["scenarios"]["fifo-1srv"]["serve"])

    def test_one_in_flight_service_starts_at_arrival_or_previous_completion(self):
        tracer = Tracer()
        self.pipeline("edgeis", tracer=tracer).run()
        arrivals = {
            event.ctx.trace_id: event.ts_ms
            for event in tracer.events
            if event.name == "server.queue_enter"
        }
        infers = sorted(
            (span for span in tracer.spans if span.name == "server.infer"),
            key=lambda span: span.start_ms,
        )
        assert len(infers) >= 2
        previous_end = 0.0
        for span in infers:
            expected = max(arrivals[span.ctx.trace_id], previous_end)
            assert span.start_ms == pytest.approx(expected, abs=1e-9)
            previous_end = span.start_ms + span.dur_ms


class TestBatchConfig:
    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_size"):
            BatchConfig(max_size=0).validate()
        with pytest.raises(ValueError, match="window_ms"):
            BatchConfig(window_ms=-1.0).validate()
        with pytest.raises(ValueError, match="alpha"):
            BatchConfig(alpha=0.0).validate()
        with pytest.raises(ValueError, match="alpha"):
            BatchConfig(alpha=1.5).validate()

    def test_batch_of_one_is_exactly_solo(self):
        # The analytical anchor of the max_batch_size=1 byte-identity
        # contract: size 1 collapses the model to the solo estimate.
        assert estimate_batch_ms(350.0, 80.0, 1, 0.8) == 350.0
        # Also where the device's setup share exceeds the estimate.
        assert estimate_batch_ms(350.0, 727.0, 1, 0.8) == 350.0

    def test_sublinear_amortization(self):
        solo, setup = 350.0, 80.0
        for size in (2, 3, 4):
            batched = estimate_batch_ms(solo, setup, size, 0.8)
            assert batched > estimate_batch_ms(solo, setup, size - 1, 0.8)
            assert batched < size * solo  # cheaper than size solo calls


class TestBatchDispatch:
    """Unit-level invariants of FleetScheduler._dispatch_batch."""

    def make_scheduler(self, batching, **kwargs):
        kwargs.setdefault("num_sessions", 4)
        return FleetScheduler([make_edge_server()], batching=batching, **kwargs)

    def submit(self, scheduler, session, send_ms, budget_ms=33.0):
        request = OffloadRequest(
            frame_index=session, payload_bytes=1000, encode_ms=5.0
        )
        admitted, status = scheduler.submit(
            session, request, [], (120, 160), send_ms, send_ms + 5.0,
            budget_ms, send_ms,
        )
        assert admitted, status

    def test_coalesces_queue_into_one_batch(self):
        scheduler = self.make_scheduler(
            BatchConfig(window_ms=10.0, max_size=3),
            admission=AdmissionConfig(deadline_horizon=100.0),
        )
        for session in range(3):
            self.submit(scheduler, session, float(session))
        outcomes = scheduler.advance(10_000.0)
        assert [o.kind for o in outcomes] == ["complete"] * 3
        assert scheduler.counts["batches"] == 1
        assert scheduler.counts["batched_items"] == 3
        assert scheduler.counts["batch_saved_ms"] > 0.0
        # One batch: every member lands at the same completion instant.
        assert len({o.completion_ms for o in outcomes}) == 1

    def test_batch_members_complete_in_edf_order(self):
        scheduler = self.make_scheduler(
            BatchConfig(window_ms=10.0, max_size=3),
            admission=AdmissionConfig(deadline_horizon=100.0),
        )
        # Simultaneous arrivals submitted in the *reverse* of deadline
        # order: the head and the outcome sequence must still follow EDF.
        for session, budget in enumerate((40.0, 30.0, 20.0)):
            self.submit(scheduler, session, 0.0, budget_ms=budget)
        outcomes = scheduler.advance(10_000.0)
        deadlines = [o.item.deadline_ms for o in outcomes]
        assert len(deadlines) == 3
        assert deadlines == sorted(deadlines)

    def test_window_defers_dispatch_in_simulated_time(self):
        scheduler = self.make_scheduler(
            BatchConfig(window_ms=25.0, max_size=4),
            admission=AdmissionConfig(deadline_horizon=100.0),
        )
        self.submit(scheduler, 0, 0.0)
        # The request is servable at arrival (t=5) but the window holds
        # it open for co-riders until t=30; advancing to t<30 must not
        # dispatch, and a second arrival inside the window joins.
        assert scheduler.advance(10.0) == []
        assert scheduler.counts["batches"] == 0
        self.submit(scheduler, 1, 15.0)
        outcomes = scheduler.advance(10_000.0)
        assert len(outcomes) == 2
        assert scheduler.counts["batches"] == 1
        assert scheduler.counts["batched_items"] == 2

    def test_tight_deadline_refuses_joiner(self):
        # Head deadline leaves ~20 ms of estimated slack over its solo
        # service: growing to a batch of two would push the estimated
        # completion past it (urgency(2, .) is in the past), so the
        # joiner must ride alone — batching never *induces* a miss that
        # solo service was estimated to avoid.
        def run(head_budget):
            scheduler = self.make_scheduler(
                BatchConfig(window_ms=40.0, max_size=4),
                admission=AdmissionConfig(deadline_horizon=1.0),
            )
            self.submit(scheduler, 0, 0.0, budget_ms=head_budget)
            self.submit(scheduler, 1, 1.0, budget_ms=10_000.0)
            outcomes = scheduler.advance(50_000.0)
            assert [o.kind for o in outcomes] == ["complete", "complete"]
            return scheduler

        prior = AdmissionConfig()
        slack = prior.est_infer_prior_ms + prior.est_downlink_ms
        tight = run(slack + 20.0)
        assert tight.counts["batches"] == 2  # two singleton batches
        assert tight.counts["batched_items"] == 2
        # Control: the identical workload with a loose head deadline
        # coalesces — the refusal above was deadline-driven, not noise.
        loose = run(10_000.0)
        assert loose.counts["batches"] == 1
        assert loose.counts["batched_items"] == 2

    def test_full_batch_leaves_without_waiting_out_the_window(self):
        scheduler = self.make_scheduler(
            BatchConfig(window_ms=1_000.0, max_size=2),
            admission=AdmissionConfig(deadline_horizon=100.0),
        )
        self.submit(scheduler, 0, 0.0)
        self.submit(scheduler, 1, 1.0)
        # Window nominally open until ~1006 ms, but the batch is full at
        # t=6 (both arrivals): it must dispatch long before the window.
        outcomes = scheduler.advance(20.0)
        assert scheduler.counts["batches"] == 1
        assert scheduler.counts["batched_items"] == 2
        assert len(outcomes) in (0, 2)  # completion may still be ahead
        outcomes += scheduler.advance(10_000.0)
        assert len(outcomes) == 2

    def test_backlog_costs_queue_at_amortized_batch_rate(self):
        batching = BatchConfig(window_ms=10.0, max_size=4)
        replica = ServerReplica(0, make_edge_server(), 350.0, batching=batching)
        per_item = replica.est_batch_ms(4) / 4
        assert per_item == pytest.approx(
            estimate_batch_ms(
                350.0, replica.server.batch_setup_ms(), 4, batching.alpha
            )
            / 4
        )
        assert per_item < replica.est_infer_ms  # amortization is real
        replica.server.free_at_ms = 50.0
        replica.queue = [make_item(seq=i, arrive_ms=0.0) for i in range(2)]
        assert replica.backlog_ms(0.0) == pytest.approx(50.0 + 2 * per_item)

    def test_backlog_sees_in_flight_batch(self):
        scheduler = self.make_scheduler(
            BatchConfig(window_ms=10.0, max_size=3),
            admission=AdmissionConfig(deadline_horizon=100.0),
        )
        for session in range(3):
            self.submit(scheduler, session, float(session))
        scheduler.advance(20.0)  # batch dispatched, completion ahead
        replica = scheduler.pool.replicas[0]
        assert scheduler.counts["batches"] == 1
        assert not replica.queue
        assert replica.server.free_at_ms > 20.0
        # The running batch's residual service time is the whole backlog.
        assert replica.backlog_ms(20.0) == pytest.approx(
            replica.server.free_at_ms - 20.0
        )

    def test_straggler_inflates_batched_estimate_like_unbatched(self):
        # set_latency_scale's contract: the admission EMA observes the
        # inflated service time, on a batching replica as on any other.
        def estimate_after_one(batching, scale):
            scheduler = self.make_scheduler(
                batching, admission=AdmissionConfig(deadline_horizon=100.0)
            )
            scheduler.set_latency_scale(0, scale)
            self.submit(scheduler, 0, 0.0)
            outcomes = scheduler.advance(100_000.0)
            assert [o.kind for o in outcomes] == ["complete"]
            return scheduler.pool.replicas[0].est_infer_ms

        batched = estimate_after_one(BatchConfig(max_size=3), 4.0)
        assert batched == estimate_after_one(None, 4.0)
        assert batched > estimate_after_one(BatchConfig(max_size=3), 1.0)

    def test_batched_fraction_counts_only_shared_batches(self):
        scheduler = self.make_scheduler(
            BatchConfig(window_ms=10.0, max_size=3),
            admission=AdmissionConfig(deadline_horizon=100.0),
        )
        # A pair coalesces inside the window; a later request rides alone.
        self.submit(scheduler, 0, 0.0)
        self.submit(scheduler, 1, 1.0)
        scheduler.advance(10_000.0)
        self.submit(scheduler, 2, 10_001.0)
        scheduler.advance(20_000.0)
        batching = scheduler.stats(20_000.0)["batching"]
        assert batching["batches"] == 2
        assert batching["batched_items"] == 3
        assert batching["batched_fraction"] == round(2 / 3, 6)

    def test_stats_report_batching_section(self):
        scheduler = self.make_scheduler(
            BatchConfig(window_ms=10.0, max_size=3),
            admission=AdmissionConfig(deadline_horizon=100.0),
        )
        for session in range(3):
            self.submit(scheduler, session, float(session))
        scheduler.advance(10_000.0)
        stats = scheduler.stats(10_000.0)
        batching = stats["batching"]
        assert batching["batches"] == 1
        assert batching["batched_items"] == 3
        assert batching["mean_batch_size"] == 3.0
        assert batching["batched_fraction"] == 1.0
        assert batching["batch_saved_ms"] > 0.0
        assert stats["per_server"][0]["batches"] == 1
        json.dumps(stats)  # JSON-clean


class TestBatchingFleet:
    """End-to-end batching contracts at the fleet level."""

    @staticmethod
    def fleet_fingerprint(outcome):
        """JSON string capturing everything schedule-dependent about a
        fleet run: scheduler stats plus per-session, per-frame metrics."""
        payload = {
            "stats": outcome.scheduler.stats(outcome.duration_ms),
            "results": [
                {
                    "offloads": result.offload_count,
                    "bytes_up": result.bytes_up,
                    "bytes_down": result.bytes_down,
                    "server_busy_ms": round(result.server_busy_ms, 9),
                    "frames": [
                        (
                            frame.frame_index,
                            round(frame.latency_ms, 9),
                            round(frame.mean_iou, 9),
                            frame.offloaded,
                        )
                        for frame in result.frames
                    ],
                }
                for result in outcome.results
            ],
        }
        return json.dumps(payload, sort_keys=True)

    def test_max_batch_size_one_is_byte_identical(self):
        from repro.eval.experiments import FleetSpec, run_fleet

        base = dict(
            num_clients=3,
            num_frames=20,
            resolution=(128, 96),
            warmup_frames=5,
            seed=3,
        )
        unbatched = run_fleet(FleetSpec(**base))
        inert = run_fleet(
            FleetSpec(**base, batch_window_ms=40.0, max_batch_size=1)
        )
        assert self.fleet_fingerprint(unbatched) == self.fleet_fingerprint(
            inert
        )
        # max_size=1 disables batching outright: no batching section.
        assert "batching" not in inert.scheduler.stats()

    def test_batching_fleet_produces_real_batches(self):
        from repro.eval.experiments import FleetSpec, run_fleet

        outcome = run_fleet(
            FleetSpec(
                num_clients=8,
                num_frames=30,
                resolution=(160, 120),
                warmup_frames=5,
                queue_limit=6,
                deadline_horizon=36.0,
                batch_window_ms=20.0,
                max_batch_size=3,
                seed=0,
            )
        )
        stats = outcome.scheduler.stats(outcome.duration_ms)
        assert stats["batching"]["batches"] >= 1
        assert stats["batching"]["mean_batch_size"] > 1.0
        assert stats["batching"]["batch_saved_ms"] > 0.0

    def test_baseline_batch_cell_dominates_unbatched_edf(self):
        """The committed fleet artifact certifies the batching tentpole:
        same EDF config apart from the window, equal-or-better frame
        miss rate, and strictly less server busy time per completion."""
        assert BASELINE.exists()
        payload = json.loads(BASELINE.read_text())
        batch = payload["scenarios"]["edf-1srv-batch"]
        plain = payload["scenarios"]["edf-1srv-degrade"]
        for knob in ("policy", "queue_limit", "deadline_horizon"):
            assert batch["spec"][knob] == plain["spec"][knob]
        assert batch["spec"]["max_batch_size"] > 1
        assert batch["slo"]["miss_rate"] <= plain["slo"]["miss_rate"]

        def busy_per_completed(cell):
            serve = cell["serve"]
            busy = sum(s["busy_ms"] for s in serve["per_server"])
            return busy / serve["completed"]

        assert busy_per_completed(batch) < busy_per_completed(plain)
        assert batch["serve"]["batching"]["batches"] >= 1
        assert batch["serve"]["batching"]["batch_saved_ms"] > 0.0
