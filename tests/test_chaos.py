"""Chaos layer: scenario registry, fault injection, byte-determinism.

Covers the three contracts of ``repro.chaos``:

* the declarative registries (scenarios, fault programs) are valid and
  the ``chaos`` bench suite spans their full cross product;
* the injector applies faults at exact sim-clock instants against the
  fleet scheduler (kill/revive, straggler on/off, stall markers);
* chaos runs are byte-deterministic — running any scenario twice yields
  identical artifacts after :func:`strip_timing`.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    FAULT_KINDS,
    FAULTS,
    SCENARIOS,
    ChaosInjector,
    FaultSpec,
    LightingShiftTexture,
    build_video,
    make_faults,
    make_scenario,
)
from repro.eval.experiments import FleetSpec, run_fleet
from repro.eval.suites import SUITES, BenchCell, _certify_chaos, run_cell
from repro.obs.bench import dump_bench, strip_timing


class TestRegistries:
    def test_every_scenario_resolves(self):
        for name in SCENARIOS:
            spec = make_scenario(name)
            assert spec.name == name
            assert spec.summary

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("nope")

    def test_unknown_fault_program_raises(self):
        with pytest.raises(ValueError, match="unknown fault program"):
            make_faults("nope")

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", at_ms=0.0)
        with pytest.raises(ValueError, match="duration_ms"):
            FaultSpec("straggler", at_ms=0.0, duration_ms=0.0)
        with pytest.raises(ValueError, match="factor"):
            FaultSpec("straggler", at_ms=0.0, duration_ms=10.0, factor=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec("kill_replica", at_ms=-1.0)

    def test_every_program_uses_known_kinds(self):
        for program in FAULTS.values():
            for fault in program:
                assert fault.kind in FAULT_KINDS

    def test_chaos_suite_spans_full_matrix(self):
        """The chaos bench suite covers every scenario x fault cell of the
        registries, exactly once."""
        cells = {(c.spec.scenario, c.spec.faults) for c in SUITES["chaos"]}
        assert cells == {(s, f) for s in SCENARIOS for f in FAULTS}
        assert len(SUITES["chaos"]) == len(SCENARIOS) * len(FAULTS)
        names = [c.name for c in SUITES["chaos"]]
        assert len(names) == len(set(names))


class TestScenarioWorlds:
    def test_crowd_adds_objects_above_catalog_ids(self):
        video = build_video(make_scenario("crowded-occlusion"), num_frames=2, seed=0)
        ids = {o.instance_id for o in video.world.objects if not o.is_background}
        assert len([i for i in ids if i >= 40]) == 5

    def test_transients_enter_and_leave_frame(self):
        video = build_video(
            make_scenario("transit"), num_frames=90, resolution=(160, 120), seed=0
        )
        transient_ids = {
            o.instance_id
            for o in video.world.objects
            if o.instance_id >= 50
        }
        assert transient_ids
        # Visible in some frames but not all: the walkers cross through.
        seen_per_frame = []
        for index in range(0, 90, 6):
            _, truth = video.frame_at(index)
            seen_per_frame.append(
                bool(transient_ids & {m.instance_id for m in truth.masks})
            )
        assert any(seen_per_frame)
        assert not all(seen_per_frame)

    def test_lighting_flip_darkens_after_shift(self):
        spec = make_scenario("lighting-flip")
        video = build_video(spec, num_frames=40, resolution=(96, 72), seed=0)
        fps = video.fps
        before_index = int(spec.lighting_shift_at_s * fps) - 6
        after_index = int(spec.lighting_shift_at_s * fps) + 6
        frame_before, _ = video.frame_at(before_index)
        frame_after, _ = video.frame_at(after_index)
        assert frame_after.image.mean() < frame_before.image.mean() * 0.8

    def test_lighting_wrapper_is_time_gated(self):
        class Flat:
            def sample(self, u, v):
                import numpy as np

                return np.full((len(u), 3), 200.0)

        wrapped = LightingShiftTexture(Flat(), at_s=1.0, gain=0.5)
        import numpy as np

        u = v = np.zeros(4)
        wrapped.set_time(0.5)
        assert wrapped.sample(u, v).max() == 200.0
        wrapped.set_time(1.0)
        assert wrapped.sample(u, v).max() == 100.0

    def test_whip_pan_uses_whip_grade(self):
        assert make_scenario("whip-pan").motion_grade == "whip"


class _StubServer:
    def __init__(self):
        self.latency_scale = 1.0


class _StubReplica:
    def __init__(self, index):
        self.index = index
        self.server = _StubServer()


class _StubScheduler:
    """Records the injector's calls without running a fleet."""

    def __init__(self, num_servers=2):
        class Pool:
            replicas = [_StubReplica(i) for i in range(num_servers)]

        self.pool = Pool()
        self.calls = []

    def kill_replica(self, index, now_ms):
        self.calls.append(("kill", index, now_ms))
        return 3

    def revive_replica(self, index, now_ms):
        self.calls.append(("revive", index, now_ms))

    def set_latency_scale(self, index, scale):
        self.calls.append(("scale", index, scale))


class TestInjector:
    def test_kill_and_revive_at_exact_ticks(self):
        faults = (FaultSpec("kill_replica", at_ms=100.0, duration_ms=200.0, target=1),)
        injector = ChaosInjector(faults)
        scheduler = _StubScheduler()
        injector.bind(scheduler, [])
        injector.tick(0.0)
        assert scheduler.calls == []
        injector.tick(100.0)
        assert scheduler.calls == [("kill", 1, 100.0)]
        injector.tick(150.0)  # inside the outage: nothing new
        assert len(scheduler.calls) == 1
        injector.tick(300.0)
        assert scheduler.calls[-1] == ("revive", 1, 300.0)
        injector.tick(400.0)  # one-shot: no re-application
        assert len(scheduler.calls) == 2
        assert [e["event"] for e in injector.log] == [
            "replica_killed",
            "replica_revived",
        ]
        assert injector.log[0]["orphaned"] == 3

    def test_straggler_scale_set_and_restored(self):
        faults = (
            FaultSpec("straggler", at_ms=50.0, duration_ms=100.0, target=0, factor=4.0),
        )
        injector = ChaosInjector(faults)
        scheduler = _StubScheduler()
        injector.bind(scheduler, [])
        injector.tick(60.0)
        injector.tick(160.0)
        assert scheduler.calls == [("scale", 0, 4.0), ("scale", 0, 1.0)]

    def test_permanent_kill_never_revives(self):
        faults = (FaultSpec("kill_replica", at_ms=10.0, target=0),)  # no duration
        injector = ChaosInjector(faults)
        scheduler = _StubScheduler()
        injector.bind(scheduler, [])
        injector.tick(10.0)
        injector.tick(10_000.0)
        assert [c[0] for c in scheduler.calls] == ["kill"]

    def test_stall_prescheduled_on_every_channel(self):
        from repro.network.channel import make_channel

        class Session:
            def __init__(self):
                self.channel = make_channel("wifi_5ghz")

        faults = (FaultSpec("stall_channel", at_ms=100.0, duration_ms=50.0, target=-1),)
        injector = ChaosInjector(faults)
        sessions = [Session(), Session()]
        injector.bind(_StubScheduler(), sessions)
        for session in sessions:
            assert session.channel._stalls == [(100.0, 150.0)]
        # Tick records the window markers without touching the scheduler.
        injector.tick(100.0)
        injector.tick(200.0)
        assert [e["event"] for e in injector.log] == [
            "channel_stalled",
            "channel_restored",
        ]

    def test_targeted_stall_hits_one_session(self):
        from repro.network.channel import make_channel

        class Session:
            def __init__(self):
                self.channel = make_channel("wifi_5ghz")

        faults = (FaultSpec("stall_channel", at_ms=10.0, duration_ms=5.0, target=1),)
        injector = ChaosInjector(faults)
        sessions = [Session(), Session()]
        injector.bind(_StubScheduler(), sessions)
        assert sessions[0].channel._stalls == []
        assert sessions[1].channel._stalls == [(10.0, 15.0)]


class TestFleetFaultPlumbing:
    def test_fault_target_out_of_range(self, monkeypatch):
        import repro.eval.experiments as exp

        bad = (FaultSpec("kill_replica", at_ms=10.0, duration_ms=5.0, target=3),)
        monkeypatch.setattr(exp, "make_faults", lambda name: bad)
        with pytest.raises(ValueError, match="out of range"):
            FleetSpec(num_clients=1, num_frames=2, num_servers=1)

    def test_replica_outage_end_to_end(self):
        """Kill the only replica mid-run: submissions are rejected with
        reject-no-replica, sessions degrade, and after revive the fleet
        recovers (scheduler sees live replicas again)."""
        spec = FleetSpec(
            num_clients=2,
            num_frames=50,
            resolution=(96, 72),
            warmup_frames=4,
            num_servers=1,
            faults="replica-outage",
            trace=True,
        )
        outcome = run_fleet(spec)
        stats = outcome.scheduler.stats()
        assert stats["replica_kills"] == 1
        assert stats["replica_revives"] == 1
        assert stats["per_server"][0]["alive"] is True  # revived by the end
        events = [e["event"] for e in outcome.chaos.log]
        assert events == ["replica_killed", "replica_revived"]
        # The outage window rejected at least one offload for lack of a
        # live replica.
        assert stats["rejected_no_replica"] >= 1

    def test_straggler_inflates_then_restores_service(self):
        spec = FleetSpec(
            num_clients=2,
            num_frames=50,
            resolution=(96, 72),
            warmup_frames=4,
            num_servers=2,
            faults="straggler",
            trace=True,
        )
        outcome = run_fleet(spec)
        # Restored by the end of the program.
        for replica in outcome.scheduler.pool.replicas:
            assert replica.server.latency_scale == 1.0
        events = [e["event"] for e in outcome.chaos.log]
        assert events == ["straggler_on", "straggler_off"]


# One distinct fault per scenario: the pairs rotate through the fault
# programs so the determinism property exercises all of them without
# running the full 20-cell matrix twice.
_DETERMINISM_PAIRS = [
    (scenario, sorted(FAULTS)[i % len(FAULTS)])
    for i, scenario in enumerate(sorted(SCENARIOS))
]


class TestByteDeterminism:
    @pytest.mark.parametrize(
        "scenario_name,fault_name",
        _DETERMINISM_PAIRS,
        ids=[f"{s}+{f}" for s, f in _DETERMINISM_PAIRS],
    )
    def test_same_cell_twice_is_byte_identical(self, scenario_name, fault_name):
        cell = BenchCell(
            f"{scenario_name}+{fault_name}",
            FleetSpec(
                num_clients=2,
                num_frames=24,
                resolution=(96, 72),
                warmup_frames=4,
                num_servers=2,
                scenario=scenario_name,
                faults=fault_name,
            ),
            slo_target=0.25,
        )
        first = {"scenarios": {cell.name: run_cell(cell)[0]}}
        second = {"scenarios": {cell.name: run_cell(cell)[0]}}
        assert dump_bench(strip_timing(first)) == dump_bench(strip_timing(second))

    def test_chaos_payload_section_present_and_json_clean(self):
        import json

        cell = BenchCell(
            "wifi-to-lte+uplink-stall",
            FleetSpec(
                num_clients=2,
                num_frames=24,
                resolution=(96, 72),
                warmup_frames=4,
                num_servers=1,
                scenario="wifi-to-lte",
                faults="uplink-stall",
            ),
            slo_target=0.25,
        )
        payload, _ = run_cell(cell)
        chaos = payload["chaos"]
        assert chaos["scenario"] == "wifi-to-lte"
        assert chaos["fault"] == "uplink-stall"
        assert 0.0 < chaos["slo_target"] <= 1.0
        assert isinstance(chaos["certified"], bool)
        json.dumps(chaos)  # must be JSON-clean
        assert payload["spec"]["chaos_scenario"] == "wifi-to-lte"
        assert payload["spec"]["network"] == "wifi_5ghz"  # registry's choice


class TestChaosCertification:
    def test_filtered_cell_certifies(self):
        """One scenario x fault cell of the suite runs end to end and the
        suite certifier passes it as a single check."""
        cell = next(c for c in SUITES["chaos"] if c.name == "lighting-flip+straggler")
        payload, _ = run_cell(cell)
        certification = _certify_chaos({"scenarios": {cell.name: payload}})
        assert certification["certified"] is True
        assert list(certification["checks"]) == [cell.name]
        check = certification["checks"][cell.name]
        assert check["ok"] and check["consumed_fraction"] < 1.0
        assert check["slo_target"] == 0.25

    def test_one_blown_budget_fails_the_suite(self):
        def cell(certified: bool) -> dict:
            return {
                "chaos": {"certified": certified, "slo_target": 0.25, "events": []},
                "budget": {"consumed_fraction": 0.5 if certified else 1.5},
                "slo": {"miss_rate": 0.1},
            }

        certification = _certify_chaos(
            {"scenarios": {"held": cell(True), "blown": cell(False)}}
        )
        assert certification["certified"] is False
        assert certification["checks"]["held"]["ok"] is True
        assert certification["checks"]["blown"]["ok"] is False
