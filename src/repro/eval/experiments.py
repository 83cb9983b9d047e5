"""Experiment harness: state a run as a spec, assemble it in one place
and aggregate the metrics every figure reproduces.

An :class:`ExperimentSpec` is one device against one edge (paper Fig
9/11); a :class:`FleetSpec` is many devices sharing the edge (Section
VI-G) behind a ``repro.serve`` scheduler.  One function assembles both
into the one frame loop, :class:`~repro.runtime.multi.MultiClientPipeline`:
a single-client run is the one-session FIFO fleet of one replica.

Every benchmark under ``benchmarks/`` is a thin wrapper over this module,
so the same machinery is importable for ad-hoc studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.systems import (
    BestEffortEdgeClient,
    EAARClient,
    EdgeDuetClient,
    MobileOnlyClient,
)
from ..chaos import ChaosInjector, apply_network, build_video, make_faults, make_scenario
from ..core.config import SystemConfig
from ..core.system import EdgeISSystem
from ..model.costs import DEVICES, DeviceProfile
from ..model.maskrcnn import SimulatedSegmentationModel
from ..network.channel import CHANNELS, make_channel, spawn_channel_rngs
from ..obs.timeline import TimelineSampler
from ..obs.trace import NULL_TRACER, Tracer
from ..runtime.multi import ClientSession, MultiClientPipeline
from ..runtime.pipeline import EdgeServer, RunResult
from ..runtime.resources import DEVICE_POWER, ResourceMonitor
from ..serve import AdmissionConfig, BatchConfig, DegradeConfig, FleetScheduler
from ..serve import FIFO_DEADLINE_HORIZON, FIFO_POLICY, FIFO_QUEUE_LIMIT
from ..tenancy import Autoscaler, AutoscalerConfig, TenantDirectory, parse_tenants
from ..synthetic.datasets import make_complexity_scene, make_dataset
from ..synthetic.world import SyntheticVideo

__all__ = [
    "SYSTEM_NAMES",
    "ABLATION_NAMES",
    "ExperimentSpec",
    "FIFO_FLEET",
    "FleetSpec",
    "FleetOutcome",
    "build_client",
    "run_experiment",
    "run_fleet",
]

SYSTEM_NAMES = (
    "edgeis",
    "eaar",
    "edgeduet",
    "edge_best_effort",
    "mobile_only",
)

# Fig. 16 variants: the baseline plus each module individually.
ABLATION_NAMES = (
    "baseline",
    "baseline+cfrs",
    "baseline+ciia",
    "baseline+mamt",
    "edgeis",
)


def build_client(
    name: str,
    video: SyntheticVideo,
    seed: int = 0,
    tracer: Tracer | None = None,
):
    """Instantiate a client system by name for the given video."""
    shape = (video.camera.height, video.camera.width)
    if name == "edgeis" or name.startswith("baseline"):
        config = SystemConfig(seed=seed)
        if name != "edgeis":
            config.use_mamt = "mamt" in name
            config.use_ciia = "ciia" in name
            config.use_cfrs = "cfrs" in name
        return EdgeISSystem(
            video.camera, shape, config=config, world=video.world, tracer=tracer
        )
    if name == "eaar":
        return EAARClient(shape, np.random.default_rng(seed + 100))
    if name == "edgeduet":
        return EdgeDuetClient(shape, np.random.default_rng(seed + 200))
    if name == "edge_best_effort":
        return BestEffortEdgeClient(shape, np.random.default_rng(seed + 300))
    if name == "mobile_only":
        return MobileOnlyClient(np.random.default_rng(seed + 400))
    raise ValueError(f"unknown system {name!r}")


@dataclass
class _RunSpec:
    """What every run states: the client system, its scene, its link,
    the edge device, the run length and the observability switches.

    The defaults are the paper's single-device cell; :class:`FleetSpec`
    restates its own.
    """

    system: str
    dataset: str = "xiph_like"
    network: str = "wifi_5ghz"
    num_frames: int = 180
    resolution: tuple[int, int] = (320, 240)
    motion_grade: str = "walk"
    dynamic: bool | None = None
    server_device: str = "jetson_tx2"
    # Synthetic slowdown of the edge device (the bench degrade knob):
    # the server's speed is divided by this, so 2.0 doubles inference
    # latency.  Used to self-test the perf regression gate.
    server_latency_scale: float = 1.0
    warmup_frames: int = 45
    seed: int = 0
    # Observability: record a frame-level trace of the run (off by
    # default; the no-op tracer keeps the disabled path overhead-free).
    trace: bool = False
    trace_wall_clock: bool = False
    # Snapshot gauges/counters into fixed-interval time series every
    # this many simulated ms (None = no timeline; requires trace=True
    # for the registry to be live).
    sample_interval_ms: float | None = None

    def session_networks(self) -> list[str]:
        """Each session's channel name, in session order."""
        return [self.network]

    def __post_init__(self) -> None:
        """Reject what the run cannot assemble, so a malformed spec fails
        at construction rather than mid-suite."""
        unknown = sorted(set(self.session_networks()) - set(CHANNELS))
        if unknown:
            raise ValueError(f"unknown channel {unknown[0]!r}; pick from {sorted(CHANNELS)}")


@dataclass
class ExperimentSpec(_RunSpec):
    """One device against one edge: one cell of an experiment grid.

    Its defaults are the shared ones: 180 frames at 320x240, 45 warm-up
    frames.  It always runs as the one-session FIFO fleet of one replica
    (see :func:`_assemble`), so it has no serving field."""

    complexity: str | None = None  # use make_complexity_scene instead
    monitor_resources: bool = False
    power_device: str = "iphone_11"


@dataclass
class FleetSpec(_RunSpec):
    """A multi-client serving experiment: the paper's Section VI-G
    topology behind a ``repro.serve`` scheduler.  The paper's own FIFO
    deployment is ``FleetSpec(**FIFO_FLEET, ...)``."""

    system: str = "baseline+mamt"
    num_frames: int = 60
    resolution: tuple[int, int] = (160, 120)
    warmup_frames: int = 10
    num_clients: int = 8
    # Serving-layer knobs.
    num_servers: int = 1
    policy: str = "edf"
    queue_limit: int = 4
    deadline_horizon: float = 12.0
    degrade: bool = True
    # Cross-session batching (repro.serve.batching): a replica may hold a
    # servable request up to ``batch_window_ms`` to coalesce compatible
    # queued requests into one batch of at most ``max_batch_size``.
    # ``max_batch_size=1`` serves every request alone (a batch of one).
    batch_window_ms: float = 0.0
    max_batch_size: int = 1
    # Chaos (repro.chaos): an adversarial scenario name replaces the
    # plain catalog scene, and a named fault program injects serving
    # faults on the simulated clock.  ``None``/``"none"`` leave the run
    # byte-identical to a chaos-free fleet.
    scenario: str | None = None
    faults: str = "none"
    # Tenancy (repro.tenancy): a "name:qos:count[,...]" directory over
    # the fleet's sessions.  Counts must sum to ``num_clients``; None
    # runs tenancy-free and byte-identical to the pre-tenancy fleet.
    tenants: str | None = None
    # Queue-driven autoscaling (repro.tenancy.Autoscaler): the pool is
    # provisioned with ``autoscale_max`` replicas, ``autoscale_min``
    # start live and the rest stand by; ``num_servers`` is ignored when
    # autoscaling is on.
    autoscale: bool = False
    autoscale_min: int = 1
    autoscale_max: int = 4
    autoscale_up_depth: float = 2.0
    autoscale_warmup_ms: float = 200.0
    autoscale_hold_ms: float = 1000.0

    @property
    def provisioned_servers(self) -> int:
        """Replicas the pool is built with: ``autoscale_max`` (standbys
        included) when autoscaling, else ``num_servers``."""
        return self.autoscale_max if self.autoscale else self.num_servers

    def session_networks(self) -> list[str]:
        """Each session's channel name, in session order: ``network`` is
        one channel name for every session, or a "name:count[,...]" mix
        whose counts sum to ``num_clients``, session i taking the i-th
        link in expansion order ("wifi_5ghz:5,lte:3" is the paper's field
        fleet)."""
        if ":" not in self.network:
            return [self.network] * self.num_clients
        names = []
        for part in self.network.split(","):
            name, _, count = part.partition(":")
            if not count.isdigit():
                raise ValueError(f"bad network mix entry {part!r}; expected name:count")
            names += [name.strip()] * int(count)
        return names

    def __post_init__(self) -> None:
        """Also reject cross-field combinations the fleet cannot run."""
        super().__post_init__()
        if self.num_clients < 1:
            raise ValueError("FleetSpec.num_clients must be >= 1")
        networks = self.session_networks()
        if len(networks) != self.num_clients:
            raise ValueError(
                f"network link counts sum to {len(networks)} "
                f"but the fleet has num_clients={self.num_clients}"
            )
        if self.tenants is not None:
            tenancy = TenantDirectory(list(parse_tenants(self.tenants)))
            if tenancy.num_sessions != self.num_clients:
                raise ValueError(
                    f"tenant session counts sum to {tenancy.num_sessions} "
                    f"but the fleet has num_clients={self.num_clients}"
                )
        if self.scenario is not None:
            make_scenario(self.scenario)
        for fault in make_faults(self.faults):
            if fault.kind in ("kill_replica", "straggler") and not (
                0 <= fault.target < self.provisioned_servers
            ):
                raise ValueError(
                    f"fault target {fault.target} out of range for "
                    f"{self.provisioned_servers} server(s)"
                )


# The paper's deployment (Section VI-G) as FleetSpec fields: FIFO
# service, nothing rejected, shed or degraded (``repro.serve.FIFO_POLICY``).
FIFO_FLEET = {
    "policy": FIFO_POLICY,
    "queue_limit": FIFO_QUEUE_LIMIT,
    "deadline_horizon": FIFO_DEADLINE_HORIZON,
    "degrade": False,
}

# The serving layer of every single-client run: one session against one
# FIFO replica.  Only its serving fields are read.
_SOLO_SERVING = FleetSpec(num_clients=1, **FIFO_FLEET)


@dataclass
class ExperimentOutcome:
    spec: ExperimentSpec
    result: RunResult
    resources: ResourceMonitor | None = None
    client: object | None = None
    tracer: Tracer | None = None
    sampler: TimelineSampler | None = None


@dataclass
class FleetOutcome:
    spec: ExperimentSpec | FleetSpec
    results: list[RunResult]
    sessions: list[ClientSession]
    scheduler: FleetScheduler
    tracer: Tracer | None = None
    sampler: TimelineSampler | None = None
    duration_ms: float = 0.0
    chaos: object | None = None  # ChaosInjector when the run injected faults
    tenancy: TenantDirectory | None = None
    autoscaler: Autoscaler | None = None


def _session_video(spec: ExperimentSpec | FleetSpec, index: int, scenario) -> SyntheticVideo:
    """Session ``index``'s scene, seeded ``seed + index``: the chaos
    scenario's when one is set, an ExperimentSpec's complexity scene when
    it names one, else the catalog dataset."""
    common = {
        "num_frames": spec.num_frames,
        "resolution": spec.resolution,
        "seed": spec.seed + index,
    }
    if scenario is not None:
        return build_video(scenario, **common)
    if isinstance(spec, ExperimentSpec) and spec.complexity is not None:
        return make_complexity_scene(spec.complexity, **common)
    return make_dataset(
        spec.dataset, motion_grade=spec.motion_grade, dynamic=spec.dynamic, **common
    )


def _edge_servers(
    spec, tracer: Tracer, count: int
) -> tuple[list[EdgeServer], TimelineSampler | None]:
    """The ``count`` edge servers of an experiment (server ``i`` seeded
    ``seed + 29 + i`` on the spec's possibly slowed device) and its
    timeline sampler (None unless the spec sets an interval)."""
    device = DEVICES[spec.server_device]
    if spec.server_latency_scale != 1.0:
        device = DeviceProfile(
            f"{device.name}-x{spec.server_latency_scale:g}",
            device.speed / spec.server_latency_scale,
        )
    servers = [
        EdgeServer(
            SimulatedSegmentationModel(
                "mask_rcnn_r101",
                device,
                np.random.default_rng(spec.seed + 29 + index),
                metrics=tracer.metrics,
            ),
            tracer=tracer,
        )
        for index in range(count)
    ]
    sampler = (
        TimelineSampler(tracer.metrics, interval_ms=spec.sample_interval_ms)
        if spec.sample_interval_ms is not None
        else None
    )
    return servers, sampler


def _assemble(spec: ExperimentSpec | FleetSpec) -> tuple[FleetOutcome, MultiClientPipeline]:
    """Build any spec's run up to its first frame: each session's video,
    client and channel, then the servers, the scheduler and the frame
    loop.  The outcome's ``results`` stay empty until the loop runs.

    A :class:`FleetSpec` states its own serving layer.  An
    :class:`ExperimentSpec` always runs as the one-session FIFO fleet of
    one replica; its channel draws from ``default_rng(seed + 17)`` and it
    traces on the unindexed ``client``/``channel`` lanes.
    """
    solo = isinstance(spec, ExperimentSpec)
    serving = _SOLO_SERVING if solo else spec
    tenancy = (
        TenantDirectory(list(parse_tenants(serving.tenants)))
        if serving.tenants is not None
        else None
    )
    scenario = make_scenario(serving.scenario) if serving.scenario is not None else None
    faults = make_faults(serving.faults)
    tracer = Tracer(wall_clock=spec.trace_wall_clock) if spec.trace else NULL_TRACER

    # One deterministic scene + client per device; a fleet's channel
    # jitter streams are spawned from the single experiment seed.
    if solo:
        channel_rngs = [np.random.default_rng(spec.seed + 17)]
        lanes = {"client_lane": "client", "channel_lane": "channel"}
    else:
        channel_rngs = spawn_channel_rngs(spec.seed, serving.num_clients)
        lanes = {}
    networks = spec.session_networks()
    if scenario is not None:  # the scenario owns the network
        networks = [scenario.network] * serving.num_clients
    chaos = ChaosInjector(faults, tracer=tracer) if (faults or scenario) else None
    sessions = []
    for index, network in enumerate(networks):
        video = _session_video(spec, index, scenario)
        client = build_client(spec.system, video, seed=spec.seed + index, tracer=tracer)
        channel = make_channel(network, channel_rngs[index])
        if scenario is not None and apply_network(scenario, channel) and chaos is not None:
            chaos.note(
                "handoff_scheduled",
                session=index,
                at_ms=round(scenario.handoff_at_ms, 6),
                to=scenario.handoff_to,
            )
        sessions.append(ClientSession(video=video, client=client, channel=channel, **lanes))

    servers, sampler = _edge_servers(spec, tracer, count=serving.provisioned_servers)
    scheduler = FleetScheduler(
        servers,
        policy=serving.policy,
        admission=AdmissionConfig(
            queue_limit=serving.queue_limit,
            deadline_horizon=serving.deadline_horizon,
        ),
        degrade=DegradeConfig(enabled=serving.degrade),
        num_sessions=serving.num_clients,
        tracer=tracer,
        batching=BatchConfig(
            window_ms=serving.batch_window_ms, max_size=serving.max_batch_size
        ),
        tenancy=tenancy,
    )
    autoscaler = None
    if serving.autoscale:
        autoscaler = Autoscaler(
            scheduler,
            AutoscalerConfig(
                min_replicas=serving.autoscale_min,
                scale_up_depth=serving.autoscale_up_depth,
                warmup_ms=serving.autoscale_warmup_ms,
                scale_down_hold_ms=serving.autoscale_hold_ms,
            ),
        )
    if chaos is not None:
        chaos.bind(scheduler, sessions, tracer)
    pipeline = MultiClientPipeline(
        sessions,
        scheduler,
        warmup_frames=spec.warmup_frames,
        tracer=tracer,
        sampler=sampler,
        chaos=chaos,
        autoscaler=autoscaler,
    )
    outcome = FleetOutcome(
        spec=spec,
        results=[],
        sessions=sessions,
        scheduler=scheduler,
        tracer=tracer if spec.trace else None,
        sampler=sampler,
        duration_ms=spec.num_frames * (1000.0 / sessions[0].video.fps),
        chaos=chaos,
        tenancy=tenancy,
        autoscaler=autoscaler,
    )
    return outcome, pipeline


def run_experiment(spec: ExperimentSpec) -> ExperimentOutcome:
    """Run one device against one edge: the one-session FIFO fleet."""
    fleet, pipeline = _assemble(spec)
    session = fleet.sessions[0]
    monitor = None
    if spec.monitor_resources:
        monitor = ResourceMonitor(DEVICE_POWER[spec.power_device], fps=session.video.fps)
        (result,) = _run_with_monitor(pipeline, monitor, session)
    else:
        (result,) = pipeline.run()
    return ExperimentOutcome(
        spec=spec,
        result=result,
        resources=monitor,
        client=session.client,
        sampler=fleet.sampler,
        tracer=fleet.tracer,
    )


def run_fleet(spec: ExperimentSpec | FleetSpec) -> FleetOutcome:
    """Run any spec's sessions against its serving layer (an
    ExperimentSpec's is one FIFO replica)."""
    outcome, pipeline = _assemble(spec)
    outcome.results = pipeline.run()
    return outcome


def _run_with_monitor(
    pipeline: MultiClientPipeline, monitor: ResourceMonitor, session: ClientSession
) -> list[RunResult]:
    """Run a one-session pipeline while sampling per-frame resource usage."""
    client, channel = session.client, session.channel
    original_process = client.process_frame
    bytes_before = {"up": 0}

    def wrapped(frame, truth, now_ms):
        output = original_process(frame, truth, now_ms)
        sent = channel.bytes_up - bytes_before["up"]
        bytes_before["up"] = channel.bytes_up
        monitor.sample(frame.index, output.compute_ms, client.memory_bytes(), sent)
        return output

    client.process_frame = wrapped
    try:
        return pipeline.run()
    finally:
        client.process_frame = original_process
