"""Chaos fault injectors for the serving stack.

A fault is a *declarative* event on the simulated clock: kill a
:class:`~repro.serve.scheduler.ServerPool` replica at ``t`` (and revive
it ``duration_ms`` later), inflate one replica's service time (a
straggler), or partition a channel for a window.  The
:class:`ChaosInjector` owns the schedule and applies each fault when the
fleet's frame clock crosses its instant, so a fault lands at exactly the
same tick on every run — chaos here is adversarial, never random.

Two properties make the injection layer safe to keep always-on:

* **No RNG draws.**  Faults never touch a random stream; a run with an
  empty fault list is byte-identical to a run without the injector.
* **Exact sim-clock semantics.**  Channel stalls are pre-scheduled on
  the :class:`~repro.network.channel.Channel` itself (the stall window
  applies to the *transfer initiation* time, not the frame tick), while
  scheduler faults apply at the first tick at/after ``at_ms`` — the same
  discrete-event convention the scheduler uses for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.trace import NULL_TRACER, Tracer

__all__ = [
    "FaultSpec",
    "FAULT_KINDS",
    "FAULTS",
    "make_faults",
    "ChaosInjector",
]

FAULT_KINDS = ("kill_replica", "straggler", "stall_channel")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` selects a replica index for server faults, or a session
    index for channel faults (``-1`` = every session's channel).
    ``factor`` only applies to ``straggler`` (service-time multiplier).
    """

    kind: str
    at_ms: float
    duration_ms: float = 0.0
    target: int = 0
    factor: float = 4.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if self.at_ms < 0.0:
            raise ValueError("fault at_ms must be non-negative")
        if self.kind != "kill_replica" and self.duration_ms <= 0.0:
            raise ValueError(f"{self.kind} needs a positive duration_ms")
        if self.kind == "straggler" and self.factor <= 0.0:
            raise ValueError("straggler factor must be positive")


# Named fault programs for the chaos bench matrix.  Instants are chosen
# for the suite's 56-frame / 30 fps cells (~1866 ms of simulated time):
# every fault starts after the SLO warmup, ends with enough budget left
# for the degrade manager's staggered recovery (min_degraded_ms=300) to
# complete inside the run.
FAULTS: dict[str, tuple[FaultSpec, ...]] = {
    "none": (),
    "replica-outage": (
        FaultSpec("kill_replica", at_ms=500.0, duration_ms=700.0, target=0),
    ),
    "straggler": (
        FaultSpec("straggler", at_ms=400.0, duration_ms=900.0, target=0, factor=4.0),
    ),
    "uplink-stall": (
        FaultSpec("stall_channel", at_ms=500.0, duration_ms=400.0, target=-1),
    ),
}


def make_faults(name: str) -> tuple[FaultSpec, ...]:
    faults = FAULTS.get(name)
    if faults is None:
        raise ValueError(f"unknown fault program {name!r}; pick from {sorted(FAULTS)}")
    return faults


class ChaosInjector:
    """Applies a fault schedule against a live fleet run.

    Usage: construct with the fault list, :meth:`bind` to the scheduler
    and sessions once they exist, then let the pipeline call
    :meth:`tick` at the top of every frame tick.  Every applied fault is
    recorded twice: as a ``chaos.*`` trace event (lane ``"chaos"``) for
    the timeline, and as a JSON-clean dict in :attr:`log` for the BENCH
    artifact.
    """

    def __init__(self, faults: tuple[FaultSpec, ...] = (), tracer: Tracer | None = None):
        self.faults = tuple(faults)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.log: list[dict] = []
        self._scheduler = None
        # Per-fault lifecycle flags, parallel to ``self.faults``.
        self._started = [False] * len(self.faults)
        self._ended = [False] * len(self.faults)

    # ------------------------------------------------------------------
    def bind(self, scheduler, sessions, tracer: Tracer | None = None) -> None:
        """Attach the injector to a concrete fleet.

        Channel stalls are pre-scheduled here with their exact instants
        (the channel applies them by transfer-initiation time); server
        faults stay pending until :meth:`tick` crosses them.
        """
        self._scheduler = scheduler
        if tracer is not None:
            self.tracer = tracer
        for fault in self.faults:
            if fault.kind != "stall_channel":
                continue
            for index, session in enumerate(sessions):
                if fault.target not in (-1, index):
                    continue
                session.channel.schedule_stall(fault.at_ms, fault.duration_ms)

    def note(self, event: str, **fields) -> None:
        """Record a scenario-level marker (e.g. a scheduled handoff) in
        the chaos log and on the trace."""
        entry = {"event": event, **fields}
        self.log.append(entry)
        if self.tracer.enabled:
            self.tracer.event(f"chaos.{event}", lane="chaos", **fields)

    # ------------------------------------------------------------------
    def tick(self, now_ms: float) -> None:
        """Apply every fault whose start/end instant the clock crossed."""
        for index, fault in enumerate(self.faults):
            if not self._started[index] and now_ms >= fault.at_ms:
                self._started[index] = True
                self._apply_start(fault, now_ms)
            if (
                self._started[index]
                and not self._ended[index]
                and fault.duration_ms > 0.0
                and now_ms >= fault.at_ms + fault.duration_ms
            ):
                self._ended[index] = True
                self._apply_end(fault, now_ms)

    def _apply_start(self, fault: FaultSpec, now_ms: float) -> None:
        # ``until_ms`` is the *scheduled* window end: lineage analysis
        # needs the full fault window even when the run ends mid-fault
        # (the matching ``*_off`` / ``*_revived`` note never fires).
        until = round(fault.at_ms + fault.duration_ms, 6) if fault.duration_ms else None
        if fault.kind == "kill_replica":
            orphaned = self._scheduler.kill_replica(fault.target, now_ms)
            self.note(
                "replica_killed",
                ts_ms=round(now_ms, 6),
                server=fault.target,
                orphaned=orphaned,
                **({"until_ms": until} if until is not None else {}),
            )
        elif fault.kind == "straggler":
            self._scheduler.set_latency_scale(fault.target, fault.factor)
            self.note(
                "straggler_on",
                ts_ms=round(now_ms, 6),
                server=fault.target,
                factor=fault.factor,
                **({"until_ms": until} if until is not None else {}),
            )
        elif fault.kind == "stall_channel":
            # The stall itself was pre-scheduled in bind(); this entry
            # marks the window opening on the shared timeline.
            self.note(
                "channel_stalled",
                ts_ms=round(now_ms, 6),
                session=fault.target,
                duration_ms=round(fault.duration_ms, 6),
                **({"until_ms": until} if until is not None else {}),
            )

    def _apply_end(self, fault: FaultSpec, now_ms: float) -> None:
        if fault.kind == "kill_replica":
            self._scheduler.revive_replica(fault.target, now_ms)
            self.note("replica_revived", ts_ms=round(now_ms, 6), server=fault.target)
        elif fault.kind == "straggler":
            self._scheduler.set_latency_scale(fault.target, 1.0)
            self.note("straggler_off", ts_ms=round(now_ms, 6), server=fault.target)
        elif fault.kind == "stall_channel":
            self.note(
                "channel_restored", ts_ms=round(now_ms, 6), session=fault.target
            )
