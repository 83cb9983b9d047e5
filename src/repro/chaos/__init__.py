"""Adversarial scenario matrix + chaos injection for the serving stack.

``repro.chaos`` certifies the claim behind ``docs/serving.md``: under
adversarial scenes *and* injected infrastructure faults, the fleet
degrades (MAMT local fallback) and recovers (staggered keyframe
re-admission) while holding its SLO error budget.  The package has two
halves:

* :mod:`repro.chaos.scenarios` — a declarative registry of adversarial
  scene compositions (crowding, whip-pan feature starvation, frustum
  transit, lighting flips, WiFi->LTE handoffs);
* :mod:`repro.chaos.faults` — seeded, sim-clock-scheduled fault
  injectors for the serving stack (replica kill/revive, stragglers,
  channel partitions).

The ``chaos`` bench suite (``repro bench run --suite chaos``) runs the
scenario x fault matrix and certifies every cell's error-budget
``consumed_fraction < 1.0``.
"""

from .faults import FAULT_KINDS, FAULTS, ChaosInjector, FaultSpec, make_faults
from .scenarios import (
    SCENARIOS,
    LightingShiftTexture,
    ScenarioSpec,
    apply_network,
    build_video,
    make_scenario,
)

__all__ = [
    "FaultSpec",
    "FAULT_KINDS",
    "FAULTS",
    "make_faults",
    "ChaosInjector",
    "ScenarioSpec",
    "SCENARIOS",
    "make_scenario",
    "build_video",
    "apply_network",
    "LightingShiftTexture",
]
