"""The oil-field case study (Section VI-G, Fig. 17).

Eight devices inspect the oil-field scene against a Jetson AGX Xavier
edge node — five over WiFi (Dream Glass stand-ins) and three over LTE
(iPhone 11).  Two metrics, as in the paper:

* **segmentation accuracy** — mean IoU of rendered masks against an
  offline full-quality Mask R-CNN pass (here: ground truth degraded to
  Mask-R-CNN quality, which is what "use the same model offline as ground
  truth" amounts to);
* **rendered-information accuracy** — a user-attention model: users judge
  the AR annotations of objects they notice, and they notice large /
  central objects far more than marginal ones.  A noticed object's
  annotation satisfies when its mask hugs the object (IoU >= 0.75); a
  rendering counts as *false* when visibly misplaced (IoU < 0.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .experiments import FIFO_FLEET, ExperimentSpec, FleetSpec, run_experiment, run_fleet

__all__ = ["FieldDevice", "FieldStudyResult", "run_field_study"]


@dataclass(frozen=True)
class FieldDevice:
    device_id: int
    kind: str  # "dream_glass" | "iphone_11"
    network: str  # "wifi_5ghz" | "lte"


def _fleet() -> list[FieldDevice]:
    devices = [FieldDevice(i, "dream_glass", "wifi_5ghz") for i in range(5)]
    devices += [FieldDevice(5 + i, "iphone_11", "lte") for i in range(3)]
    return devices


@dataclass
class FieldStudyResult:
    per_device_iou: dict[int, float]
    per_device_false_rate: dict[int, float]
    rendered_accuracy: float
    rendered_false_rate: float

    @property
    def mean_iou(self) -> float:
        return float(np.mean(list(self.per_device_iou.values())))

    @property
    def mean_false_rate(self) -> float:
        return float(np.mean(list(self.per_device_false_rate.values())))


def _attention_weight(iou_entry_area: float, image_area: float) -> float:
    """How likely a user is to attend to (and judge) an object."""
    relative = iou_entry_area / max(image_area, 1)
    return float(np.clip(np.sqrt(relative) * 4.0, 0.05, 1.0))


def _run_devices(num_frames, resolution, seed, shared_server):
    """Run the fleet, either against per-device servers (lab-style) or one
    shared Xavier (the actual deployment topology).  Workers move through
    the field, so every scene is dynamic."""
    devices = _fleet()
    common = dict(
        system="edgeis",
        dataset="oilfield",
        num_frames=num_frames,
        resolution=resolution,
        server_device="jetson_xavier",
        dynamic=True,
    )
    if shared_server:
        # The fleet's "name:count" link mix, in device order.
        network = ",".join(
            f"{name}:{len(list(group))}"
            for name, group in groupby(device.network for device in devices)
        )
        results = run_fleet(
            FleetSpec(
                **FIFO_FLEET,
                **common,
                num_clients=len(devices),
                network=network,
                warmup_frames=45,
                seed=seed,
            )
        ).results
    else:
        results = [
            run_experiment(
                ExperimentSpec(**common, network=device.network, seed=seed + device.device_id)
            ).result
            for device in devices
        ]
    return list(zip(devices, results))


def run_field_study(
    num_frames: int = 180,
    resolution: tuple[int, int] = (320, 240),
    seed: int = 0,
    shared_server: bool = False,
) -> FieldStudyResult:
    """Run all eight devices and aggregate the two Fig. 17 metrics.

    ``shared_server=True`` queues the whole fleet on the one Xavier, as
    in the actual deployment; the default gives each device its own edge
    node (no contention).
    """
    image_area = resolution[0] * resolution[1]
    per_device_iou: dict[int, float] = {}
    per_device_false: dict[int, float] = {}
    satisfied_weight = 0.0
    judged_weight = 0.0
    false_weight = 0.0

    for device, result in _run_devices(num_frames, resolution, seed, shared_server):
        per_device_iou[device.device_id] = result.mean_iou()
        per_device_false[device.device_id] = result.false_rate(0.75)

        # Rendered-information accuracy: sample one frame per second, as
        # the paper's users did.
        rng = np.random.default_rng(seed + 1000 + device.device_id)
        measured = [
            f for f in result.frames if f.frame_index >= result.warmup_frames
        ]
        for metric in measured[::30]:
            for instance_id, iou in metric.object_ious.items():
                area = metric.object_areas.get(instance_id, 0)
                weight = _attention_weight(area, image_area)
                if rng.uniform() > weight:
                    continue  # user never looked at this object
                judged_weight += 1.0
                if iou >= 0.75:  # the overlay must hug the object to satisfy
                    satisfied_weight += 1.0
                if iou < 0.3:
                    false_weight += 1.0

    rendered_accuracy = satisfied_weight / max(judged_weight, 1.0)
    rendered_false = false_weight / max(judged_weight, 1.0)
    return FieldStudyResult(
        per_device_iou=per_device_iou,
        per_device_false_rate=per_device_false,
        rendered_accuracy=rendered_accuracy,
        rendered_false_rate=rendered_false,
    )
