"""AR industrial inspection (the paper's Fig. 1 scenario).

A worker walks through the oil-field scene wearing an AR device; edgeIS
segments the separators, tanks and pipes in real time so the app can
anchor maintenance information to them.  This example runs the pipeline
on the oilfield dataset and renders an ASCII "AR view" every second:
each instance's mask footprint is drawn with its own letter, with the
class label legend the AR overlay would display.

Run:  python examples/ar_inspection.py
"""

from __future__ import annotations

import numpy as np

from repro.eval import ExperimentSpec
from repro.image import InstanceMask


def ascii_view(masks: list[InstanceMask], shape, cols: int = 64, rows: int = 20) -> str:
    """Downsample instance masks into a character grid."""
    canvas = np.full((rows, cols), ".", dtype="<U1")
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    scale_r = shape[0] / rows
    scale_c = shape[1] / cols
    for index, mask in enumerate(masks):
        letter = letters[index % len(letters)]
        for r in range(rows):
            for c in range(cols):
                r0, r1 = int(r * scale_r), int((r + 1) * scale_r)
                c0, c1 = int(c * scale_c), int((c + 1) * scale_c)
                if mask.mask[r0:r1, c0:c1].mean() > 0.35:
                    canvas[r, c] = letter
    return "\n".join("".join(row) for row in canvas)


def main() -> None:
    spec = ExperimentSpec(
        system="edgeis",
        dataset="oilfield",
        network="wifi_5ghz",
        num_frames=150,
        server_device="jetson_xavier",  # the field deployment's edge node
        dynamic=True,
    )
    print("starting AR inspection walkthrough ...\n")
    video_frames: dict[int, list[InstanceMask]] = {}

    # Capture rendered masks by wrapping the client.
    from repro.eval import build_client
    from repro.model import SimulatedSegmentationModel
    from repro.network import make_channel
    from repro.runtime import EdgeServer, Pipeline
    from repro.synthetic import make_dataset

    video = make_dataset(
        spec.dataset, num_frames=spec.num_frames, dynamic=spec.dynamic, seed=spec.seed
    )
    client = build_client(spec.system, video, seed=spec.seed)
    original = client.process_frame

    def capture(frame, truth, now_ms):
        output = original(frame, truth, now_ms)
        video_frames[frame.index] = output.masks
        return output

    client.process_frame = capture
    channel = make_channel(spec.network, np.random.default_rng(17))
    server = EdgeServer(
        SimulatedSegmentationModel("mask_rcnn_r101", spec.server_device)
    )
    result = Pipeline(video, client, channel, server).run()

    shape = (video.camera.height, video.camera.width)
    for frame_index in range(60, spec.num_frames, 45):
        masks = video_frames.get(frame_index, [])
        print(f"--- AR view at t = {frame_index / 30.0:.1f} s ---")
        print(ascii_view(masks, shape))
        legend = ", ".join(
            f"{chr(ord('A') + i)}: {m.class_label} (#{m.instance_id})"
            for i, m in enumerate(masks)
        )
        print("overlay legend:", legend or "(no objects annotated yet)")
        print()

    print(
        f"inspection summary: mean IoU {result.mean_iou():.3f}, "
        f"false rate {result.false_rate(0.75):.1%}, "
        f"mobile latency {result.mean_latency_ms():.0f} ms, "
        f"{result.offload_count} keyframes offloaded"
    )


if __name__ == "__main__":
    main()
