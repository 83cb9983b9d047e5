"""Per-kernel micro-benchmarks: vectorized hot paths vs their scalar
references.

Every vectorized kernel in the repo keeps its pre-vectorization
implementation as a ``*_reference`` function; this module times both on
representative inputs, checks equivalence, and emits one JSON-clean cell
per kernel for the ``micro`` bench suite (``BENCH_micro_*.json``).  The
``speedup_x`` field is the gated metric — ``repro bench compare`` fails
CI when a kernel's speedup collapses (see
:func:`repro.obs.compare.policy_for`).

Wall-clock timings (``vectorized_us`` / ``reference_us`` / ``speedup_x``)
are the only non-deterministic fields of a BENCH artifact;
:data:`TIMING_KEYS` names them so :func:`repro.obs.bench.strip_timing`
can carve them out of the byte-identity contract.  The
``serve.batch_latency`` cell is fully deterministic — it evaluates the
calibrated batch latency model, not the wall clock.

Imports of the kernels under test live inside the runner functions:
``repro.obs`` must stay importable without the model/geometry packages
(they import ``repro.obs`` themselves).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["KERNEL_NAMES", "TIMING_KEYS", "run_kernel"]

# The wall-clock fields of a kernel cell — everything else in a BENCH
# artifact is deterministic and byte-identical across runs.
TIMING_KEYS = ("vectorized_us", "reference_us", "speedup_x")


def _best_us(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time in microseconds (the standard
    micro-benchmark estimator: the minimum is the least noisy sample of
    the true cost)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def _cell(
    name: str,
    n: int,
    repeats: int,
    vec_fn,
    ref_fn,
    max_abs_err: float,
    atol: float,
) -> dict:
    vectorized_us = _best_us(vec_fn, repeats)
    reference_us = _best_us(ref_fn, repeats)
    return {
        "name": name,
        "n": n,
        "repeats": repeats,
        "equivalent": bool(max_abs_err <= atol),
        "max_abs_err": float(max_abs_err),
        "atol": float(atol),
        "vectorized_us": round(vectorized_us, 3),
        "reference_us": round(reference_us, 3),
        "speedup_x": round(reference_us / vectorized_us, 3)
        if vectorized_us
        else 0.0,
    }


# ----------------------------------------------------------------------
# Kernel runners
# ----------------------------------------------------------------------
def _kernel_fast_arc_run(seed: int, repeats: int) -> dict:
    from ..features.fast import _max_consecutive_true_reference, arc_run_at_least

    rng = np.random.default_rng(seed)
    # QVGA-sized flag stack at a sparsity where the count prefilter keeps
    # a realistic few-percent candidate set (P[Bin(16, .3) >= 9] ~ 2%).
    flags = rng.random((16, 240 * 320)) < 0.3
    arc = 9
    vec = arc_run_at_least(flags, arc)
    ref = _max_consecutive_true_reference(flags) >= arc
    err = float(np.abs(vec.astype(int) - ref.astype(int)).max()) if vec.size else 0.0
    return _cell(
        "fast.arc_run",
        flags.shape[1],
        repeats,
        lambda: arc_run_at_least(flags, arc),
        lambda: _max_consecutive_true_reference(flags) >= arc,
        err,
        0.0,
    )


def _kernel_rpn_assemble(seed: int, repeats: int) -> dict:
    from ..model.rpn import _assemble_proposals_reference

    rng = np.random.default_rng(seed)
    n = 4000
    boxes = rng.uniform(0.0, 320.0, (n, 4))
    scores = rng.uniform(0.0, 1.0, n)
    best_index = rng.integers(0, 6, n)
    best_iou = rng.uniform(0.0, 1.0, n)

    def vectorized():
        return np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)

    proposals = _assemble_proposals_reference(boxes, scores, best_index, best_iou)
    err = float(
        np.abs(
            vectorized() - np.array([p.best_gt_index for p in proposals])
        ).max()
    )
    return _cell(
        "rpn.assemble",
        n,
        repeats,
        vectorized,
        lambda: _assemble_proposals_reference(boxes, scores, best_index, best_iou),
        err,
        0.0,
    )


def _kernel_rpn_confidence(seed: int, repeats: int) -> dict:
    from types import SimpleNamespace

    from ..model.acceleration import InferenceInstruction
    from ..model.maskrcnn import SimulatedSegmentationModel
    from ..model.rpn import _assemble_proposals_reference

    rng = np.random.default_rng(seed)
    n = 3000
    classes = ["person", "car", "chair", "dog", "cat", "plant"]
    gt_instances = [SimpleNamespace(class_label=c) for c in classes]
    instructions = [
        InferenceInstruction(box=np.array([0.0, 0.0, 32.0, 32.0]), class_label=c)
        for c in classes[:3]
    ]
    boxes = rng.uniform(0.0, 320.0, (n, 4))
    scores = rng.uniform(0.0, 1.0, n)
    best_index = rng.integers(0, len(classes), n)
    best_iou = rng.uniform(0.0, 1.0, n)
    gt_index = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
    proposals = _assemble_proposals_reference(boxes, scores, best_index, best_iou)

    # Bound methods over a stub carrying only the RNG the heads consume;
    # fresh same-seeded streams make the two paths comparable.
    def vectorized():
        stub = SimpleNamespace(_rng=np.random.default_rng(seed + 1))
        return SimulatedSegmentationModel._class_confidences(
            stub, best_iou, gt_index, instructions, gt_instances
        )

    def reference():
        stub = SimpleNamespace(_rng=np.random.default_rng(seed + 1))
        return SimulatedSegmentationModel._class_confidences_reference(
            stub, proposals, instructions, gt_instances
        )

    err = float(np.abs(vectorized() - reference()).max())
    return _cell("rpn.confidence", n, repeats, vectorized, reference, err, 0.0)


def _kernel_ba_jacobian(seed: int, repeats: int) -> dict:
    from ..geometry.bundle_adjustment import (
        _residuals_and_jacobian,
        _residuals_and_jacobian_reference,
    )
    from ..geometry.camera import PinholeCamera
    from ..geometry.se3 import SE3

    rng = np.random.default_rng(seed)
    camera = PinholeCamera(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    pose = SE3.exp(rng.normal(scale=0.05, size=6))
    n = 800
    points = np.column_stack(
        [
            rng.uniform(-2.0, 2.0, n),
            rng.uniform(-1.5, 1.5, n),
            rng.uniform(2.0, 8.0, n),
        ]
    )
    pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (n, 2))
    res_v, jac_v, _ = _residuals_and_jacobian(camera, pose, points, pixels)
    res_r, jac_r, _ = _residuals_and_jacobian_reference(camera, pose, points, pixels)
    err = float(
        max(np.abs(res_v - res_r).max(), np.abs(jac_v - jac_r).max())
    )
    return _cell(
        "ba.jacobian",
        n,
        repeats,
        lambda: _residuals_and_jacobian(camera, pose, points, pixels),
        lambda: _residuals_and_jacobian_reference(camera, pose, points, pixels),
        err,
        0.0,
    )


def _kernel_ba_ransac_score(seed: int, repeats: int) -> dict:
    from ..geometry.bundle_adjustment import _score_hypotheses_reference
    from ..geometry.se3 import SE3
    from ..geometry.triangulation import reprojection_errors_batch

    rng = np.random.default_rng(seed)
    camera_matrix = np.array(
        [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
    )
    poses = [SE3.exp(rng.normal(scale=0.1, size=6)) for _ in range(32)]
    n = 400
    points = np.column_stack(
        [
            rng.uniform(-2.0, 2.0, n),
            rng.uniform(-1.5, 1.5, n),
            rng.uniform(2.0, 8.0, n),
        ]
    )
    pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (n, 2))
    vec = reprojection_errors_batch(camera_matrix, poses, points, pixels)
    ref = _score_hypotheses_reference(camera_matrix, poses, points, pixels)
    err = float(np.abs(vec - ref).max())
    return _cell(
        "ba.ransac_score",
        len(poses) * n,
        repeats,
        lambda: reprojection_errors_batch(camera_matrix, poses, points, pixels),
        lambda: _score_hypotheses_reference(camera_matrix, poses, points, pixels),
        err,
        0.0,
    )


def _kernel_ba_dlt_rows(seed: int, repeats: int) -> dict:
    from ..geometry.bundle_adjustment import _dlt_rows, _dlt_rows_reference

    rng = np.random.default_rng(seed)
    n = 300
    normalized = rng.normal(size=(n, 2))
    homogeneous = np.column_stack([rng.normal(size=(n, 3)), np.ones(n)])
    err = float(
        np.abs(
            _dlt_rows(normalized, homogeneous)
            - _dlt_rows_reference(normalized, homogeneous)
        ).max()
    )
    return _cell(
        "ba.dlt_rows",
        n,
        repeats,
        lambda: _dlt_rows(normalized, homogeneous),
        lambda: _dlt_rows_reference(normalized, homogeneous),
        err,
        0.0,
    )


def _kernel_transfer_contour_depth(seed: int, repeats: int) -> dict:
    from ..transfer.mask_transfer import _contour_depths_reference, contour_depths

    rng = np.random.default_rng(seed)
    contour_uv = rng.uniform((0.0, 0.0), (640.0, 480.0), (192, 2))
    feature_pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (500, 2))
    depths = rng.uniform(2.0, 8.0, 500)
    k = 5
    vec = contour_depths(contour_uv, feature_pixels, depths, k)
    ref = _contour_depths_reference(contour_uv, feature_pixels, depths, k)
    err = float(np.abs(vec - ref).max())
    return _cell(
        "transfer.contour_depth",
        len(contour_uv),
        repeats,
        lambda: contour_depths(contour_uv, feature_pixels, depths, k),
        lambda: _contour_depths_reference(contour_uv, feature_pixels, depths, k),
        err,
        1e-9,
    )


def _kernel_features_hamming(seed: int, repeats: int) -> dict:
    from ..features.brief import _hamming_distance_reference, hamming_distance

    rng = np.random.default_rng(seed)
    # The size of a typical map-point match: ~200 frame features against
    # ~260 map descriptors.
    a = rng.integers(0, 256, size=(208, 32), dtype=np.uint8)
    b = rng.integers(0, 256, size=(262, 32), dtype=np.uint8)
    err = float(
        np.abs(hamming_distance(a, b) - _hamming_distance_reference(a, b)).max()
    )
    return _cell(
        "features.hamming",
        len(a) * len(b),
        repeats,
        lambda: hamming_distance(a, b),
        lambda: _hamming_distance_reference(a, b),
        err,
        0.0,
    )


def _kernel_vo_oracle_observe(seed: int, repeats: int) -> dict:
    from ..synthetic.datasets import make_dataset
    from ..vo.frontend import OracleFrontend

    video = make_dataset("xiph_like", num_frames=60, resolution=(320, 240), seed=seed)
    frame, truth = video.frame_at(30)
    fast = OracleFrontend(video.world, video.camera, seed=seed)
    reference = OracleFrontend(video.world, video.camera, seed=seed)
    a = fast.observe(frame, truth)
    b = reference._observe_reference(frame, truth)
    err = float(
        max(
            np.abs(a.pixels - b.pixels).max(initial=0.0),
            np.abs(a.descriptors.astype(int) - b.descriptors.astype(int)).max(
                initial=0
            ),
            # Stream identity: the next draw of both generators agrees.
            abs(fast._rng.integers(0, 2**31) - reference._rng.integers(0, 2**31)),
        )
    )
    return _cell(
        "vo.oracle_observe",
        len(video.world.feature_sites),
        repeats,
        lambda: fast.observe(frame, truth),
        lambda: reference._observe_reference(frame, truth),
        err,
        0.0,
    )


def _kernel_synthetic_raster(seed: int, repeats: int) -> dict:
    from ..synthetic.datasets import make_dataset
    from ..synthetic.renderer import Renderer

    video = make_dataset("xiph_like", num_frames=60, resolution=(320, 240), seed=seed)
    renderer = Renderer(video.camera, video.world.objects)
    time_s = 30 / video.fps
    pose_cw = video.trajectory.pose_cw(time_s)
    a = renderer.render(pose_cw, time_s)
    b = renderer.render_reference(pose_cw, time_s)
    err = float(
        max(
            np.abs(a.frame.image.astype(int) - b.frame.image.astype(int)).max(),
            np.abs(a.label_map - b.label_map).max(),
            # Equal infinities (nothing drawn) count as no error.
            np.abs(np.where(a.depth == b.depth, 0.0, a.depth - b.depth)).max(),
        )
    )
    return _cell(
        "synthetic.raster",
        renderer.camera.width * renderer.camera.height,
        repeats,
        lambda: renderer.render(pose_cw, time_s),
        lambda: renderer.render_reference(pose_cw, time_s),
        err,
        0.0,
    )


def _kernel_serve_batch_latency(seed: int, repeats: int) -> dict:
    """Deterministic cell: the calibrated batch latency model at the
    fleet's operating point (TX2-scaled fixed cost, the admission
    controller's solo prior).  ``speedup_x`` is the amortization factor
    of a full batch — total solo time over batch time."""
    from ..model.costs import DEVICES, MODEL_COSTS
    from ..serve.admission import AdmissionConfig
    from ..serve.batching import BatchConfig, estimate_batch_ms

    cfg = BatchConfig()
    cost = MODEL_COSTS["mask_rcnn_r101"]
    device = DEVICES["jetson_tx2"]
    setup_ms = device.scale(cost.rpn_fixed_ms + cost.inference_fixed_ms)
    solo_ms = AdmissionConfig().est_infer_prior_ms
    by_size = {
        str(size): round(estimate_batch_ms(solo_ms, setup_ms, size, cfg.alpha), 6)
        for size in range(1, cfg.max_size + 1)
    }
    full = estimate_batch_ms(solo_ms, setup_ms, cfg.max_size, cfg.alpha)
    return {
        "name": "serve.batch_latency",
        "n": cfg.max_size,
        "alpha": cfg.alpha,
        "setup_ms": round(setup_ms, 6),
        "solo_ms": round(solo_ms, 6),
        "batch_ms_by_size": by_size,
        # A batch of one must reproduce the solo latency exactly — the
        # max_size=1 byte-identity contract of the fleet scheduler.
        "equivalent": estimate_batch_ms(solo_ms, setup_ms, 1, cfg.alpha)
        == solo_ms,
        "speedup_x": round(cfg.max_size * solo_ms / full, 3),
    }


_KERNELS = {
    "fast.arc_run": _kernel_fast_arc_run,
    "rpn.assemble": _kernel_rpn_assemble,
    "rpn.confidence": _kernel_rpn_confidence,
    "ba.jacobian": _kernel_ba_jacobian,
    "ba.ransac_score": _kernel_ba_ransac_score,
    "ba.dlt_rows": _kernel_ba_dlt_rows,
    "transfer.contour_depth": _kernel_transfer_contour_depth,
    "features.hamming": _kernel_features_hamming,
    "vo.oracle_observe": _kernel_vo_oracle_observe,
    "synthetic.raster": _kernel_synthetic_raster,
    "serve.batch_latency": _kernel_serve_batch_latency,
}

KERNEL_NAMES = tuple(sorted(_KERNELS))


def run_kernel(name: str, seed: int = 0, repeats: int = 7) -> dict:
    """Run one registered kernel cell and return its JSON-clean payload."""
    if name not in _KERNELS:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(KERNEL_NAMES)}"
        )
    return _KERNELS[name](seed, repeats)
