"""Cross-session batched inference for the edge fleet.

A single edge GPU amortizes fixed per-call cost (backbone setup, kernel
launch, weight residency) across the requests of *different* client
sessions — the economics YolactEdge demonstrates with TensorRT-batched
inference.  The simulator models a batch of ``n`` compatible requests as

    batch_ms = setup + k * n**alpha,        k = mean(solo_ms) - setup

with ``setup`` calibrated from the model cost table
(:meth:`repro.runtime.pipeline.EdgeServer.batch_setup_ms` = the
device-scaled fixed RPN + second-stage entry cost) and ``alpha < 1``
making the marginal request sub-linear.  A batch of one is the solo
call, so an unbatched replica is simply one with ``max_size=1``: every
dispatch goes through the same path.

:class:`BatchConfig` carries the scheduler-facing knobs; the EDF-aware
coalescing logic lives in
:meth:`repro.serve.scheduler.FleetScheduler._dispatch_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchConfig", "estimate_batch_ms"]


@dataclass(frozen=True)
class BatchConfig:
    """Batching window knobs (``FleetSpec.batch_window_ms`` /
    ``max_batch_size`` surface them per experiment).

    ``window_ms`` — how long a replica may hold an otherwise-servable
    request open for co-riders before dispatching.
    ``max_size`` — batch size cap; 1 serves every request alone.
    ``alpha`` — sub-linearity exponent of the batch latency model.
    """

    window_ms: float = 4.0
    max_size: int = 4
    alpha: float = 0.8

    def validate(self) -> "BatchConfig":
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.window_ms < 0.0:
            raise ValueError("window_ms must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        return self


def estimate_batch_ms(
    solo_est_ms: float, setup_ms: float, size: int, alpha: float
) -> float:
    """Expected service time of a batch of ``size`` requests whose mean
    solo latency is estimated at ``solo_est_ms``.  A batch of one is the
    solo call, even on a device whose setup share exceeds the estimate."""
    if size == 1:
        return solo_est_ms
    per_item = max(solo_est_ms - setup_ms, 0.0)
    return setup_ms + per_item * float(size) ** alpha
