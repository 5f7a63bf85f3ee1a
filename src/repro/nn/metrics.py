"""Per-op instrumentation for the autograd engine.

Mirrors the stage-graph machinery (:func:`repro.radar.stages.stage_metrics`):
one process-wide Prometheus-shaped :class:`~repro.serve.metrics.MetricsRegistry`
holding a wall-time histogram per op (``nn.<op>.wall_s``; its ``count`` is
the op's run count). The GAN trainer and the recurrent layers report into
it, so a training run's hot spots land in the same snapshot format as the
radar stage timings and the serve metrics — `benchmarks/test_bench_nn.py`
dumps it as ``nn-timings.json``.

The registry import is deferred to first use: ``repro.nn`` must stay
importable without dragging in the serving stack. The registry is created
under a lock, because the BiLSTM overlap helper's first scan can race the
caller's; a registry that lost the race would drop its observations.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.serve.metrics import MetricsRegistry

__all__ = ["NN_TIME_BUCKETS", "nn_metrics", "observe_op"]

#: Histogram bucket upper bounds (seconds) for per-op wall time. Same span
#: as the stage buckets: microsecond cell updates up to multi-second
#: paper-scale training steps.
NN_TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NN_METRICS: "MetricsRegistry | None" = None
_NN_METRICS_LOCK = threading.Lock()


def nn_metrics() -> "MetricsRegistry":
    """The process-wide per-op timing registry (lazily constructed)."""
    global _NN_METRICS
    if _NN_METRICS is None:
        with _NN_METRICS_LOCK:
            if _NN_METRICS is None:
                from repro.serve.metrics import MetricsRegistry
                _NN_METRICS = MetricsRegistry()
    return _NN_METRICS


def observe_op(op: str, elapsed_s: float) -> None:
    """Record one timed execution of ``op``."""
    nn_metrics().observe(f"nn.{op}.wall_s", elapsed_s, NN_TIME_BUCKETS)
