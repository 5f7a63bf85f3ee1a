"""`FmcwRadar`: the end-to-end sensing facade.

Ties together frontend synthesis, the processing pipeline, and the tracker:
point it at a :class:`~repro.radar.scene.Scene`, get back a
:class:`~repro.radar.stages.SensingResult` — range-angle profiles,
extracted trajectories, and per-bin phase series (for breathing).
This is both the eavesdropper and the legitimate sensor of the paper — the
difference between them is purely whether they receive the tag's
side-channel report (Sec. 11.3).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.scene import Scene
from repro.radar.stages import (
    SenseInput,
    SensingResult,
    frame_count,
    sense_requests,
)

__all__ = ["FmcwRadar", "SensingResult"]


class FmcwRadar:
    """A simulated FMCW radar deployed at a fixed position and orientation."""

    def __init__(self, config: RadarConfig | None = None) -> None:
        self.config = config if config is not None else RadarConfig()
        self.array = UniformLinearArray(self.config)

    def frame_times(self, duration: float,
                    start_time: float = 0.0) -> np.ndarray:
        """Frame capture times for a ``duration``-second sensing session.

        At least two frames are always captured (background subtraction
        needs a warmup frame), and a session whose beat cube would exceed
        :data:`~repro.radar.stages.MAX_SWEEP_BYTES` raises
        :class:`~repro.errors.ConfigurationError` before any allocation
        (:func:`~repro.radar.stages.frame_count`). This is the single
        source of truth for the frame grid of direct and served senses.
        """
        num_frames = frame_count(self.config, duration)
        return start_time + np.arange(num_frames) * self.config.frame_interval

    def default_max_range(self, scene: Scene) -> float:
        """The far crop applied when a caller does not pass ``max_range``.

        An eavesdropper targeting a known building crops the range axis at
        the far walls; anything beyond is another apartment.
        """
        corners = np.array([
            [scene.room.x_min, scene.room.y_min],
            [scene.room.x_min, scene.room.y_max],
            [scene.room.x_max, scene.room.y_min],
            [scene.room.x_max, scene.room.y_max],
        ])
        return float(
            np.linalg.norm(corners - self.array.position, axis=1).max()
        ) + 0.5

    def sense(self, scene: Scene, duration: float, *,
              rng: np.random.Generator | None = None,
              start_time: float = 0.0,
              max_range: float | None = None) -> SensingResult:
        """Capture ``duration`` seconds of frames from ``scene``.

        Args:
            scene: the room and its entities (humans, clutter, tags).
            duration: sensing span in seconds.
            rng: randomness source for noise/multipath; a fixed default seed
                is used when omitted so runs are reproducible.
            start_time: scene time of the first frame.
            max_range: optional crop of the range axis (defaults to the
                room's diagonal — reflections can't be farther than that).
        """
        if rng is None:
            rng = np.random.default_rng(0)
        if max_range is None:
            max_range = self.default_max_range(scene)

        times = self.frame_times(duration, start_time)
        return self.sense_batch([SenseInput(scene, times, rng)],
                                max_range=max_range)[0]

    def sense_batch(self, requests: Sequence[SenseInput], *,
                    max_range: float) -> list[SensingResult]:
        """Sense several requests in one pass of the stage functions.

        Every request shares this radar and the ``max_range`` crop
        (:func:`~repro.radar.stages.sense_requests`); each result is
        bitwise the :meth:`sense` result of its request alone. This is the
        serving engine's batch path; :meth:`sense` is a batch of one.
        """
        return sense_requests(requests, self.config, self.array,
                              max_range=max_range,
                              min_range=self.config.min_range)
