"""Fig. 9: FMCW radar localization of a walking human.

The paper has a subject walk shaped paths in the office and overlays the
radar-detected trajectory on ground-truth points; the detected track hugs
the ground truth, validating the radar before any spoofing is evaluated.
This experiment walks a simulated human along two shaped paths (a
rectangle and an S-curve) and reports per-path localization error against
the radar's ~15 cm range resolution.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import TrackingError
from repro.experiments.environments import Environment, office_environment
from repro.trajectories.synthesis import rectangle_path, s_curve_path
from repro.types import Trajectory

# rectangle_path / s_curve_path moved to repro.trajectories.synthesis (they
# are path primitives, not experiment code); re-exported for compatibility.
__all__ = ["Fig9Result", "run", "rectangle_path", "s_curve_path"]


@dataclasses.dataclass(frozen=True)
class Fig9Result:
    """Localization accuracy per shaped path."""

    path_names: list[str]
    ground_truths: list[Trajectory]
    detected: list[Trajectory]
    median_errors_m: list[float]
    p90_errors_m: list[float]
    range_resolution_m: float

    def format_table(self) -> str:
        lines = ["Fig. 9 — FMCW radar localization (office)",
                 f"{'path':<12} {'median err (m)':>15} {'p90 err (m)':>12}"]
        for name, med, p90 in zip(self.path_names, self.median_errors_m,
                                  self.p90_errors_m):
            lines.append(f"{name:<12} {med:>15.3f} {p90:>12.3f}")
        lines.append(f"(range resolution: {self.range_resolution_m:.3f} m)")
        return "\n".join(lines)


def run(*, environment: Environment | None = None, duration: float = 10.0,
        seed: int = 0) -> Fig9Result:
    """Walk two shaped paths and track them with the radar."""
    if environment is None:
        environment = office_environment()
    rng = np.random.default_rng(seed)
    radar = environment.make_radar()
    num_points = max(int(duration * 5), 10)
    dt = duration / (num_points - 1)
    center = environment.room.center + np.array([0.0, 0.5])

    # Scale the paths with the session length so the subject walks at a
    # human ~1 m/s regardless of the requested duration.
    scale = duration / 10.0
    paths = {
        "rectangle": rectangle_path(center, 3.0 * scale, 2.0 * scale,
                                    num_points, dt),
        "s-curve": s_curve_path(center, 4.0 * scale, 2.0 * scale,
                                num_points, dt),
    }

    names, truths, detections, medians, p90s = [], [], [], [], []
    for name, truth in paths.items():
        scene = environment.make_scene()
        scene.add_human(truth)
        result = radar.sense(scene, duration, rng=rng)
        tracks = result.tracks()  # one Detect pass serves both readouts
        if not tracks:
            raise TrackingError("no target was tracked in this session")
        track = tracks[0]
        detected = track.to_trajectory()
        errors = np.array([
            np.linalg.norm(position - truth.position_at(t))
            for t, position in zip(track.times, track.raw_positions)
        ])
        names.append(name)
        truths.append(truth)
        detections.append(detected)
        medians.append(float(np.median(errors)))
        p90s.append(float(np.percentile(errors, 90)))

    return Fig9Result(
        path_names=names,
        ground_truths=truths,
        detected=detections,
        median_errors_m=medians,
        p90_errors_m=p90s,
        range_resolution_m=radar.config.chirp.range_resolution,
    )
