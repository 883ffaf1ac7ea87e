"""Synthetic pick-and-place demonstrations on the shelf scene.

Each demonstration holds for 1 s at the start pose, transports for 5 s
along a minimum-jerk arc lifted over the shelf lip, and holds for 1 s at
the goal pose.  Start and goal are the scene's default endpoints.
Smooth low-frequency noise, faded out through the holds, makes the
demonstrations distinct while keeping their endpoints identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (GRASP_DURATION, RELEASE_DURATION, SAMPLE_RATE, PhaseSchedule, Pose,
                   TaskSpec, Trajectory, _check_int, _check_real)
from .scene import Scene, SuccessThresholds, rest_height, trajectory_success

NOISE_WAVES = 3
NOISE_FREQ_RANGE = (0.15, 0.6)
MAX_ATTEMPTS = 10
TRANSPORT_DURATION = 5.0


@dataclass(frozen=True)
class SynthConfig:
    """Demonstration generator settings; distances in meters, angles in radians."""

    n_demos: int = 5
    lift_height: float = 0.10
    noise_pos: float = 0.002
    noise_rot: float = 0.5 * np.pi / 180.0
    sample_rate: float = SAMPLE_RATE
    seed: int = 0

    def __post_init__(self):
        _check_int("n_demos", self.n_demos, 1)
        _check_int("seed", self.seed, 0)
        _check_real("sample_rate", self.sample_rate)
        for name in ("lift_height", "noise_pos", "noise_rot"):
            _check_real(name, getattr(self, name), positive=False)

    def phases(self) -> PhaseSchedule:
        release_start = GRASP_DURATION + TRANSPORT_DURATION
        return PhaseSchedule(GRASP_DURATION, release_start, release_start + RELEASE_DURATION)


def _smooth_step(u: np.ndarray) -> np.ndarray:
    """Minimum-jerk progress profile: zero velocity and acceleration at both ends."""
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def default_endpoints(scene: Scene):
    """Demonstration endpoints: left bay on the bottom level, right bay on top."""
    identity = np.zeros(3)
    start = Pose([0.20, 0.25, rest_height(scene, scene.levels[0])], identity)
    goal = Pose([0.60, 0.25, rest_height(scene, scene.levels[-1])], identity)
    return start, goal


def _transport_progress(times: np.ndarray) -> np.ndarray:
    """Smooth 0..1 progress through the transport phase, flat during holds."""
    u = np.clip((times - GRASP_DURATION) / TRANSPORT_DURATION, 0.0, 1.0)
    return _smooth_step(u)


def _nominal_path(times: np.ndarray, cfg: SynthConfig, start: Pose, goal: Pose) -> np.ndarray:
    a = start.as_vector()
    b = goal.as_vector()
    s = _transport_progress(times)
    vals = a + np.outer(s, b - a)
    vals[:, 2] += cfg.lift_height * 4.0 * s * (1.0 - s)
    return vals


def _smooth_noise(times: np.ndarray, rng: np.random.Generator,
                  sigmas: np.ndarray) -> np.ndarray:
    """Per-dimension sums of a few random sinusoids with matched overall sigma."""
    noise = np.zeros((len(times), len(sigmas)))
    for d, sigma in enumerate(sigmas):
        freqs = rng.uniform(*NOISE_FREQ_RANGE, NOISE_WAVES)
        phases = rng.uniform(0.0, 2.0 * np.pi, NOISE_WAVES)
        amp = sigma * np.sqrt(2.0 / NOISE_WAVES)
        for f, p in zip(freqs, phases):
            noise[:, d] += amp * np.sin(2.0 * np.pi * f * times + p)
    return noise


def generate_demonstrations(scene: Scene, cfg: SynthConfig = SynthConfig()):
    """Generate demonstrations that all pass the scene's success check.

    A demonstration whose noise draw collides is regenerated with the noise
    halved, up to 10 attempts.  Returns (demos, task) where task carries
    the shared nominal endpoints.
    """
    start, goal = default_endpoints(scene)
    task = TaskSpec(start, goal)
    total = cfg.phases().duration
    n = int(round(total * cfg.sample_rate)) + 1
    times = np.linspace(0.0, total, n)
    base = _nominal_path(times, cfg, start, goal)
    sigmas = np.array([cfg.noise_pos] * 3 + [cfg.noise_rot] * 3)
    # noise fades to zero through the holds so every demonstration pins the
    # exact task endpoints; constant dimensions then stay exactly constant
    s = _transport_progress(times)
    envelope = (4.0 * s * (1.0 - s))[:, None]
    thresholds = SuccessThresholds()

    demos = []
    for j in range(cfg.n_demos):
        for attempt in range(MAX_ATTEMPTS):
            rng = np.random.default_rng([cfg.seed, j, attempt])
            noise = _smooth_noise(times, rng, sigmas * 0.5**attempt)
            traj = Trajectory(times, base + envelope * noise)
            ok, _ = trajectory_success(traj, scene, task, thresholds)
            if ok:
                demos.append(traj)
                break
        else:
            raise ValueError(f"demonstration {j} kept colliding after "
                             f"{MAX_ATTEMPTS} noise reductions")
    return demos, task
