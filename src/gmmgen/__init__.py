"""Learn time-pose Gaussian mixtures from demonstrations, generalize them to
new start/goal poses, and regress executable trajectories."""

from .data import (PhaseSchedule, Pose, TaskSpec, Trajectory, load_trajectory, resample,
                   save_trajectory)
from .gmr import regress
from .metrics import (EvalReport, FailureReason, average_jerk, boundary_error,
                      phase_deviation, shape_deviation)
from .model import (FitConfig, FitResult, GmmModel, em_fit, fit_gmm, kmeans_init,
                    load_model, save_model)
from .reparam import ReparamConfig, generalize
from .scene import (Scene, Slab, SuccessThresholds, default_scene, load_scene, sample_task,
                    save_scene, trajectory_success)
from .synth import SynthConfig, generate_demonstrations

__version__ = "0.1.0"

__all__ = [
    "EvalReport", "FailureReason", "FitConfig", "FitResult", "GmmModel",
    "PhaseSchedule", "Pose", "ReparamConfig", "Scene", "Slab",
    "SuccessThresholds", "SynthConfig", "TaskSpec", "Trajectory",
    "average_jerk", "boundary_error", "default_scene", "em_fit", "fit_gmm",
    "generalize", "generate_demonstrations", "kmeans_init", "load_model", "load_scene",
    "load_trajectory", "phase_deviation", "regress", "resample", "sample_task",
    "save_model", "save_scene", "save_trajectory", "shape_deviation", "trajectory_success",
]
