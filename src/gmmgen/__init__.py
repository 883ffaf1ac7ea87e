"""Learn time-pose Gaussian mixtures from demonstrations, generalize them to
new start/goal poses, and regress executable trajectories."""

from .data import (PhaseSchedule, Pose, Trajectory, load_trajectory, resample,
                   save_trajectory)
from .gmr import activation_weights, regress, regress_with_variance
from .metrics import (EvalReport, FailureReason, average_jerk, boundary_error,
                      phase_deviation, rotation_angle_deg, shape_deviation)
from .model import (FitConfig, FitResult, GmmModel, em_fit, fit_gmm, kmeans_init,
                    load_model, save_model)
from .reparam import (ReparamConfig, ReparamModel, TaskSpec, generalize,
                      load_reparam_model, reparam_covariances, reparam_means,
                      save_reparam_model)
from .scene import (Scene, Slab, SuccessThresholds, box_collides, default_scene,
                    handle_poses, load_scene, sample_task, save_scene,
                    trajectory_success)
from .synth import SynthConfig, generate_demonstrations

__version__ = "0.1.0"

__all__ = [
    "EvalReport", "FailureReason", "FitConfig", "FitResult", "GmmModel",
    "PhaseSchedule", "Pose", "ReparamConfig", "ReparamModel", "Scene", "Slab",
    "SuccessThresholds", "SynthConfig", "TaskSpec", "Trajectory",
    "activation_weights", "average_jerk", "boundary_error",
    "box_collides", "default_scene", "em_fit", "fit_gmm", "generalize",
    "generate_demonstrations", "handle_poses", "kmeans_init", "load_model",
    "load_reparam_model", "load_scene", "load_trajectory",
    "phase_deviation", "regress", "regress_with_variance", "reparam_covariances",
    "reparam_means", "resample", "rotation_angle_deg", "sample_task", "save_model",
    "save_reparam_model", "save_scene", "save_trajectory", "shape_deviation",
    "trajectory_success",
]
