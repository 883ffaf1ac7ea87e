"""Generalize a fitted mixture to new start/goal poses.

Component means are remapped dimension-wise so the first and last
components land exactly on the requested endpoints, then each component's
time-normalized slope and spatial shape are rescaled by the change in
consecutive mean differences.  The spatial shape gets a rank-two update
that preserves its Schur complement, so adapted covariances stay SPD by
construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Pose, _read_json
from .model import GmmModel, _cholesky_fails, model_from_dict, model_to_dict

DEFAULT_POS_EPS = 1e-4
DEFAULT_ROT_EPS = 1e-3


@dataclass(frozen=True)
class TaskSpec:
    """Requested start and goal poses for one generalization."""

    start: Pose
    goal: Pose

    def start_vector(self) -> np.ndarray:
        return self.start.as_vector()

    def goal_vector(self) -> np.ndarray:
        return self.goal.as_vector()


@dataclass(frozen=True)
class ReparamConfig:
    """Knobs for the generalization step.

    degenerate_eps may be a scalar, a per-dimension sequence, or None for
    the built-in defaults (1e-4 m on position axes, 1e-3 rad on rotation
    axes).  ablate_covariance keeps the source covariances untouched and
    only remaps the means.  cov_floor is the eigenvalue clamp used if
    rounding ever breaks positive definiteness of a reassembled covariance.
    """

    degenerate_eps: object = None
    ablate_covariance: bool = False
    cov_floor: float = 1e-6

    def __post_init__(self):
        if not (self.cov_floor > 0.0):
            raise ValueError("cov_floor must be positive")
        eps = self.degenerate_eps
        if eps is not None and np.any(np.asarray(eps, dtype=float) <= 0.0):
            raise ValueError("degenerate_eps must be positive")

    def resolve_eps(self, dim: int) -> np.ndarray:
        if self.degenerate_eps is None:
            if dim == 6:
                return np.array([DEFAULT_POS_EPS] * 3 + [DEFAULT_ROT_EPS] * 3)
            return np.full(dim, DEFAULT_POS_EPS)
        eps = np.asarray(self.degenerate_eps, dtype=float)
        if eps.ndim == 0:
            return np.full(dim, float(eps))
        if eps.shape != (dim,):
            raise ValueError(f"degenerate_eps must be scalar or length {dim}")
        return eps.copy()


def reparam_means(model: GmmModel, new_start: np.ndarray, new_goal: np.ndarray,
                  eps: np.ndarray) -> np.ndarray:
    """Remap spatial means onto new endpoints, dimension by dimension.

    Dimensions whose demonstrated endpoint span exceeds eps are scaled
    about the first component's mean; degenerate dimensions instead blend
    the two endpoint offsets linearly in each component's time center.
    Rows 0 and G-1 are set to the requested endpoints exactly.
    """
    if model.n_components < 2:
        raise ValueError("mean reparameterization needs at least two components")
    new_start = np.asarray(new_start, dtype=float)
    new_goal = np.asarray(new_goal, dtype=float)
    if new_start.shape != (model.dim,) or new_goal.shape != (model.dim,):
        raise ValueError(f"endpoints must be vectors of length {model.dim}")
    if not (np.isfinite(new_start).all() and np.isfinite(new_goal).all()):
        raise ValueError("endpoints must be finite")

    means = model.means[:, 1:]
    first, last = means[0], means[-1]
    span = last - first
    degenerate = np.abs(span) < eps
    safe_span = np.where(degenerate, 1.0, span)
    scale = np.where(degenerate, 0.0, (new_goal - new_start) / safe_span)
    scaled = new_start + scale * (means - first)

    centers = model.means[:, 0]
    alpha = (centers - centers[0]) / (centers[-1] - centers[0])
    offset = (means
              + np.outer(1.0 - alpha, new_start - first)
              + np.outer(alpha, new_goal - last))

    out = np.where(degenerate[None, :], offset, scaled)
    out[0] = new_start
    out[-1] = new_goal
    return out


def _clamp_spd(cov: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _outers(vecs: np.ndarray) -> np.ndarray:
    """Per-row outer products v v^T of a (G, D) stack, (G, D, D)."""
    return vecs[:, :, None] * vecs[:, None, :]


def reparam_covariances(model: GmmModel, new_means: np.ndarray, eps: np.ndarray,
                        cov_floor: float = 1e-6):
    """Rescale slopes by the change in consecutive mean differences.

    Component 1 is left untouched.  For g >= 2 each slope dimension is
    multiplied by (new difference / old difference); dimensions whose old
    consecutive difference falls below eps keep their slope.  The spatial
    shape gets the rank-two update C + m'm'^T - mm^T, which leaves the
    Schur complement C - mm^T unchanged.  Returns (slopes, shapes, covs,
    repairs), where repairs counts reassembled covariances that rounding
    left indefinite and that were clamped to cov_floor.
    """
    d_old = np.diff(model.means[:, 1:], axis=0)
    d_new = np.diff(new_means, axis=0)
    keep = np.abs(d_old) < eps
    ratio = np.where(keep, 1.0, d_new / np.where(keep, 1.0, d_old))
    old = model.slopes[1:]
    moved = ratio * old
    shape = model.shapes[1:] + _outers(moved) - _outers(old)
    cov = np.empty((len(moved), model.dim + 1, model.dim + 1))
    cov[:, 0, 0] = 1.0
    cov[:, 0, 1:] = moved
    cov[:, 1:, 0] = moved
    cov[:, 1:, 1:] = shape
    cov = model.covs[1:, 0, 0, None, None] * cov
    broken = np.flatnonzero(_cholesky_fails(cov))
    for g in broken:
        cov[g] = _clamp_spd(cov[g], cov_floor)
    return (np.concatenate([model.slopes[:1], moved]),
            np.concatenate([model.shapes[:1], shape]),
            np.concatenate([model.covs[:1], cov]),
            len(broken))


@dataclass(frozen=True, kw_only=True)
class ReparamModel(GmmModel):
    """A generalized mixture: GmmModel with adapted means, covariances,
    slopes and shapes, plus where it came from.

    Priors, time centers, and time variances are carried over from the
    source model untouched.
    """

    task: TaskSpec
    ablated: bool = False
    spd_repairs: int = 0


def generalize(model: GmmModel, task: TaskSpec,
               config: ReparamConfig = ReparamConfig()) -> ReparamModel:
    """Adapt a fitted model to the task's start and goal poses."""
    if model.dim != 6:
        raise ValueError("task generalization expects 6-DoF pose models")
    eps = config.resolve_eps(model.dim)
    new_means = reparam_means(model, task.start_vector(), task.goal_vector(), eps)
    if config.ablate_covariance:
        slopes, shapes, covs, repairs = model.slopes, model.shapes, model.covs, 0
    else:
        slopes, shapes, covs, repairs = reparam_covariances(model, new_means, eps,
                                                            config.cov_floor)
    means = np.column_stack([model.means[:, 0], new_means])
    return ReparamModel(model.priors, means, covs, model.duration, model.phases,
                        slopes, shapes, task=task, ablated=config.ablate_covariance,
                        spd_repairs=repairs)


def reparam_to_dict(model: ReparamModel) -> dict:
    base = model_to_dict(model)
    for comp, slope, shape in zip(base["components"], model.slopes, model.shapes):
        comp["m"] = [float(v) for v in slope]
        comp["C"] = [float(v) for v in shape.ravel()]
    base["task"] = {
        "start": [float(v) for v in model.task.start_vector()],
        "goal": [float(v) for v in model.task.goal_vector()],
    }
    base["ablate_covariance"] = model.ablated
    base["spd_repairs"] = model.spd_repairs
    return base


def reparam_from_dict(obj: dict) -> ReparamModel:
    base = model_from_dict(obj)
    dim = base.dim
    try:
        slopes = np.stack([np.asarray(c["m"], dtype=float) for c in obj["components"]])
        shapes = np.stack([
            np.asarray(c["C"], dtype=float).reshape(dim, dim) for c in obj["components"]
        ])
        task = TaskSpec(Pose.from_vector(obj["task"]["start"]),
                        Pose.from_vector(obj["task"]["goal"]))
        ablated = bool(obj.get("ablate_covariance", False))
        repairs = int(obj.get("spd_repairs", 0))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"generalized-model JSON invalid: {exc}") from exc
    return ReparamModel(base.priors, base.means, base.covs, base.duration, base.phases,
                        slopes, shapes, task=task, ablated=ablated, spd_repairs=repairs)


def save_reparam_model(model: ReparamModel, path) -> None:
    Path(path).write_text(json.dumps(reparam_to_dict(model), indent=2) + "\n",
                          encoding="utf-8")


def load_reparam_model(path) -> ReparamModel:
    return _read_json(path, reparam_from_dict)
