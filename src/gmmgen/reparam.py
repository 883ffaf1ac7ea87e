"""Generalize a fitted mixture to new start/goal poses.

Component means are remapped dimension-wise so the first and last
components land exactly on the requested endpoints, then each component's
time-normalized slope and spatial shape are rescaled by the change in
consecutive mean differences.  The spatial shape gets a rank-two update
that preserves its Schur complement, so adapted covariances stay SPD by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TaskSpec, _frozen_array
from .model import GmmModel, _cholesky_fails

# Endpoint spans and consecutive mean differences below these count as
# degenerate: 1e-4 m on the position axes, 1e-3 rad on the rotation axes.
DEGENERATE_EPS = _frozen_array([1e-4] * 3 + [1e-3] * 3)
# Eigenvalue clamp for a reassembled covariance that rounding left indefinite.
COV_FLOOR = 1e-6


@dataclass(frozen=True)
class ReparamConfig:
    """Generalization settings: ablate_covariance keeps the source
    covariances untouched and only remaps the means."""

    ablate_covariance: bool = False

    def __post_init__(self):
        if not isinstance(self.ablate_covariance, bool):
            raise ValueError(
                f"ablate_covariance must be a bool, got {self.ablate_covariance!r}")


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


def reparam_covariances(model: GmmModel, new_means: np.ndarray, eps: np.ndarray):
    """Rescale slopes by the change in consecutive mean differences.

    Component 1 is left untouched.  For g >= 2 each slope dimension is
    multiplied by (new difference / old difference); dimensions whose old
    consecutive difference falls below eps keep their slope.  The spatial
    shape gets the rank-two update C + m'm'^T - mm^T, which leaves the
    Schur complement C - mm^T unchanged.  Returns (slopes, shapes, covs,
    repairs), where repairs counts reassembled covariances that rounding
    left indefinite and that were clamped to COV_FLOOR.  As component 1
    keeps its slope, scaling the goal offsets (start at the first mean, goal
    first + s * span) scales the regression about the first mean only if
    component 1 is static (zero slope) and each dimension with s != 1 has
    its span and every consecutive difference at least eps.
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
        cov[g] = _clamp_spd(cov[g], COV_FLOOR)
    return (np.concatenate([model.slopes[:1], moved]),
            np.concatenate([model.shapes[:1], shape]),
            np.concatenate([model.covs[:1], cov]),
            len(broken))


def generalize(model: GmmModel, task: TaskSpec,
               config: ReparamConfig = ReparamConfig()) -> GmmModel:
    """Adapt a fitted or generalized model to the task's start and goal poses.

    The result carries the task.  Its priors, time centers and time
    variances are the source model's, untouched.
    """
    new_means = reparam_means(model, task.start_vector(), task.goal_vector(),
                              DEGENERATE_EPS)
    if config.ablate_covariance:
        slopes, shapes, covs, repairs = model.slopes, model.shapes, model.covs, 0
    else:
        slopes, shapes, covs, repairs = reparam_covariances(model, new_means,
                                                            DEGENERATE_EPS)
    means = np.column_stack([model.means[:, 0], new_means])
    return GmmModel(model.priors, means, covs, model.phases, slopes, shapes, task=task,
                    ablated=config.ablate_covariance, spd_repairs=repairs)
