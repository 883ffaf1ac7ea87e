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
    Rows 0 and G-1 are set to the requested endpoints exactly.  Endpoints
    of shape (..., D) give means of shape (..., G, D), one set per pair.
    """
    if model.n_components < 2:
        raise ValueError("mean reparameterization needs at least two components")
    new_start = np.asarray(new_start, dtype=float)
    new_goal = np.asarray(new_goal, dtype=float)
    if new_start.shape[-1:] != (model.dim,) or new_goal.shape != new_start.shape:
        raise ValueError(f"endpoints must be vectors of length {model.dim}")
    if not (np.isfinite(new_start).all() and np.isfinite(new_goal).all()):
        raise ValueError("endpoints must be finite")

    means = model.means[:, 1:]
    first, last = means[0], means[-1]
    start, goal = new_start[..., None, :], new_goal[..., None, :]
    span = last - first
    degenerate = np.abs(span) < eps
    safe_span = np.where(degenerate, 1.0, span)
    scale = np.where(degenerate, 0.0, (goal - start) / safe_span)
    scaled = start + scale * (means - first)

    centers = model.means[:, 0, None]
    alpha = (centers - centers[0]) / (centers[-1] - centers[0])
    offset = means + (1.0 - alpha) * (start - first) + alpha * (goal - last)

    out = np.where(degenerate, offset, scaled)
    out[..., 0, :] = new_start
    out[..., -1, :] = new_goal
    return out


def _clamp_spd(cov: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _outers(vecs: np.ndarray) -> np.ndarray:
    """Per-row outer products v v^T of a (..., D) stack, (..., D, D)."""
    return vecs[..., :, None] * vecs[..., None, :]


def reparam_covariances(model: GmmModel, new_means: np.ndarray, eps: np.ndarray):
    """Rescale slopes by the change in consecutive mean differences.

    Component 1 is left untouched.  For g >= 2 each slope dimension is
    multiplied by (new difference / old difference); dimensions whose old
    consecutive difference falls below eps keep their slope.  The spatial
    shape gets the rank-two update C + m'm'^T - mm^T, which leaves the
    Schur complement C - mm^T unchanged, and the covariance is reassembled
    as cov_tt [[1, m'^T], [m', C']].  Returns (covs, repairs), where repairs
    counts reassembled covariances that rounding left indefinite and that
    were clamped to COV_FLOOR; the model built from covs derives its slopes
    and shapes from them, so a repair reaches regression.  New means of
    shape (..., G, D) give covs (..., G, D+1, D+1) and repairs (...), one
    per set of means.  As component 1 keeps its slope, scaling the goal
    offsets (start at the first mean, goal first + s * span) scales the
    regression about the first mean only if component 1 is static (zero
    slope) and each dimension with s != 1 has its span and every
    consecutive difference at least eps.
    """
    d_old = np.diff(model.means[:, 1:], axis=0)
    d_new = np.diff(new_means, axis=-2)
    keep = np.abs(d_old) < eps
    ratio = np.where(keep, 1.0, d_new / np.where(keep, 1.0, d_old))
    old = model.slopes[1:]
    moved = ratio * old
    covs = np.empty((*moved.shape[:-2], *model.covs.shape))
    covs[..., 0, :, :] = model.covs[0]
    cov = covs[..., 1:, :, :]  # a view: the updates below fill covs
    cov[..., 0, 0] = 1.0
    cov[..., 0, 1:] = moved
    cov[..., 1:, 0] = moved
    cov[..., 1:, 1:] = model.shapes[1:] + _outers(moved) - _outers(old)
    cov *= model.covs[1:, 0, 0, None, None]
    broken = _cholesky_fails(cov)
    for index in zip(*np.nonzero(broken)):
        cov[index] = _clamp_spd(cov[index], COV_FLOOR)
    return covs, broken.sum(axis=-1)


def _reparam(model: GmmModel, starts: np.ndarray, goals: np.ndarray,
             config: ReparamConfig):
    """(means, covs, repairs) for endpoints of shape (D,), or (T, D) stacked."""
    means = reparam_means(model, starts, goals, DEGENERATE_EPS)
    if config.ablate_covariance:
        lead = means.shape[:-2]
        return (means, np.broadcast_to(model.covs, (*lead, *model.covs.shape)),
                np.zeros(lead, dtype=int))
    return (means, *reparam_covariances(model, means, DEGENERATE_EPS))


def generalize(model: GmmModel, task: TaskSpec,
               config: ReparamConfig = ReparamConfig()) -> GmmModel:
    """Adapt a fitted or generalized model to the task's start and goal poses.

    The result carries the task.  Its priors and time centers are the
    source model's, untouched, and so are its time variances unless an SPD
    repair moved one.
    """
    means, covs, repairs = _reparam(model, task.start_vector(), task.goal_vector(), config)
    return GmmModel(model.priors, np.column_stack([model.means[:, 0], means]), covs,
                    model.phases, task=task, ablated=config.ablate_covariance,
                    spd_repairs=int(repairs))
