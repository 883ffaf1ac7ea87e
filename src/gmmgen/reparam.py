"""Generalize a fitted mixture to new start/goal poses.

Component means are remapped dimension-wise so the first and last
components land exactly on the requested endpoints, then each component's
time-normalized slope and spatial shape are rescaled by the change in
consecutive mean differences.  The spatial shape gets a rank-two update
that preserves its Schur complement, so adapted covariances stay SPD by
construction.

The terms that depend on the source model and eps alone (spans, masks,
time fractions, old differences, old slope outer products) come from a
one-entry memo keyed by the bytes of the model's means, of its
covariances' first column and of eps.  A hit returns the arrays a miss
computes with the same operations, and the task-dependent arithmetic
keeps its order, so the output is bitwise the same.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import TaskSpec, _frozen_array, _memoized
from .gmr import _expected_poses
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


class _SourceTerms(NamedTuple):
    """What reparam_means and reparam_covariances compute from the source
    model and eps alone, the same for every pair of endpoints."""

    degenerate: np.ndarray  # (D,) endpoint span below eps
    safe_span: np.ndarray  # (D,) that span, 1 where degenerate
    alpha: np.ndarray  # (G, 1) time-center fraction from first to last component
    keep: np.ndarray  # (G-1, D) consecutive mean difference below eps
    safe_d_old: np.ndarray  # (G-1, D) that difference, 1 where kept
    old_outers: np.ndarray  # (G-1, D, D) outer products of slopes[1:]


# The _SourceTerms of the last source model and eps, see _source_terms.
_SOURCE_MEMO = []


def _source_terms(model: GmmModel, eps) -> _SourceTerms:
    """The model's _SourceTerms for eps, from a one-entry memo keyed by the
    bytes of the means, of covs[:, :, 0] (time variances and the slopes'
    numerators) and of eps, so a hit returns exactly what a miss computes.
    eps is checked on a miss only, so a rejected eps never becomes the entry."""
    eps = np.asarray(eps, dtype=float)

    def compute():
        if eps.shape != (model.dim,) or not np.all((0.0 <= eps) & (eps < np.inf)):
            raise ValueError(f"eps must be a finite, non-negative vector of length {model.dim}")
        means = model.means[:, 1:]
        span = means[-1] - means[0]
        degenerate = np.abs(span) < eps
        centers = model.means[:, 0, None]
        with np.errstate(invalid="ignore"):  # 0/0 for one component; reparam_means rejects it
            alpha = (centers - centers[0]) / (centers[-1] - centers[0])
        d_old = np.diff(means, axis=0)
        keep = np.abs(d_old) < eps
        return _SourceTerms(degenerate, np.where(degenerate, 1.0, span), alpha, keep,
                            np.where(keep, 1.0, d_old), _outers(model.slopes[1:]))
    return _memoized(_SOURCE_MEMO, (model.means, model.covs[:, :, 0], eps), compute)


def reparam_means(model: GmmModel, new_start: np.ndarray, new_goal: np.ndarray,
                  eps: np.ndarray) -> np.ndarray:
    """Remap spatial means onto new endpoints, dimension by dimension.

    Dimensions whose demonstrated endpoint span exceeds eps are scaled
    about the first component's mean; degenerate dimensions instead blend
    the two endpoint offsets linearly in each component's time center.
    Rows 0 and G-1 are set to the requested endpoints exactly.  Endpoints
    of shape (..., D) give means of shape (..., G, D), one set per pair.
    Endpoints must be finite, and eps a finite, non-negative (D,) vector;
    a ValueError names the argument that is not.
    """
    new_start, new_goal = _checked_endpoints(model, new_start, new_goal)
    return _remapped_means(model, new_start, new_goal, _source_terms(model, eps))


def _checked_endpoints(model: GmmModel, new_start, new_goal):
    """reparam_means' endpoints as float arrays, once they pass its checks."""
    if model.n_components < 2:
        raise ValueError("mean reparameterization needs at least two components")
    new_start = np.asarray(new_start, dtype=float)
    new_goal = np.asarray(new_goal, dtype=float)
    if new_start.shape[-1:] != (model.dim,) or new_goal.shape != new_start.shape:
        raise ValueError(f"endpoints must be vectors of length {model.dim}")
    if not (np.isfinite(new_start).all() and np.isfinite(new_goal).all()):
        raise ValueError("endpoints must be finite")
    return new_start, new_goal


def _remapped_means(model: GmmModel, new_start: np.ndarray, new_goal: np.ndarray,
                    src: _SourceTerms) -> np.ndarray:
    """reparam_means of checked endpoints, given the model's source terms."""
    means = model.means[:, 1:]
    first, last = means[0], means[-1]
    start, goal = new_start[..., None, :], new_goal[..., None, :]
    scale = np.where(src.degenerate, 0.0, (goal - start) / src.safe_span)
    scaled = start + scale * (means - first)
    offset = means + (1.0 - src.alpha) * (start - first) + src.alpha * (goal - last)

    out = np.where(src.degenerate, offset, scaled)
    out[..., 0, :] = new_start
    out[..., -1, :] = new_goal
    return out


def _clamp_spd(cov: np.ndarray, floor: float) -> np.ndarray:
    """A (..., D, D) stack with each matrix's eigenvalues raised to floor."""
    vals, vecs = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    vals = np.maximum(vals, floor)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)


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
    consecutive difference at least eps.  new_means must be finite and
    (..., G, D), and eps a finite, non-negative (D,) vector; a ValueError
    names the argument that is not.
    """
    new_means = _checked_new_means(model, new_means)
    covs = _adapted_covs(model, new_means, _source_terms(model, eps))
    return covs, _repair(covs)


def _checked_new_means(model: GmmModel, new_means) -> np.ndarray:
    """reparam_covariances' new_means as a float array, once it passes its checks."""
    new_means = np.asarray(new_means, dtype=float)
    shape = (model.n_components, model.dim)
    if new_means.shape[-2:] != shape:
        raise ValueError(f"new_means must be (..., {shape[0]}, {shape[1]}), "
                         f"got shape {new_means.shape}")
    if not np.isfinite(new_means).all():
        raise ValueError("new_means must be finite")
    return new_means


def _adapted_covs(model: GmmModel, new_means: np.ndarray, src: _SourceTerms) -> np.ndarray:
    """reparam_covariances' covs for checked new_means, given the model's
    source terms, before the repair scan.  Every matrix of the stack is
    exactly symmetric: the stored shapes are, so is each outer product
    (v_i v_j = v_j v_i), and both cross blocks hold the same moved slopes."""
    d_new = np.diff(new_means, axis=-2)
    ratio = np.where(src.keep, 1.0, d_new / src.safe_d_old)
    moved = ratio * model.slopes[1:]
    covs = np.empty((*moved.shape[:-2], *model.covs.shape))
    covs[..., 0, :, :] = model.covs[0]
    cov = covs[..., 1:, :, :]  # a view: the updates below fill covs
    cov[..., 0, 0] = 1.0
    cov[..., 0, 1:] = moved
    cov[..., 1:, 0] = moved
    cov[..., 1:, 1:] = model.shapes[1:] + _outers(moved) - src.old_outers
    cov *= model.covs[1:, 0, 0, None, None]
    return covs


def _repair(covs: np.ndarray) -> np.ndarray:
    """Clamp in place to COV_FLOOR each adapted covariance, covs[..., 1:, :, :],
    that Cholesky rejects; returns the count per stack, (...)."""
    cov = covs[..., 1:, :, :]
    broken = _cholesky_fails(cov)
    if broken.any():  # eigh on an empty stack alone costs ~15 us a query
        cov[broken] = _clamp_spd(cov[broken], COV_FLOOR)
    return broken.sum(axis=-1)


def _reparam(model: GmmModel, starts: np.ndarray, goals: np.ndarray,
             config: ReparamConfig):
    """(means, covs, repairs) for endpoints of shape (D,), or (T, D) stacked."""
    means = reparam_means(model, starts, goals, DEGENERATE_EPS)
    if config.ablate_covariance:
        lead = means.shape[:-2]
        return (means, np.broadcast_to(model.covs, (*lead, *model.covs.shape)),
                np.zeros(lead, dtype=int))
    return (means, *reparam_covariances(model, means, DEGENERATE_EPS))


def _curves(model: GmmModel, times: np.ndarray, ablate: bool) -> np.ndarray:
    """(3, n, D) curves a, b, c such that regress(generalize(model, task),
    times).values is a + b * start + c * goal, dimension by dimension, up
    to rounding, for any task that needs no SPD repair.  times must be
    valid query times from 0.

    reparam_means() is affine in the endpoints, one dimension at a time,
    and the slope ratios of reparam_covariances() are affine in the new
    means; priors, time centers and time variances stay the source's, so
    the GMR weights are the same for every task.  Each curve is the
    regression of one coefficient set of means and slopes, taken from the
    formulas above, not from differences of regressions.
    """
    src = _source_terms(model, DEGENERATE_EPS)
    means = model.means[:, 1:]
    first, last = means[0], means[-1]
    fraction = (means - first) / src.safe_span  # where each scaled mean sits on the span
    mu = np.stack([np.where(src.degenerate, means - (1.0 - src.alpha) * first - src.alpha * last,
                            0.0),
                   np.where(src.degenerate, 1.0 - src.alpha, 1.0 - fraction),
                   np.where(src.degenerate, src.alpha, fraction)])
    mu[:, [0, -1]] = 0.0  # the endpoints themselves
    mu[1, 0] = mu[2, -1] = 1.0
    slopes = np.zeros_like(mu)
    slopes[0] = model.slopes
    if not ablate:
        ratio = np.diff(mu, axis=1) / src.safe_d_old
        slopes[:, 1:] = np.where(src.keep, slopes[:, 1:], ratio * model.slopes[1:])
    flat = [np.concatenate(list(terms), axis=1) for terms in (mu, slopes)]  # (G, 3D)
    values = _expected_poses(model.priors, model.means[:, 0], model.covs[:, 0, 0], *flat, times)
    return values.reshape(len(times), 3, -1).transpose(1, 0, 2)


def generalize(model: GmmModel, task: TaskSpec,
               config: ReparamConfig = ReparamConfig()) -> GmmModel:
    """Adapt a fitted or generalized model to the task's start and goal poses.

    The result carries the task.  Its priors and time centers are the
    source model's, untouched, and so are its time variances unless an SPD
    repair moved one.  It is bitwise the GmmModel of reparam_means and
    reparam_covariances, repair count and errors included, but looks the
    source terms up once and factors the adapted stack once, in GmmModel's
    check.  The stack is exactly symmetric, so that check factors the very
    matrices reparam_covariances' repair scan would; only a stack it
    rejects takes the scan and clamp, then a second construction.
    """
    if not isinstance(task, TaskSpec):
        raise TypeError(f"task must be a TaskSpec, got {type(task).__name__}")
    if not isinstance(config, ReparamConfig):
        raise TypeError(f"config must be a ReparamConfig, got {type(config).__name__}")
    start, goal = _checked_endpoints(model, task.start_vector(), task.goal_vector())
    src = _source_terms(model, DEGENERATE_EPS)
    means = _remapped_means(model, start, goal, src)
    build = functools.partial(GmmModel, model.priors,
                              np.column_stack([model.means[:, 0], means]), phases=model.phases,
                              task=task, ablated=config.ablate_covariance)
    if config.ablate_covariance:
        return build(model.covs)
    covs = _adapted_covs(model, _checked_new_means(model, means), src)
    try:
        return build(covs)
    except ValueError:  # a stack that needs a repair, or that no repair saves
        return build(covs, spd_repairs=int(_repair(covs)))
