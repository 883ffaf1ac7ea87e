"""Generalize a fitted mixture to new start/goal poses.

Component means are remapped dimension-wise so the first and last
components land exactly on the requested endpoints, then each component's
time-normalized slope and spatial shape are rescaled by the change in
consecutive mean differences.  The spatial shape gets a rank-two update
that preserves its Schur complement, so adapted covariances stay SPD by
construction.  generalize() is the one public entry; _plain_tasks runs
its kernels, _remapped_means and _adapted_covs, on a stack of tasks so a
benchmark chunk can route them, and _curves compiles them for a fixed
time grid.

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
    """What _remapped_means and _adapted_covs read from the source model and
    eps alone, the same for every pair of endpoints."""

    degenerate: np.ndarray  # (D,) endpoint span below eps
    safe_span: np.ndarray  # (D,) that span, 1 where degenerate
    alpha: np.ndarray  # (G, 1) time-center fraction from first to last component
    keep: np.ndarray  # (G-1, D) consecutive mean difference below eps
    safe_d_old: np.ndarray  # (G-1, D) that difference, 1 where kept
    old_outers: np.ndarray  # (G-1, D, D) outer products of slopes[1:]


# The _SourceTerms of the last source model and eps, see _source_terms.
_SOURCE_MEMO = []


def _source_terms(model: GmmModel, eps) -> _SourceTerms:
    """The model's _SourceTerms for a (D,) eps, from a one-entry memo keyed
    by the bytes of the means, of covs[:, :, 0] (time variances and the
    slopes' numerators) and of eps, so a hit returns exactly what a miss
    computes."""
    eps = np.asarray(eps, dtype=float)

    def compute():
        means = model.means[:, 1:]
        span = means[-1] - means[0]
        degenerate = np.abs(span) < eps
        centers = model.means[:, 0, None]
        with np.errstate(invalid="ignore"):  # 0/0 for one component; generalize rejects it
            alpha = (centers - centers[0]) / (centers[-1] - centers[0])
        d_old = np.diff(means, axis=0)
        keep = np.abs(d_old) < eps
        return _SourceTerms(degenerate, np.where(degenerate, 1.0, span), alpha, keep,
                            np.where(keep, 1.0, d_old), _outers(model.slopes[1:]))
    return _memoized(_SOURCE_MEMO, (model.means, model.covs[:, :, 0], eps), compute)


def _remapped_means(model: GmmModel, new_start: np.ndarray, new_goal: np.ndarray,
                    src: _SourceTerms) -> np.ndarray:
    """Spatial means remapped onto new endpoints, dimension by dimension.

    Dimensions whose endpoint span exceeds eps are scaled about the first
    component's mean; degenerate ones blend the two endpoint offsets
    linearly in each component's time center.  Rows 0 and G-1 are the
    endpoints exactly.  Endpoints (..., D) give means (..., G, D).
    """
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


def _adapted_covs(model: GmmModel, new_means: np.ndarray, src: _SourceTerms) -> np.ndarray:
    """Covariances for new means (..., G, D), (..., G, D+1, D+1), before
    any SPD repair.

    Component 1 is left untouched.  For g >= 2 each slope dimension is
    multiplied by (new difference / old difference), except where the old
    consecutive difference falls below eps.  The spatial shape gets the
    rank-two update C + m'm'^T - mm^T, which leaves the Schur complement
    C - mm^T unchanged, and the covariance is reassembled as
    cov_tt [[1, m'^T], [m', C']].  Every matrix is exactly symmetric: the
    stored shapes are, so is each outer product, and both cross blocks
    hold the same moved slopes.
    """
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


def _curves(model: GmmModel, times: np.ndarray, ablate: bool) -> np.ndarray:
    """(3, n, D) curves a, b, c such that regress(generalize(model, task),
    times).values is a + b * start + c * goal, dimension by dimension, up
    to rounding, for any task that needs no SPD repair.  times must be
    valid query times from 0.

    _remapped_means() is affine in the endpoints, one dimension at a time,
    and the slope ratios of _adapted_covs() are affine in the new means;
    priors, time centers and time variances stay the source's, so the GMR
    weights are the same for every task.  Each curve is the regression of
    one coefficient set of means and slopes, taken from those formulas,
    not from differences of regressions.
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


def _check_endpoints(model: GmmModel, start: np.ndarray) -> None:
    """generalize's preconditions on the model and a start (..., D)."""
    if model.n_components < 2:
        raise ValueError("mean reparameterization needs at least two components")
    if start.shape[-1:] != (model.dim,):
        raise ValueError(f"endpoints must be vectors of length {model.dim}")


def generalize(model: GmmModel, task: TaskSpec,
               config: ReparamConfig = ReparamConfig()) -> GmmModel:
    """Adapt a fitted or generalized model to the task's start and goal poses.

    The means are remapped onto the task's endpoints (_remapped_means) and,
    unless config ablates it, each covariance is adapted to them
    (_adapted_covs).  The result carries the task.  Its priors and time
    centers are the source model's, untouched, and so are its time
    variances unless an SPD repair moved one.  The adapted stack is exactly
    symmetric, so GmmModel's check factors the very matrices the repair
    scan would; only a stack it rejects takes the scan and clamp
    (_repair), then a second construction.  A task, config or model of
    another type is a TypeError naming its type.
    """
    if not isinstance(task, TaskSpec):
        raise TypeError(f"task must be a TaskSpec, got {type(task).__name__}")
    if not isinstance(config, ReparamConfig):
        raise TypeError(f"config must be a ReparamConfig, got {type(config).__name__}")
    if not isinstance(model, GmmModel):
        raise TypeError(f"model must be a GmmModel, got {type(model).__name__}")
    start, goal = task.start_vector(), task.goal_vector()
    _check_endpoints(model, start)
    src = _source_terms(model, DEGENERATE_EPS)
    means = _remapped_means(model, start, goal, src)
    build = functools.partial(GmmModel, model.priors,
                              np.column_stack([model.means[:, 0], means]), phases=model.phases,
                              task=task, ablated=config.ablate_covariance)
    if config.ablate_covariance:
        return build(model.covs)
    if not np.isfinite(means).all():
        raise ValueError("new_means must be finite")
    covs = _adapted_covs(model, means, src)
    try:
        return build(covs)
    except ValueError:  # a stack that needs a repair, or that no repair saves
        return build(covs, spd_repairs=int(_repair(covs)))


def _plain_tasks(model: GmmModel, starts: np.ndarray, goals: np.ndarray,
                 ablate: bool) -> np.ndarray:
    """(T,) flags for endpoints (T, D): True where generalize() would store
    the kernels' means and, for the full method, adapted covariances
    unchanged.  A task is flagged False when its means are not finite, or
    when an adapted covariance has an entry above half the largest float
    or needs an SPD repair; generalize() raises or repairs for such a task.
    A model or endpoints generalize() rejects raise its ValueError."""
    _check_endpoints(model, starts)
    src = _source_terms(model, DEGENERATE_EPS)
    with np.errstate(over="ignore", invalid="ignore"):
        means = _remapped_means(model, starts, goals, src)
        plain = np.isfinite(means).all(axis=(1, 2))
        if not ablate:
            covs = _adapted_covs(model, means, src)
            plain &= ((np.abs(covs) <= np.finfo(float).max / 2).all(axis=(1, 2, 3))
                      & ~_cholesky_fails(covs[:, 1:]).any(axis=1))
    return plain
