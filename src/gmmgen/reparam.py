"""Generalize a fitted mixture to new start/goal poses.

Component means are remapped dimension-wise so the first and last
components land exactly on the requested endpoints, then each component's
time-normalized slope and spatial shape are rescaled by the change in
consecutive mean differences.  The spatial shape gets a rank-two update
that preserves its Schur complement, so adapted covariances stay SPD by
construction.  generalize() is the one public entry; _generalized runs
its kernels, _remapped_means and _adapted_covs, and its rule for storing
them unchanged, on one task or a benchmark chunk's stack, and _curves
compiles them for a fixed time grid.

The terms that depend on the source model and eps alone (spans, masks,
time fractions, old differences, old slope outer products, the endpoint
rows and the time variances) live in the model's one-entry source cache,
keyed by the bytes of eps.  The model's arrays are frozen, so a hit
returns what a miss computes, and the task-dependent arithmetic keeps
its operands and order: the output is bitwise the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import TaskSpec, _frozen_array
from .gmr import _expected_poses, _grid_terms
from .model import GmmModel, _cholesky_fails

# Endpoint spans and consecutive mean differences below these count as
# degenerate: 1e-4 m on the position axes, 1e-3 rad on the rotation axes.
DEGENERATE_EPS = _frozen_array([1e-4] * 3 + [1e-3] * 3)
# Eigenvalue clamp for a reassembled covariance that rounding left indefinite.
COV_FLOOR = 1e-6
# Largest magnitude whose double is finite: symmetrizing a covariance adds two entries.
_HALF_MAX = np.finfo(float).max / 2


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
    complement: np.ndarray  # (G, 1) 1 - alpha
    ends: np.ndarray  # (2, D) spatial means of the first and last components
    from_first: np.ndarray  # (G, D) spatial means minus the first one
    keep: np.ndarray  # (G-1, D) consecutive mean difference below eps
    safe_d_old: np.ndarray  # (G-1, D) that difference, 1 where kept
    old_outers: np.ndarray  # (G-1, D, D) outer products of slopes[1:]
    t_vars: np.ndarray  # (G-1, 1, 1) time variances of components 1 onwards
    cov0: np.ndarray  # (D+1, D+1) component 0's covariance


def _source_terms(model: GmmModel, eps) -> _SourceTerms:
    """The model's read-only _SourceTerms for a (D,) eps, from its source
    cache, whose one entry is keyed by the shape and bytes of eps.  A
    one-component model, which has no span to remap, is a ValueError."""
    if model.n_components < 2:
        raise ValueError("mean reparameterization needs at least two components")
    eps = np.asarray(eps, dtype=float)
    key = (eps.shape, eps.tobytes())
    entry = model._source_cache[0]
    if entry is None or entry[0] != key:
        means = model.means[:, 1:]
        ends = means[[0, -1]]
        span = ends[1] - ends[0]
        degenerate = np.abs(span) < eps
        centers = model.means[:, 0, None]
        alpha = (centers - centers[0]) / (centers[-1] - centers[0])
        d_old = means[1:] - means[:-1]
        keep = np.abs(d_old) < eps
        terms = _SourceTerms(degenerate, np.where(degenerate, 1.0, span), alpha, 1.0 - alpha,
                             ends, means - ends[0], keep, np.where(keep, 1.0, d_old),
                             _outers(model.slopes[1:]), model.covs[1:, 0, 0, None, None],
                             model.covs[0])
        for array in terms:
            array.flags.writeable = False
        entry = (key, terms)
        model._source_cache[0] = entry
    return entry[1]


def _remapped_means(model: GmmModel, ends: np.ndarray, src: _SourceTerms) -> np.ndarray:
    """Means remapped onto new endpoints, dimension by dimension.

    ends (..., 2, D) holds rows [start, goal]; the result (..., G, D+1)
    holds rows [t, x] on the source's time centers.  Spatial dimensions
    whose endpoint span exceeds eps are scaled about the first
    component's mean; degenerate ones blend the two endpoint offsets
    linearly in each component's time center.  Rows 0 and G-1 are the
    endpoints exactly.
    """
    start, goal = ends[..., :1, :], ends[..., 1:, :]
    scale = np.where(src.degenerate, 0.0, (goal - start) / src.safe_span)
    scaled = start + scale * src.from_first
    moved = ends - src.ends  # rows [start - first, goal - last]
    offset = (model.means[:, 1:] + src.complement * moved[..., :1, :]
              + src.alpha * moved[..., 1:, :])

    out = np.empty((*ends.shape[:-2], *model.means.shape))
    out[..., 0] = model.means[:, 0]
    out[..., 1:] = np.where(src.degenerate, offset, scaled)
    out[..., 0, 1:] = ends[..., 0, :]
    out[..., -1, 1:] = ends[..., 1, :]
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
    d_new = new_means[..., 1:, :] - new_means[..., :-1, :]
    ratio = np.where(src.keep, 1.0, d_new / src.safe_d_old)
    moved = ratio * model.slopes[1:]
    covs = np.empty((*moved.shape[:-2], *model.covs.shape))
    covs[..., 0, :, :] = src.cov0
    cov = covs[..., 1:, :, :]  # a view: the updates below fill covs
    cov[..., 0, 0] = 1.0
    cov[..., 0, 1:] = moved
    cov[..., 1:, 0] = moved
    cov[..., 1:, 1:] = model.shapes[1:] + _outers(moved) - src.old_outers
    cov *= src.t_vars
    return covs


def _repair(covs: np.ndarray, broken: np.ndarray) -> np.ndarray:
    """Clamp in place to COV_FLOOR each adapted covariance, covs[..., 1:, :, :],
    that broken (..., G-1) flags as rejected by Cholesky; returns the count
    per stack, (...)."""
    if broken.any():  # eigh on an empty stack alone costs ~15 us a query
        cov = covs[..., 1:, :, :]
        cov[broken] = _clamp_spd(cov[broken], COV_FLOOR)
    return broken.sum(axis=-1)


def _curves(model: GmmModel, times: np.ndarray, ablate: bool) -> np.ndarray:
    """(3, n, D) curves a, b, c such that regress(generalize(model, task),
    times).values is a + b * start + c * goal, dimension by dimension, up
    to rounding, for any task that needs no SPD repair.  times must be
    valid query times from 0; they and their activations come from the
    model's grid cache, as a query's do.

    _remapped_means() is affine in the endpoints, one dimension at a time,
    and the slope ratios of _adapted_covs() are affine in the new means;
    priors, time centers and time variances stay the source's, so the GMR
    weights are the same for every task.  Each curve is the regression of
    one coefficient set of means and slopes, taken from those formulas,
    not from differences of regressions.
    """
    src = _source_terms(model, DEGENERATE_EPS)
    first, last = src.ends
    fraction = src.from_first / src.safe_span  # where each scaled mean sits on the span
    mu = np.stack([np.where(src.degenerate,
                            model.means[:, 1:] - src.complement * first - src.alpha * last, 0.0),
                   np.where(src.degenerate, src.complement, 1.0 - fraction),
                   np.where(src.degenerate, src.alpha, fraction)])
    mu[:, [0, -1]] = 0.0  # the endpoints themselves
    mu[1, 0] = mu[2, -1] = 1.0
    slopes = np.zeros_like(mu)
    slopes[0] = model.slopes
    if not ablate:
        ratio = (mu[:, 1:] - mu[:, :-1]) / src.safe_d_old
        slopes[:, 1:] = np.where(src.keep, slopes[:, 1:], ratio * model.slopes[1:])
    flat = [np.concatenate(list(terms), axis=1) for terms in (mu, slopes)]  # (G, 3D)
    grid = _grid_terms(model, times)
    values = _expected_poses(grid.act, model.means[:, :1], *flat, np.tile(grid.times_wide, 3),
                             np.tile(grid.sums_wide, 3))
    return values.reshape(len(grid.times), 3, -1).transpose(1, 0, 2)


def _generalized(model: GmmModel, ends: np.ndarray, ablate: bool):
    """(means, covs, broken, plain): generalize's kernels and rule on
    endpoints (..., 2, D), rows [start, goal], for one task or a stack.

    means (..., G, D+1) are remapped; covs (..., G, D+1, D+1) are adapted,
    unrepaired, and broken (..., G-1) flags those after component 0 (the
    source's, factored by its constructor) that Cholesky rejects.  covs and
    broken are None for the ablated method, or when no means are finite.
    plain (...) is True where generalize() stores the kernels' arrays
    unchanged: finite means and, for the full method, no broken flag and
    no covariance entry above half the largest float (symmetrizing would
    overflow).  A one-component model (_source_terms) or endpoints of
    another width is a ValueError.
    """
    if ends.shape[-1:] != (model.dim,):
        raise ValueError(f"endpoints must be vectors of length {model.dim}")
    src = _source_terms(model, DEGENERATE_EPS)
    means = _remapped_means(model, ends, src)
    plain = np.isfinite(means).all(axis=(-2, -1))
    if ablate or not plain.any():
        return means, None, None, plain
    covs = _adapted_covs(model, means[..., 1:], src)
    broken = _cholesky_fails(covs[..., 1:, :, :])
    plain &= (np.abs(covs) <= _HALF_MAX).all(axis=(-3, -2, -1)) & ~broken.any(axis=-1)
    return means, covs, broken, plain


def generalize(model: GmmModel, task: TaskSpec,
               config: ReparamConfig = ReparamConfig()) -> GmmModel:
    """Adapt a fitted or generalized model to the task's start and goal poses.

    The means are remapped onto the task's endpoints (_remapped_means) and,
    unless config ablates it, each covariance is adapted to them
    (_adapted_covs).  The result carries the task.  Its priors and time
    centers are the source model's, untouched, and so are its time
    variances unless an SPD repair moved one.

    The query runs a chunk's kernels and rule (_generalized) on a stack of
    one.  A task the rule passes is built by GmmModel._derived; the ablated
    method stores a copy of the source's covariances and factors nothing.
    Otherwise GmmModel(...) checks the result in full: non-finite means
    raise its located error for either method, before any covariance is
    adapted, and the full method's adapted stack is checked once the
    flagged matrices are clamped (_repair).  So errors, repair counts and
    stored bits are the public constructor's.  A task, config or model of
    another type is a TypeError naming its type.
    """
    if not isinstance(task, TaskSpec):
        raise TypeError(f"task must be a TaskSpec, got {type(task).__name__}")
    if not isinstance(config, ReparamConfig):
        raise TypeError(f"config must be a ReparamConfig, got {type(config).__name__}")
    if not isinstance(model, GmmModel):
        raise TypeError(f"model must be a GmmModel, got {type(model).__name__}")
    start, goal = task.start, task.goal
    ends = np.concatenate([start.position, start.orientation,
                           goal.position, goal.orientation]).reshape(2, -1)
    means, covs, broken, plain = _generalized(model, ends, config.ablate_covariance)
    if plain:
        return GmmModel._derived(model, means, task, covs)
    if covs is None:  # non-finite means: raises the constructor's located error
        return GmmModel(model.priors, means, model.covs, model.phases, task=task)
    return GmmModel(model.priors, means, covs, model.phases, task=task,
                    spd_repairs=int(_repair(covs, broken)))
