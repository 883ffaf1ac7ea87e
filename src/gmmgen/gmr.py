"""Condition the joint (time, pose) mixture on time to regress pose trajectories.

Activation weights are computed in log space with a logsumexp
normalization, so extreme query times degrade gracefully instead of
producing NaNs.  Each component contributes a linear-in-time prediction
built from its mean and time-normalized slope.
"""

from __future__ import annotations

import numpy as np

from .data import Trajectory
from .model import logsumexp


def _validated_times(times, duration: float) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if len(times) < 2:
        raise ValueError("regression needs at least two query times")
    if not np.isfinite(times).all():
        raise ValueError("query times must be finite")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("query times must be strictly increasing")
    if times[0] < -1e-9 or times[-1] > duration + 1e-9:
        raise ValueError(f"query times must lie within [0, {duration}]")
    return times


def regress(model, times) -> Trajectory:
    """Expected pose at each query time.

    Query times must be strictly increasing within [0, duration]; the
    output trajectory is re-anchored so its first timestamp is zero.
    """
    try:
        priors, means, covs, slopes = model.priors, model.means, model.covs, model.slopes
        duration = model.duration
    except AttributeError:
        raise TypeError(f"cannot regress a {type(model).__name__}") from None
    times = _validated_times(times, duration)
    t_means, t_vars = means[:, 0], covs[:, 0, 0]
    sq = (times[:, None] - t_means[None, :]) ** 2
    log_w = (np.log(priors)[None, :]
             - 0.5 * np.log(2.0 * np.pi * t_vars)[None, :]
             - sq / (2.0 * t_vars[None, :]))
    weights = np.exp(log_w - logsumexp(log_w, axis=1, keepdims=True))
    # added in place: one (n, G, D) temporary per call, not two
    preds = slopes[None, :, :] * (times[:, None, None] - means[None, :, 0, None])
    preds += means[None, :, 1:]
    values = np.einsum("ng,ngd->nd", weights, preds)
    return Trajectory(times - times[0], values)
