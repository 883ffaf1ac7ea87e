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


def _log_activations(model, times) -> np.ndarray:
    """Log of normalized per-component weights at each query time, (n, G)."""
    try:
        priors, t_means, t_vars = model.priors, model.means[:, 0], model.covs[:, 0, 0]
    except AttributeError:
        raise TypeError(f"cannot regress a {type(model).__name__}") from None
    sq = (times[:, None] - t_means[None, :]) ** 2
    log_w = (np.log(priors)[None, :]
             - 0.5 * np.log(2.0 * np.pi * t_vars)[None, :]
             - sq / (2.0 * t_vars[None, :]))
    return log_w - logsumexp(log_w, axis=1, keepdims=True)


def activation_weights(model, t: float) -> np.ndarray:
    """Normalized component weights at time t; always sums to 1."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("query time must be finite")
    return np.exp(_log_activations(model, np.array([t])))[0]


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


def _predict(model, times):
    """(times, weights (n, G), per-component predictions (n, G, D), mixed (n, D))."""
    times = _validated_times(times, model.duration)
    weights = np.exp(_log_activations(model, times))
    # added in place: one (n, G, D) temporary per call, not two
    preds = model.slopes[None, :, :] * (times[:, None, None] - model.means[None, :, 0, None])
    preds += model.means[None, :, 1:]
    values = np.einsum("ng,ngd->nd", weights, preds)
    return times, weights, preds, values


def regress(model, times) -> Trajectory:
    """Expected pose at each query time.

    Query times must be strictly increasing within [0, duration]; the
    output trajectory is re-anchored so its first timestamp is zero.
    """
    times, _, _, values = _predict(model, times)
    return Trajectory(times - times[0], values)


def regress_with_variance(model, times):
    """Regression plus the per-time conditional covariance of the mixture."""
    times, weights, preds, values = _predict(model, times)
    # per-component conditional covariance is constant in time
    cond = model.covs[:, 0, 0, None, None] * (
        model.shapes - np.einsum("gd,ge->gde", model.slopes, model.slopes))
    second = cond[None, :, :, :] + np.einsum("ngd,nge->ngde", preds, preds)
    mixed = np.einsum("ng,ngde->nde", weights, second)
    covs = mixed - np.einsum("nd,ne->nde", values, values)
    return Trajectory(times - times[0], values), covs
