"""Condition the joint (time, pose) mixture on time to regress pose trajectories.

Each component contributes a linear-in-time prediction m_g (t - c_g) + mu_g
built from its time-normalized slope m_g, time center c_g and spatial mean
mu_g.  The weighted sum over components is taken in closed form: with the
offsets b_g = mu_g - m_g c_g it is (t (A M) + A B) / sum_g A, where A is the
activation exp(log_w - max_g log_w).  The max shift makes every row's
largest activation exactly 1, so extreme query times degrade gracefully
instead of underflowing to 0/0.

A generalized model keeps its source's priors, time centers and (unless
an SPD repair moved one) time variances, so the activations and their
row sums are the same for every task on one time grid.  They come from a
one-entry memo keyed by the dtype, shape and bytes of the priors, time
centers, time variances and query times; a miss computes them as a
query always did, so a hit gives bitwise the same values.  Regression is
linear in the means and slopes, so the benchmark's compiled curves
(reparam._curves) regress their coefficient sets side by side as the
columns of one (G, 3D) mixture.
"""

from __future__ import annotations

import numpy as np

from .data import Trajectory, _memoized


def _validated_times(times, duration: float) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if len(times) < 2:
        raise ValueError("regression needs at least two query times")
    if not np.isfinite(times).all():
        raise ValueError("query times must be finite")
    if not (times[1:] > times[:-1]).all():  # finite, so the same as np.diff(times) > 0.0
        raise ValueError("query times must be strictly increasing")
    if times[0] < -1e-9 or times[-1] > duration + 1e-9:
        raise ValueError(f"query times must lie within [0, {duration}]")
    return times


# The (n, G) activations and their row sums of the last query, see _weights.
_WEIGHTS_MEMO = []


def _weights(priors, t_means, t_vars, times):
    """(act, sums): the max-shifted activations (n, G) of (G,) time variances
    and their row sums (n, 1), from a one-entry memo keyed by the bytes of
    all four inputs, so a hit returns exactly what a miss computes."""
    def compute():
        log_w = (times[:, None] - t_means) ** 2
        log_w /= 2.0 * t_vars
        np.subtract(np.log(priors) - 0.5 * np.log(2.0 * np.pi * t_vars), log_w, out=log_w)
        log_w -= log_w.max(axis=1, keepdims=True)
        act = np.exp(log_w, out=log_w)
        return act, act.sum(axis=1, keepdims=True)
    return _memoized(_WEIGHTS_MEMO, (priors, t_means, t_vars, times), compute)


def _expected_poses(priors, t_means, t_vars, mu, slopes, times) -> np.ndarray:
    """Regressed values (n, k) of one mixture: its (G,) priors, time centers
    and time variances weigh the (G, k) spatial means mu and time-normalized
    slopes at each of the n query times."""
    act, sums = _weights(priors, t_means, t_vars, times)
    offsets = mu - slopes * t_means[:, None]
    values = times[:, None] * (act @ slopes)
    values += act @ offsets
    values /= sums
    return values


def regress(model, times) -> Trajectory:
    """Expected pose at each query time.

    The weights are the max-shifted activations (n, G) divided by their row
    sums, applied through two (n, G) matrix products: one with the model's
    stored slopes and one with the per-component offsets.  Query times must
    be strictly increasing within [0, duration]; the output trajectory is
    re-anchored so its first timestamp is zero.

    On a grid that starts at 0.0 (or -0.0) the re-anchored times are the
    grid checked here, so the trajectory is derived (Trajectory._derived):
    only its values are checked, finite and with 6-D rotation rows below
    pi.  Any other grid, or values that fail, go through Trajectory(...),
    which raises its error.  Either way the stored arrays are bitwise the
    public constructor's.
    """
    try:
        priors, means, covs = model.priors, model.means, model.covs
        slopes, duration = model.slopes, model.duration
    except AttributeError:
        raise TypeError(f"cannot regress a {type(model).__name__}") from None
    times = _validated_times(times, duration)
    values = _expected_poses(priors, means[:, 0], covs[:, 0, 0], means[:, 1:], slopes, times)
    # From a start at +-0.0, times - times[0] keeps every rule _validated_times checked.
    build = Trajectory._derived if times[0] == 0.0 else Trajectory
    return build(times - times[0], values)
