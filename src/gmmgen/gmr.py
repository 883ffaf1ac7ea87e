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
row sums are the same for every task on one time grid.  They live in the
model's grid cache, which a derived model shares with its source, next
to the checked grid; its one entry is keyed by the float64 times' shape
and bytes and the model's duration.  A miss computes them as a query
always did, so a hit gives bitwise the same values.  Regression is
linear in the means and slopes, so the benchmark's compiled curves
(reparam._curves) regress their coefficient sets side by side as the
columns of one (G, 3D) mixture.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import Trajectory, _trusted, _valid_rows
from .model import GmmModel


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


def _weights(priors, t_means, t_vars, times):
    """(act, sums): the max-shifted activations (n, G) of (G,) time variances
    and their row sums (n, 1).  Where 2 pi t_var overflows (t_var above about
    2.86e307), its finite log is taken as log(2 pi) + log(t_var)."""
    log_w = (times[:, None] - t_means) ** 2
    log_w /= 2.0 * t_vars
    with np.errstate(over="ignore"):
        scaled = 2.0 * np.pi * t_vars
    log_norm = np.where(scaled < np.inf, np.log(scaled), np.log(2.0 * np.pi) + np.log(t_vars))
    np.subtract(np.log(priors) - 0.5 * log_norm, log_w, out=log_w)
    log_w -= log_w.max(axis=1, keepdims=True)
    act = np.exp(log_w, out=log_w)
    return act, act.sum(axis=1, keepdims=True)


class _GridTerms(NamedTuple):
    """What regress reads from a model and its checked query grid alone."""

    times: np.ndarray  # (n,) the checked grid
    act: np.ndarray  # (n, G) max-shifted activations
    times_wide: np.ndarray  # (n, D) the grid repeated across the model's width
    sums_wide: np.ndarray  # (n, D) the activations' row sums, repeated likewise


def _grid_terms(model: GmmModel, times) -> _GridTerms:
    """The read-only _GridTerms of the model and the caller's times, from the
    model's grid cache.

    Its one entry is keyed by the times as float64, by their shape and
    bytes, and by the model's duration: those fix _validated_times'
    verdict, so a hit skips the check.  A miss checks the times, raising
    its ValueError, and replaces the entry.
    """
    times = np.asarray(times, dtype=float)
    key = (times.shape, times.tobytes(), model.duration)
    entry = model._grid_cache[0]
    if entry is None or entry[0] != key:
        _validated_times(times, model.duration)
        times = times.copy()  # the caller may change theirs
        act, sums = _weights(model.priors, model.means[:, 0], model.covs[:, 0, 0], times)
        terms = _GridTerms(times, act, np.repeat(times[:, None], model.dim, axis=1),
                           np.repeat(sums, model.dim, axis=1))
        for array in terms:
            array.flags.writeable = False
        entry = (key, terms)
        model._grid_cache[0] = entry
    return entry[1]


def _expected_poses(act, centers, mu, slopes, times, sums) -> np.ndarray:
    """Regressed values (n, k) of one mixture: its (n, G) activations and
    (G, 1) time centers weigh the (G, k) spatial means mu and
    time-normalized slopes at the query times, (n, 1) or (n, k), whose
    activation row sums are sums, (n, 1) or (n, k)."""
    offsets = mu - slopes * centers
    values = act @ slopes
    values *= times
    values += act @ offsets
    values /= sums
    return values


def regress(model: GmmModel, times) -> Trajectory:
    """Expected pose at each query time.

    The weights are the max-shifted activations (n, G) divided by their row
    sums, applied through two (n, G) matrix products: one with the model's
    stored slopes and one with the per-component offsets.  Query times must
    be strictly increasing within [0, duration]; the output trajectory is
    re-anchored so its first timestamp is zero.

    On a grid that starts at 0.0 (or -0.0) the re-anchored times are the
    grid checked here, so only the values are checked (data._valid_rows)
    and the trajectory is built on the trusted route.  Any other grid, or
    values that fail, go through Trajectory(...), which raises its error.
    Either way the stored arrays are bitwise the public constructor's.
    """
    if not isinstance(model, GmmModel):
        raise TypeError(f"cannot regress a {type(model).__name__}")
    grid = _grid_terms(model, times)
    values = _expected_poses(grid.act, model.means[:, :1], model.means[:, 1:], model.slopes,
                             grid.times_wide, grid.sums_wide)
    times = grid.times - grid.times[0]
    if not (grid.times[0] == 0.0 and _valid_rows(values)):
        return Trajectory(times, values)
    times.flags.writeable = values.flags.writeable = False
    # times: from a start at +-0.0, every rule _validated_times checked; values: _valid_rows
    return _trusted(Trajectory, {"times": times, "values": values})
