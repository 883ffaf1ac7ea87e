"""Joint time-pose Gaussian mixture: K-means seeding, EM refinement, persistence.

The mixture is fit on rows [t, x] where x is the pose vector, so each
component carries a scalar time block, a spatial block, and their
cross-covariance.  One array-backed type, GmmModel, holds every
component, sorted by time center, of fitted and generalized mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .data import (GRASP_DURATION, POSE_DIM, RELEASE_DURATION, PhaseSchedule, Pose, TaskSpec,
                   Trajectory, _check_int, _check_real, _frozen_array, _json_numbers, _read_json,
                   _write_json)

COLLAPSE_EPS = 1e-12
KMEANS_MAX_ITERS = 300


def _cholesky_fails(mats: np.ndarray) -> np.ndarray:
    """Per-matrix flags over a (..., D, D) stack: True where Cholesky rejects
    the matrix.

    One batched factorization covers the usual all-definite case; only when
    it fails are the matrices factored one at a time to find the culprits.
    """
    fails = np.zeros(mats.shape[:-2], dtype=bool)
    try:
        np.linalg.cholesky(mats)
        return fails
    except np.linalg.LinAlgError:
        pass
    for index in np.ndindex(fails.shape):
        try:
            np.linalg.cholesky(mats[index])
        except np.linalg.LinAlgError:
            fails[index] = True
    return fails


def _first(flags: np.ndarray) -> str:
    """The first flagged component of a (G,) flag array, as "component g"."""
    return f"component {np.flatnonzero(flags)[0]}"


def _checked_covs(priors: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """covs symmetrized and read-only, once every component passes its checks.

    priors are (G,), means (G, k) and covs (G, D+1, D+1) of one mixture.
    Every parameter must be finite, the covariances once symmetrized (an
    entry above half the largest float doubles past it), every prior
    positive, and every covariance symmetric to 1e-9 of its largest entry
    and, once symmetrized, accepted by Cholesky; an error names the first
    failing component.
    """
    flipped = np.swapaxes(covs, -2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = 0.5 * (covs + flipped)
        gaps = np.abs(covs - flipped).max(axis=(-2, -1))
    bad = ~(np.isfinite(priors) & np.isfinite(means).all(axis=-1)
            & np.isfinite(symmetric).all(axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"{_first(bad)}: parameters must be finite")
    if not (priors > 0.0).all():
        raise ValueError(f"{_first(~(priors > 0.0))}: prior must be positive")
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    asym = gaps > 1e-9 * scale
    if asym.any():
        raise ValueError(f"{_first(asym)}: covariance must be symmetric")
    covs = symmetric
    covs.flags.writeable = False
    not_spd = _cholesky_fails(covs)
    if not_spd.any():
        raise ValueError(f"{_first(not_spd)}: covariance must be "
                         "symmetric positive definite")
    return covs


@dataclass(frozen=True)
class GmmModel:
    """A time-pose mixture over rows [t, x]; the leading axis is time.

    priors (G,), means (G, D+1) and covs (G, D+1, D+1) hold the components,
    strictly ordered by their time centers.  Covariances are symmetrized on
    construction and are the only stored form of a component: regression
    reads the time-normalized slope m_g = cov_xt / cov_tt, (G, D), and
    spatial shape C_g = cov_xx / cov_tt, (G, D, D), both derived from covs.
    A generalized model also records its task, whose poses need D = 6,
    whether the covariance update was ablated, and its SPD repair count; a
    model without a task keeps ablated=False and spd_repairs=0.  The
    model's duration is its phase schedule's.
    """

    priors: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    phases: PhaseSchedule
    task: TaskSpec | None = None
    ablated: bool = False
    spd_repairs: int = 0
    slopes: np.ndarray = field(init=False)
    shapes: np.ndarray = field(init=False)

    def __post_init__(self):
        priors = _frozen_array(self.priors)
        means = _frozen_array(self.means)
        covs = np.array(self.covs, dtype=float)
        if priors.ndim != 1 or len(priors) < 1:
            raise ValueError("model needs at least one component")
        n_comp = len(priors)
        if means.ndim != 2 or means.shape[0] != n_comp or means.shape[1] < 2:
            raise ValueError("means must be (G, D+1) rows [t, x] with at least 2 entries")
        n_dim = means.shape[1]
        if covs.shape != (n_comp, n_dim, n_dim):
            raise ValueError("covariance shapes must match the means")
        covs = _checked_covs(priors, means, covs)
        total = priors.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"priors must sum to 1, got {float(total)!r}")
        if np.any(np.diff(means[:, 0]) <= 0.0):
            raise ValueError("components must be strictly ordered by time center")
        if not isinstance(self.ablated, bool):
            raise ValueError(f"ablated must be a bool, got {self.ablated!r}")
        _check_int("spd_repairs", self.spd_repairs, 0)
        if self.task is None:
            for name in ("ablated", "spd_repairs"):
                if getattr(self, name):
                    raise ValueError(f"{name}={getattr(self, name)!r} needs a task: "
                                     "only a generalized model records it")
        elif n_dim - 1 != POSE_DIM:
            raise ValueError(f"task: its poses are {POSE_DIM}-D but the model is "
                             f"{n_dim - 1}-D")
        tt = covs[:, 0, 0]
        slopes = _frozen_array(covs[:, 1:, 0] / tt[:, None])
        shapes = _frozen_array(covs[:, 1:, 1:] / tt[:, None, None])
        for name, value in (("priors", priors), ("means", means), ("covs", covs),
                            ("slopes", slopes), ("shapes", shapes)):
            object.__setattr__(self, name, value)

    @property
    def duration(self) -> float:
        return self.phases.duration

    @property
    def dim(self) -> int:
        """Spatial dimensionality (mean length minus the time entry)."""
        return self.means.shape[1] - 1

    @property
    def n_components(self) -> int:
        return len(self.priors)


@dataclass(frozen=True)
class FitConfig:
    n_components: int = 15
    max_iters: int = 200
    loglik_tol: float = 1e-6
    cov_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _check_int("n_components", self.n_components, 2)
        _check_int("max_iters", self.max_iters, 1)
        _check_int("seed", self.seed, 0)
        _check_real("loglik_tol", self.loglik_tol)
        _check_real("cov_floor", self.cov_floor)


def _kmeans_distances(cols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Distance from every row to every centroid, (n, G), given the rows as
    one contiguous (D+1, n) column array: bitwise
    np.linalg.norm(rows[:, None, :] - centroids, axis=2).  Below 8 columns,
    where numpy's pairwise sum adds a row one entry after another, the
    squared differences are added column by column without its temporaries.
    """
    if len(cols) >= 8:
        return np.linalg.norm(np.ascontiguousarray(cols.T)[:, None, :] - centroids, axis=2)

    def square(j):
        diff = cols[j][:, None] - centroids[:, j]
        return np.multiply(diff, diff, out=diff)

    acc = square(0)
    for j in range(1, len(cols)):
        acc += square(j)  # each square is freed before the next is made
    return np.sqrt(acc)


def _cluster_means(cols: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean row of every cluster, (G, D+1), from the (D+1, n) column array.

    bincount adds each cluster's entries in row order, as numpy's mean over
    the cluster's rows does, so the result is bitwise equal to it.
    """
    sums = [np.bincount(assign, weights=col, minlength=len(counts)) for col in cols]
    return np.stack(sums, axis=1) / counts[:, None]


def kmeans_init(dataset: np.ndarray, n_clusters: int, seed: int,
                cov_floor: float = FitConfig.cov_floor):
    """Seed mixture components by K-means over [t, x] rows.

    The time column is rescaled to the spatial RMS spread before clustering
    so distances are not dominated by either axis; component statistics are
    computed on the unscaled data.  Returns (assignments, (priors, means,
    covs)) with clusters sorted by time center and assignments relabeled to
    match.

    Lloyd's passes are bounded (Hamerly, SDM 2010): each row keeps an upper
    bound on the distance the full loop would compute to its own centroid,
    and a lower bound on those to every other centroid.  A centroid update
    adds the own centroid's shift to the first and takes the largest shift
    from the second, each shift and bound moved outward by a relative
    margin of 1e-12, far above the rounding of a computed distance (a few
    dozen ulps at most), so the bounds hold for the computed distances of
    the next pass.  Only rows with not (upper < lower) have their distance
    rows computed, with _kmeans_distances, and take their argmin and fresh
    bounds from them.  A skipped row's own distance is strictly below every
    other it would compute, so its argmin can neither tie nor move; and a
    row's distances are bitwise the same computed alone or in the full
    matrix.  The assignments, centroids and pass count are therefore
    bitwise those of the full Lloyd loop.  A pass that leaves a cluster
    empty computes the full matrix for the reseed, and the next pass
    computes every row again.
    """
    data = np.asarray(dataset, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("dataset must be (n, D+1) rows [t, x]")
    n = len(data)
    if n_clusters < 1:
        raise ValueError("n_clusters must be positive")
    if n < n_clusters:
        raise ValueError(f"dataset of {n} rows cannot seed {n_clusters} clusters")

    t_rms = float(data[:, 0].std())
    x_dev = data[:, 1:] - data[:, 1:].mean(axis=0)
    x_rms = float(np.sqrt(np.mean(x_dev**2)))
    scale = x_rms / t_rms if t_rms > 0.0 and x_rms > 0.0 else 1.0
    work = data.copy()
    work[:, 0] *= scale

    rng = np.random.default_rng(seed)
    centroids = work[np.sort(rng.choice(n, size=n_clusters, replace=False))].copy()
    cols = np.ascontiguousarray(work.T)
    assign = np.full(n, -1)
    upper = np.full(n, np.inf)  # >= distance to the own centroid
    lower = np.zeros(n)  # <= distance to every other centroid
    widen, narrow = 1.0 + 1e-12, 1.0 - 1e-12
    for _ in range(KMEANS_MAX_ITERS):
        stale = np.flatnonzero(~(upper < lower))
        dists = _kmeans_distances(cols[:, stale], centroids)
        new_assign = assign.copy()
        new_assign[stale] = dists.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=n_clusters)
        if np.any(counts == 0):
            dists = _kmeans_distances(cols, centroids)
            for _ in range(n_clusters):
                if not np.any(counts == 0):
                    break
                # re-seed an empty cluster from the point farthest from its centroid
                k = int(np.flatnonzero(counts == 0)[0])
                own = dists[np.arange(n), new_assign]
                far = int(own.argmax())
                centroids[k] = work[far]
                new_assign[far] = k
                dists[far] = np.linalg.norm(work[far] - centroids, axis=1)
                counts = np.bincount(new_assign, minlength=n_clusters)
            if np.any(counts == 0):
                raise RuntimeError("k-means could not keep every cluster populated")
            upper[:] = np.inf  # reseeded centroids: the next pass computes every row
        else:
            rows = np.arange(len(stale))
            upper[stale] = dists[rows, new_assign[stale]]
            dists[rows, new_assign[stale]] = np.inf
            lower[stale] = dists.min(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        moved = _cluster_means(cols, assign, counts)
        shift = np.sqrt(((moved - centroids) ** 2).sum(axis=1)) * widen
        centroids = moved
        upper = upper * widen + shift[assign]
        lower = lower * narrow - shift.max()

    order = np.argsort([data[assign == k][:, 0].mean() for k in range(n_clusters)],
                       kind="stable")
    relabel = np.empty(n_clusters, dtype=int)
    relabel[order] = np.arange(n_clusters)
    assign = relabel[assign]
    priors = np.bincount(assign, minlength=n_clusters) / n
    d = data.shape[1]
    means = np.empty((n_clusters, d))
    covs = np.empty((n_clusters, d, d))
    for k in range(n_clusters):
        points = data[assign == k]
        means[k] = points.mean(axis=0)
        diff = points - means[k]
        cov = diff.T @ diff / len(points) + cov_floor * np.eye(d)
        covs[k] = 0.5 * (cov + cov.T)
    return assign, (priors, means, covs)


def logsumexp(a, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis, bitwise equal to scipy.special.logsumexp.

    Follows scipy's steps: the m entries equal to the maximum are left out
    of the shifted sum s, and the result is log1p(s / m) + log(m) + max.  A
    slice whose result is not finite (all -inf, or an infinite or nan entry)
    takes log(sum(exp(a))) instead, as scipy's does.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=axis, keepdims=True)
        at_top = a == top
        m = at_top.sum(axis=axis, keepdims=True, dtype=float)
        rest = a.copy(order="K")
        rest[at_top] = -np.inf
        s = np.exp(rest - top).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
        lost = ~np.isfinite(out)
        if lost.any():
            out[lost] = np.log(np.exp(a).sum(axis=axis, keepdims=True))[lost]
    return out if keepdims else out.squeeze(axis)


def _log_densities(data: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Per-component Gaussian log densities, (n, G), via Cholesky solves.

    One stacked Cholesky factors every component.  Each solve calls LAPACK's
    dtrtrs with the arguments scipy's solve_triangular(chol, b, lower=True)
    passes for a C-ordered factor, so the result is bitwise equal to it.
    The (D+1, n) solution's squared column norms are added row by row below
    D+1 = 8, where numpy's pairwise sum adds a column one entry after
    another, so they are bitwise its sum; wider rows take numpy's sum.  A
    row's densities do not depend on the other rows passed with it, which
    lets em_fit pass only the distinct rows.
    """
    n, d = data.shape
    out = np.empty((n, len(means)))
    norm = 0.5 * d * np.log(2.0 * np.pi)
    for g, chol in enumerate(np.linalg.cholesky(covs)):
        sol, info = dtrtrs(chol.T, (data - means[g]).T, lower=0, trans=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"component {g}: triangular solve failed (info {info})")
        if d >= 8:
            sq_norms = (sol**2).sum(axis=0)
        else:
            sq_norms = sol[0] * sol[0]
            for row in sol[1:]:
                sq_norms += row * row
        out[:, g] = -norm - np.log(np.diag(chol)).sum() - 0.5 * sq_norms
    return out


def em_fit(dataset: np.ndarray, init, config: FitConfig):
    """Run EM from init = (priors, means, covs); returns ((priors, means,
    covs), loglik trace).

    The covariance floor is re-added after every M-step.  A component whose
    responsibility mass collapses below 1e-12 is reset from the datum the
    current mixture explains worst.  Floored updates and resets are not
    exact M-steps, so an iteration can lower the log-likelihood; when that
    happens the previous iterate is kept and the fit stops, which keeps the
    trace non-decreasing.  The dataset must be finite, and init must hold
    (G,) positive priors, (G, D+1) finite means as wide as the dataset and
    (G, D+1, D+1) symmetric positive definite covs; an error names the
    failing row, argument or component.

    The E-step works once per distinct row: the log densities, logsumexp
    and responsibilities of a row depend on that row alone, so they are
    computed on the rows of one np.unique(axis=0) call, made before the
    loop, and gathered back to every row through the inverse index.
    (np.unique merges rows that differ only in the sign of a zero; their
    densities are the same.)  The log-likelihood sum, the
    reset's worst datum (its first occurrence) and the M-step read the
    gathered full-length arrays, so every reduction adds in the same order
    as on the full rows and the result is bitwise the same.
    """
    data = np.asarray(dataset, dtype=float)
    if data.ndim != 2 or len(data) < 1:
        raise ValueError("dataset must be a non-empty (n, D+1) array")
    n, d = data.shape
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"dataset row {int(np.argmin(finite))} must be finite")
    priors, means, covs = (np.array(a, dtype=float) for a in init)
    if means.ndim != 2 or means.shape[1] != d:
        raise ValueError(f"init means must be (G, {d}) rows as wide as the dataset, "
                         f"got shape {means.shape}")
    n_comp = len(means)
    if n_comp < 1:
        raise ValueError("need at least one initial component")
    if priors.shape != (n_comp,):
        raise ValueError(f"init priors must be ({n_comp},), one per mean, "
                         f"got shape {priors.shape}")
    if covs.shape != (n_comp, d, d):
        raise ValueError(f"init covs must be ({n_comp}, {d}, {d}), one per mean, "
                         f"got shape {covs.shape}")
    try:
        _checked_covs(priors, means, covs)  # checks only: EM starts from covs as given
    except ValueError as exc:
        raise ValueError(f"init {exc}") from exc
    priors = priors / priors.sum()
    eye = np.eye(d)
    global_mean = data.mean(axis=0)
    global_cov = (data - global_mean).T @ (data - global_mean) / n
    rows, inverse = np.unique(data, axis=0, return_inverse=True)

    trace = []
    prev = None
    backup = None
    for _ in range(config.max_iters):
        logp = _log_densities(rows, means, covs) + np.log(priors)
        row_loglik = logsumexp(logp, axis=1)
        per_point = row_loglik[inverse]
        loglik = float(per_point.sum())
        if prev is not None and loglik < prev:
            priors, means, covs = backup
            break
        trace.append(loglik)
        if prev is not None and loglik - prev < config.loglik_tol * abs(prev):
            break
        prev = loglik
        backup = (priors.copy(), means.copy(), covs.copy())

        resp = np.exp(logp - row_loglik[:, None])[inverse]
        mass = resp.sum(axis=0)
        for g in range(n_comp):
            if mass[g] < COLLAPSE_EPS:
                worst = int(per_point.argmin())
                means[g] = data[worst]
                covs[g] = global_cov + config.cov_floor * eye
                mass[g] = 1.0
                continue
            means[g] = resp[:, g] @ data / mass[g]
            diff = data - means[g]
            cov = (resp[:, g] * diff.T) @ diff / mass[g]
            covs[g] = 0.5 * (cov + cov.T) + config.cov_floor * eye
        priors = mass / mass.sum()

    return (priors, means, covs), np.asarray(trace)


@dataclass(frozen=True)
class FitResult:
    model: GmmModel
    loglik_trace: np.ndarray


def fit_gmm(demos: Sequence[Trajectory], config: FitConfig = FitConfig(),
            phases: PhaseSchedule | None = None) -> FitResult:
    """Fit a sorted time-pose mixture on the pooled demonstration samples.

    Components are told apart by their time centers: fewer distinct sample
    times than n_components is a ValueError giving the distinct row and
    time counts.  The distinct rows, never fewer than the times, cannot
    fall short first.  Two components that end EM on one time center are a
    ValueError naming them, in time order, and their center.  Without
    phases the default schedule holds the grasp for GRASP_DURATION and the
    release for RELEASE_DURATION, so the demonstrations must last longer
    than both together; that is checked after the capacity, before k-means.
    """
    if not demos:
        raise ValueError("need at least one demonstration")
    duration = demos[0].duration
    dim = demos[0].dim
    for j, demo in enumerate(demos):
        if abs(demo.duration - duration) > 1e-9 or demo.dim != dim:
            raise ValueError(f"demonstration {j} disagrees in duration or dimension")
    if phases is not None and abs(phases.duration - duration) > 1e-9:
        raise ValueError(f"phase schedule duration {phases.duration} must match the "
                         f"demonstrations' duration {duration}")
    dataset = np.vstack([np.column_stack([d.times, d.values]) for d in demos])
    # distinct rows >= distinct times, so only the times can bind
    distinct_times = len(np.unique(dataset[:, 0]))
    if distinct_times < config.n_components:
        distinct = len(np.unique(dataset, axis=0))
        raise ValueError(
            f"{config.n_components} components need at least as many distinct samples "
            f"and distinct sample times, got {distinct} distinct of {len(dataset)} samples "
            f"and {distinct_times} distinct times"
        )
    if phases is None:
        if not duration - RELEASE_DURATION > GRASP_DURATION:
            raise ValueError(
                f"demonstrations of {duration} s have no default phases: their duration must "
                f"exceed the {GRASP_DURATION} s grasp hold plus the {RELEASE_DURATION} s "
                "release hold, or phases must be passed")
        phases = PhaseSchedule(GRASP_DURATION, duration - RELEASE_DURATION, duration)
    _, init = kmeans_init(dataset, config.n_components, config.seed, config.cov_floor)
    (priors, means, covs), trace = em_fit(dataset, init, config)
    order = np.argsort(means[:, 0], kind="stable")
    centers = means[order, 0]
    tied = np.flatnonzero(np.diff(centers) <= 0.0)
    if len(tied):
        g = int(tied[0])
        raise ValueError(f"components {g} and {g + 1} (in time order) share the time center "
                         f"{float(centers[g])} after EM; fewer components may separate them")
    # the model's time axis ends exactly where the demonstrations do
    model = GmmModel(priors[order], means[order], covs[order], replace(phases, duration=duration))
    return FitResult(model, trace)


def model_to_dict(model: GmmModel) -> dict:
    """JSON object of a model; one with a task adds its generalization keys."""
    out = {
        "D": model.dim,
        "T": model.duration,
        "phases": {
            "grasp_end": model.phases.grasp_end,
            "release_start": model.phases.release_start,
        },
        "components": [
            {
                "pi": float(prior),
                "mu": [float(v) for v in mean],
                "sigma": [float(v) for v in cov.ravel()],
            }
            for prior, mean, cov in zip(model.priors, model.means, model.covs)
        ],
    }
    if model.task is not None:
        out["task"] = model.task.to_dict()
        out["ablate_covariance"] = model.ablated
        out["spd_repairs"] = int(model.spd_repairs)
    return out


def model_from_dict(obj: dict) -> GmmModel:
    """Inverse of model_to_dict: reads the generalization keys iff "task" is present.

    Per-component "m" and "C" keys, which older generalized files carry,
    are ignored: the terms are derived from "sigma".
    """
    try:
        dim = obj["D"]
        _check_int("D", dim, 1)
        phases = PhaseSchedule(*(float(_json_numbers(key, obj["phases"][key]))
                                 for key in ("grasp_end", "release_start")),
                               float(_json_numbers("T", obj["T"])))
        raw = obj["components"]
    except KeyError as exc:
        raise ValueError(f"model JSON missing field: {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"model JSON invalid: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ValueError("components must be a non-empty list")
    priors, means, covs = [], [], []
    for i, c in enumerate(raw):
        if not isinstance(c, dict):
            raise ValueError(f"component {i}: must be a JSON object")
        try:
            prior = float(_json_numbers("pi", c["pi"]))
            mu = np.asarray(_json_numbers("mu", c["mu"]), dtype=float)
            sigma = np.asarray(_json_numbers("sigma", c["sigma"]), dtype=float)
        except KeyError as exc:
            raise ValueError(f"component {i}: missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"component {i}: {exc}") from exc
        if mu.shape != (dim + 1,):
            raise ValueError(f"component {i}: mu must have D+1={dim + 1} entries")
        if sigma.size != (dim + 1) ** 2:
            raise ValueError(f"component {i}: sigma must have (D+1)^2 entries")
        priors.append(prior)
        means.append(mu)
        covs.append(sigma.reshape(dim + 1, dim + 1))
    generalized = {}
    if "task" in obj:
        try:
            ends = [_json_numbers(f"task {key}", obj["task"][key]) for key in ("start", "goal")]
            generalized = {
                "task": TaskSpec(*map(Pose.from_vector, ends)),
                "ablated": obj.get("ablate_covariance", False),
                "spd_repairs": obj.get("spd_repairs", 0),
            }
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"generalized-model JSON invalid: {exc}") from exc
    return GmmModel(np.array(priors), np.stack(means), np.stack(covs), phases, **generalized)


def save_model(model: GmmModel, path) -> None:
    _write_json(path, model_to_dict(model))


def load_model(path) -> GmmModel:
    return _read_json(path, model_from_dict)
