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

from .data import (EXP_ZERO, GRASP_DURATION, POSE_DIM, RELEASE_DURATION, PhaseSchedule, Pose,
                   TaskSpec, Trajectory, _check_int, _check_real, _exp, _frozen_array,
                   _json_numbers, _read_json, _trusted, _write_json)

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
    """covs symmetrized into a fresh read-only array, once every component
    passes its checks.

    priors are (G,), means (G, k) and covs (G, D+1, D+1) of one mixture.
    Every parameter must be finite, the covariances once symmetrized (an
    entry above half the largest float doubles past it), every prior
    positive, and every covariance symmetric to 1e-9 of its largest entry
    and, once symmetrized, accepted by Cholesky; an error names the first
    failing component.  Valid parameters cost whole-array checks and the
    per-matrix gap and scale reductions only; the failing component is
    located once a check fails.
    """
    flipped = np.swapaxes(covs, -2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = 0.5 * (covs + flipped)
    if not (np.isfinite(priors).all() and np.isfinite(means).all()
            and np.isfinite(symmetric).all()):
        bad = ~(np.isfinite(priors) & np.isfinite(means).all(axis=-1)
                & np.isfinite(symmetric).all(axis=(-2, -1)))
        raise ValueError(f"{_first(bad)}: parameters must be finite")
    if not (priors > 0.0).all():
        raise ValueError(f"{_first(~(priors > 0.0))}: prior must be positive")
    with np.errstate(over="ignore"):  # a gap between entries of opposite sign
        gaps = np.abs(covs - flipped).max(axis=(-2, -1))
    asym = gaps > 1e-9 * np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    if asym.any():
        raise ValueError(f"{_first(asym)}: covariance must be symmetric")
    symmetric.flags.writeable = False
    not_spd = _cholesky_fails(symmetric)
    if not_spd.any():
        raise ValueError(f"{_first(not_spd)}: covariance must be "
                         "symmetric positive definite")
    return symmetric


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
    model's duration is its phase schedule's.  Every stored array is
    read-only and never the caller's: priors and means are copied, and the
    symmetrized covs, slopes and shapes computed here are frozen in place.

    The constructor checks every input in full.  generalize builds a
    result its rule passed (reparam._generalized) through _derived instead,
    which inherits the source model's checked priors, time centers and
    phases and checks nothing; it stores the same bits.

    Two private one-entry caches hold what a query computes from the
    frozen arrays alone; neither is ever invalidated.  _source_cache holds
    reparam's source terms for one eps.  _grid_cache holds gmr's checked
    query grid and its activations; a derived model shares its source's,
    since both hold the same priors, time centers and time variances.
    Each is a one-slot list whose slot is replaced by one tuple, so
    threads racing on it at worst compute an entry twice.
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
        covs = np.asarray(self.covs, dtype=float)
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
        if not (means[1:, 0] > means[:-1, 0]).all():  # the means are finite here
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
        for name, value in self._stored(priors, means, covs, [None]).items():
            object.__setattr__(self, name, value)

    @staticmethod
    def _stored(priors: np.ndarray, means: np.ndarray, covs: np.ndarray,
                grid_cache: list) -> dict:
        """The arrays and caches a model stores beside its record: fresh
        priors, means and covs frozen in place, the slopes and shapes
        derived from covs, an empty source cache and the given grid cache."""
        t_vars = covs[:, 0, 0, None]
        arrays = {"priors": priors, "means": means, "covs": covs,
                  "slopes": covs[:, 1:, 0] / t_vars, "shapes": covs[:, 1:, 1:] / t_vars[..., None]}
        for value in arrays.values():
            value.flags.writeable = False
        return {**arrays, "_source_cache": [None], "_grid_cache": grid_cache}

    @classmethod
    def _derived(cls, source: GmmModel, means: np.ndarray, task: TaskSpec,
                 covs: np.ndarray | None = None) -> GmmModel:
        """The model generalize derives from source, a checked model, for a
        task its rule passed (reparam._generalized), checking nothing: fresh
        means (G, D+1), taken over, and fresh adapted covs (G, D+1, D+1),
        taken over, or None for the ablated method, which stores a copy of
        the source's.  Exactly symmetric covs C are 0.5 * (C + C^T), so every
        stored array is bitwise what GmmModel(...) stores.  The caller keeps
        the source's time variances, so the model shares its grid cache.
        """
        ablated = covs is None
        if ablated:
            covs = source.covs.copy()
        # GmmModel's rules: the source's checks, and generalize's rule for the means and covs
        return _trusted(cls, {"phases": source.phases, "task": task, "ablated": ablated,
                              "spd_repairs": 0, **cls._stored(source.priors.copy(), means, covs,
                                                              source._grid_cache)})

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
    """Mixture fit settings: component count, the EM iteration cap and its
    relative log-likelihood tolerance, the covariance floor added to every
    component, and the k-means seed."""

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


def _check_finite_rows(data: np.ndarray) -> None:
    """Raise a ValueError naming the first (n, D+1) dataset row that holds a
    nan or an infinity."""
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"dataset row {int(np.argmin(finite))} must be finite")


def kmeans_init(dataset: np.ndarray, n_clusters: int, seed: int,
                cov_floor: float = FitConfig.cov_floor):
    """Seed mixture components by K-means over [t, x] rows.

    The time column is rescaled to the spatial RMS spread before clustering
    so distances are not dominated by either axis; component statistics are
    computed on the unscaled data.  Returns (assignments, (priors, means,
    covs)) with clusters sorted by time center and assignments relabeled to
    match.  The rows must be finite, and small enough that their RMS
    spreads do not overflow; otherwise a ValueError names the first
    non-finite row, or the row holding the largest magnitude, before any
    overflow warning.

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

    _check_finite_rows(data)
    with np.errstate(over="ignore", invalid="ignore"):
        t_rms = float(data[:, 0].std())
        x_dev = data[:, 1:] - data[:, 1:].mean(axis=0)
        x_rms = float(np.sqrt(np.mean(x_dev**2)))
    if not (np.isfinite(t_rms) and np.isfinite(x_rms)):
        row = int(np.abs(data).max(axis=1).argmax())
        raise ValueError(f"dataset row {row} is too large to cluster: the RMS spread of "
                         "the rows overflows")
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


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(column))) of each column of a (G, n) array with G >= 1,
    bitwise equal to scipy.special.logsumexp(np.ascontiguousarray(a.T),
    axis=1) whatever a's layout (scipy's sums follow its input's layout).

    Follows scipy's steps: the m entries equal to the column's maximum are
    left out of the shifted sum s, and the result is log1p(s / m) + log(m)
    + max.  A column whose result is not finite (all -inf, or an infinite
    or nan entry) takes log(sum(exp(column))) instead, as scipy's does.

    Laid out for EM's log densities, one row per component: the maximum
    and both sums run over whole rows, the sums in the order numpy adds
    each of scipy's rows (_column_sums).  The shifted sum's exponentials go
    through data._exp, which skips the entries exp rounds to 0, so the sum
    is bitwise the same.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=0)
        at_top = a == top
        m = at_top.sum(axis=0, dtype=float)
        rest = np.where(at_top, -np.inf, a)
        rest -= top
        s = _column_sums(_exp(rest))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
        lost = ~np.isfinite(out)
        if lost.any():
            out[lost] = np.log(_column_sums(np.exp(a[:, lost])))
    return out


def _column_sums(a: np.ndarray) -> np.ndarray:
    """The sums over the rows of a (G, n) array, (n,), bitwise
    np.ascontiguousarray(a.T).sum(axis=1), added whole rows at a time.

    numpy sums a contiguous row of G entries pairwise (Higham 1993): below
    8 entries one after another; up to 128 in 8 interleaved accumulators
    combined as a tree, then the rest one after another; and a longer row
    as its two halves, split at a multiple of 8.  The reduction starts from
    +0.0, which only turns an all -0.0 sum into +0.0.
    """
    g = len(a)
    if g > 128:
        half = g // 2 - g // 2 % 8
        return _column_sums(a[:half]) + _column_sums(a[half:])
    out = np.zeros(a.shape[1:])
    tail = g - g % 8
    if tail:
        acc = a[:8]
        for i in range(8, tail, 8):
            acc = acc + a[i:i + 8]
        pairs = acc[0::2] + acc[1::2]
        out += (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for row in a[tail:]:
        out += row
    return out


def _sq_distances(rows: np.ndarray, mean: np.ndarray, chol: np.ndarray, g: int) -> np.ndarray:
    """Squared Mahalanobis distances |chol^-1 (row - mean)|^2 of (m, D+1)
    rows to component g, (m,).

    Each solve calls LAPACK's dtrtrs with the arguments scipy's
    solve_triangular(chol, b, lower=True) passes for a C-ordered factor, so
    the result is bitwise equal to it.  The (D+1, m) solution's squared
    column norms are added row by row below D+1 = 8, where numpy's pairwise
    sum adds a column one entry after another, so they are bitwise its sum;
    wider rows take numpy's sum.  A row's distance does not depend on the
    other rows passed with it, which lets em_fit pass any subset of the
    distinct rows.
    """
    from scipy.linalg.lapack import dtrtrs  # on first use: import gmmgen stays numpy-only

    sol, info = dtrtrs(chol.T, (rows - mean).T, lower=0, trans=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"component {g}: triangular solve failed (info {info})")
    if len(sol) >= 8:
        return (sol**2).sum(axis=0)
    sq_norms = sol[0] * sol[0]
    for row in sol[1:]:
        sq_norms += row * row
    return sq_norms


def _log_norms(chols: np.ndarray) -> np.ndarray:
    """Each component's log normalizer -log((2 pi)^((D+1)/2) det L), (G,),
    from its (D+1, D+1) Cholesky factor L."""
    d = chols.shape[-1]
    return -(0.5 * d * np.log(2.0 * np.pi)) - np.log(np.diagonal(chols, 0, 1, 2)).sum(axis=1)


def _log_densities(data: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Per-component Gaussian log densities of every row, (n, G), without
    the priors: one stacked Cholesky factors every component, and
    _sq_distances solves each.

    em_fit's E-step (_BoundedEStep) computes these same entries, bitwise
    and transposed to (G, n), for every pair its bounds cannot certify at
    least 746 below the row's maximum, and -inf for the others, whose
    exponentials are +0.0 either way; it solves every pair on the first
    iteration, while a factor is ill-conditioned and while a skipped pair
    could overflow (em_fit states the certificate and its margins).  em_fit
    calls this full form to name the row whose distance overflows.
    """
    chols = np.linalg.cholesky(covs)
    out = np.empty((len(data), len(means)))
    for g, const in enumerate(_log_norms(chols)):
        out[:, g] = const - 0.5 * _sq_distances(data, means[g], chols[g], g)
    return out


# The bounded E-step (see em_fit).  A factor whose error bound eps_g exceeds
# SOLVE_EPS_MAX is ill-conditioned; pairs are skipped only while every
# distance is certified below DISTANCE_MAX and every row and mean below its
# square, far from overflow; and the windows are chosen as if each row's
# maximum fell by TOP_MARGIN.
SOLVE_EPS_MAX = 1e-6
DISTANCE_MAX = 1e150
TOP_MARGIN = 1.0


class _BoundedEStep:
    """EM's log densities plus log priors over the distinct rows,
    component-major (G, n), solving only the pairs whose responsibility can
    be non-zero; a skipped entry is -inf.  em_fit states the certificate
    and its margins.

    Carried from one call to the next: the lower bounds, (G, n), or None
    when the next call must solve every pair; the row maxima of the last
    result; and the factors and means it was solved with.  After a call,
    windows holds each component's solved row range [lo, hi), (G, 2), or is
    None where every pair was solved, and fixups counts the pairs the
    fix-up pass solved.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        with np.errstate(over="ignore"):
            self.reach = np.sqrt(rows.shape[1]) * np.abs(rows).max()  # >= every row's norm
        self.lower = self.top = self.chols = self.means = None
        self.windows, self.fixups = None, 0

    def __call__(self, means: np.ndarray, covs: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
        rows = self.rows
        n, d = rows.shape
        with np.errstate(over="raise"):
            chols = np.linalg.cholesky(covs)
            consts = _log_norms(chols)
        with np.errstate(all="ignore"):
            inv = _inverses(chols)
            inv_norms = np.linalg.norm(inv, axis=(1, 2))
            eps = 64.0 * d * np.finfo(float).eps * np.linalg.norm(chols, axis=(1, 2)) * inv_norms
            radius = self.reach + np.linalg.norm(means, axis=1)
            guarded = bool(eps.max() <= SOLVE_EPS_MAX and radius.max() < DISTANCE_MAX**2
                           and (radius * inv_norms).max() < DISTANCE_MAX)
            lower = self._carried(chols, inv, means, eps) if guarded else None
            if lower is not None:  # each component's window under the guessed row maxima
                guess = self.top - TOP_MARGIN
                levels = consts + log_priors - EXP_ZERO
                certified = _certified(lower, levels, guess)
                self.windows = np.where(~certified.all(axis=1)[:, None], np.column_stack(
                    [certified.argmin(axis=1), n - certified[:, ::-1].argmin(axis=1)]), 0)
            else:
                lower = np.empty((len(means), n))
                self.windows = None
        windows = [(0, n)] * len(means) if self.windows is None else self.windows
        self.fixups = 0
        logp = np.full((len(means), n), -np.inf)
        with np.errstate(over="raise"):
            for g, (lo, hi) in enumerate(windows):
                if lo < hi:
                    self._solve(logp, lower, slice(lo, hi), g, means, chols, consts, eps)
            logp += log_priors[:, None]
            top = logp.max(axis=0)
            fell = np.flatnonzero(top < guess) if self.windows is not None else ()
            if len(fell):  # fix-up: solve the skipped pairs these maxima leave uncertified
                fix = ~_certified(lower[:, fell], levels, top[fell])
                fix &= (fell < windows[:, :1]) | (fell >= windows[:, 1:])
                for g in np.flatnonzero(fix.any(axis=1)):
                    idx = fell[fix[g]]
                    self._solve(logp, lower, idx, g, means, chols, consts, eps)
                    logp[g, idx] += log_priors[g]
                    self.fixups += len(idx)
                if self.fixups:
                    top = logp.max(axis=0)
        self.lower = lower if guarded else None
        self.top, self.chols, self.means = top, chols, means.copy()
        return logp

    def _solve(self, logp, lower, rows, g, means, chols, consts, eps):
        """Solve component g on the given rows (a slice or an index array):
        their log densities and their bounds, reset to the solved
        distances, into row g of logp and of lower."""
        sq = _sq_distances(self.rows[rows], means[g], chols[g], g)
        logp[g, rows] = consts[g] - 0.5 * sq
        lower[g, rows] = np.sqrt(sq) * (1.0 - eps[g])

    def _carried(self, chols, inv, means, eps):
        """The last call's bounds moved to the new factors and means, in
        place, or None if there are none or a shift is out of range."""
        if self.lower is None:
            return None
        moved = inv @ self.chols  # L_t^-1 L_{t-1}
        gram = np.swapaxes(moved, 1, 2) @ moved
        top = np.abs(gram).sum(axis=2).max(axis=1)  # >= its largest eigenvalue
        spread = _radius_bound(np.eye(len(gram[0])) - gram / top[:, None, None])
        smallest = top * (1.0 - spread)  # <= its smallest eigenvalue
        shrink = np.sqrt(np.maximum(smallest - 4.0 * eps * top, 0.0))
        shift = np.linalg.norm(inv @ (means - self.means)[:, :, None], axis=(1, 2))
        shift *= 1.0 + 2.0 * eps
        if not shift.max() < DISTANCE_MAX:
            return None
        lower = self.lower
        lower *= shrink[:, None]
        lower -= shift[:, None]
        return np.maximum(lower, 0.0, out=lower)


def _inverses(chols: np.ndarray) -> np.ndarray:
    """The inverses of (G, D+1, D+1) lower-triangular factors, each solved
    by the dtrtrs kernel _sq_distances loads; all nan for a singular one."""
    from scipy.linalg.lapack import dtrtrs

    eye = np.eye(chols.shape[-1])
    out = np.empty_like(chols)
    for g, chol in enumerate(chols):
        out[g], info = dtrtrs(chol, eye, lower=1)
        if info != 0:
            out[g] = np.nan
    return out


def _radius_bound(a: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral radii of (m, k, k) matrices, (m,), from
    rho(A)^(2^j) = rho(A^(2^j)) <= |A^(2^j)|_F with j = 4; each square is
    taken of the last one scaled to unit Frobenius norm.  For a symmetric A
    the bound is at most k^(1/2^(j+1)) rho(A), 1.07 rho(A) for k = 8.  Made
    of matrix products only, it is as fast here as an eigenvalue solver,
    whose LAPACK code would add to the resident memory of every fit."""
    scales = []
    for _ in range(4):
        norm = np.linalg.norm(a, axis=(1, 2))
        scales.append(np.where(norm > 0.0, norm, 1.0))  # a zero matrix stays zero
        a = a / scales[-1][:, None, None]
        a = a @ a
    bound = np.linalg.norm(a, axis=(1, 2))
    for scale in reversed(scales):
        bound = scale * np.sqrt(bound)
    return bound


def _certified(lower: np.ndarray, levels: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """(G, m) flags, True where a pair's bound certifies it below its row:
    lower_g^2 >= 2 (levels_g - tops_r) / (1 - SOLVE_EPS_MAX), each level
    c_g + log pi_g + 746 raised by 32 eps_mach of the terms' magnitudes,
    far above the rounding of the few operations that give an entry and
    this test.  A nan anywhere certifies nothing."""
    levels = levels + 32.0 * np.finfo(float).eps * (np.abs(levels) + np.abs(tops).max())
    scale = 2.0 / (1.0 - SOLVE_EPS_MAX)
    return lower * lower - (scale * levels)[:, None] >= -scale * tops


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
    failing row, argument or component.  A squared Mahalanobis distance
    that overflows is a ValueError, raised before any overflow warning,
    naming the row of largest magnitude among those whose distance
    overflows (its first occurrence).

    The E-step works once per distinct row: the log densities, logsumexp
    and responsibilities of a row depend on that row alone, so they are
    computed on the rows of one np.unique(axis=0) call, made before the
    loop, and gathered back to every row through the inverse index.
    (np.unique merges rows that differ only in the sign of a zero; their
    densities are the same.)  The log-likelihood sum, the
    reset's worst datum (its first occurrence) and the M-step read the
    gathered full-length arrays, so every reduction adds in the same order
    as on the full rows and the result is bitwise the same.  About two
    thirds of the responsibilities' exponents (and of logsumexp's) lie
    below -745.13, where exp is exactly +0.0; data._exp leaves those at
    zero without running numpy's slow underflow path.

    The E-step is bounded (_BoundedEStep): it solves only the (row,
    component) pairs whose exponent can lie above EXP_ZERO = -746.  Each
    component g keeps a lower bound lb on every distinct row's distance d_t
    = |L_t^-1 (x - mu_t)| and carries it to the next iteration as d_t >= s_t
    d_{t-1} - e_t, with s_t <= sigma_min(L_t^-1 L_{t-1}) and e_t >= |L_t^-1
    (mu_t - mu_{t-1})|; a solved pair's bound is reset to its solved
    distance.  s_t^2 is h (1 - r), the smallest eigenvalue of the Gram matrix
    H of L_t^-1 L_{t-1} or less: h is H's largest absolute row sum, and r
    bounds the spectral radius of I - H / h (_radius_bound).  The carried bound
    holds across any change of a mean or factor, a collapse reset's
    included.  eps_g = 64 (D+1) eps_mach |L_g|_F |L_g^-1|_F bounds the
    relative error of a squared distance the triangular solve computes, and
    pads each bound outward: s_t^2 by 4 eps_g h, e_t by a factor 1 + 2
    eps_g, a solved bound by 1 - eps_g.  A
    pair is skipped, its entry -inf, only when c_g + log pi_g - 1/2 (1 -
    SOLVE_EPS_MAX) lb^2 is at least 746 plus a rounding slack of 32 eps_mach
    of the terms below its row's maximum (c_g is the log normalizer).
    Rounding is monotone, so the entry the full E-step would compute then
    lies at or below -746 after logsumexp's shift by the row maximum and
    after the responsibilities' shift by the row's larger log-likelihood: it
    is +0.0 in both, skipped or not, and no later value moves.  The rows
    come out of np.unique in time order, so each component solves one
    contiguous window [first, last needed) through _sq_distances, whose rows
    do not depend on each other.  The windows are chosen against the last
    row maxima less TOP_MARGIN; in each row whose maximum fell further, a
    fix-up pass then solves every skipped pair the actual maximum leaves
    uncertified.  Every pair is solved on the first iteration, while a
    factor is ill-conditioned (eps_g above SOLVE_EPS_MAX), and while a
    skipped pair could overflow (a row norm plus a mean norm, times
    |L_g^-1|_F, not certified below DISTANCE_MAX = 1e150), so an overflow
    raises the ValueError above, naming the same row, on the same iteration.
    """
    data = np.asarray(dataset, dtype=float)
    if data.ndim != 2 or len(data) < 1:
        raise ValueError("dataset must be a non-empty (n, D+1) array")
    n, d = data.shape
    _check_finite_rows(data)
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
    e_step = _BoundedEStep(rows)

    trace = []
    prev = None
    backup = None
    for _ in range(config.max_iters):
        try:
            logp = e_step(means, covs, np.log(priors))
        except FloatingPointError:  # name the largest of the rows whose distance overflows
            with np.errstate(over="ignore"):
                lost = ~np.isfinite(_log_densities(rows, means, covs)).all(axis=1)
            sizes = np.where(lost[inverse], np.abs(data).max(axis=1), -np.inf)
            raise ValueError(f"dataset row {int(sizes.argmax())} is too large to fit: its "
                             "squared Mahalanobis distance to a component overflows") from None
        row_loglik = logsumexp(logp)  # logp is (G, n): one column per distinct row
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

        resp = _exp(logp - row_loglik).T[inverse]
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
    """A fitted model and its EM log-likelihood trace, one entry per kept
    iteration, non-decreasing."""

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
    """Write the model as model_to_dict's JSON object."""
    _write_json(path, model_to_dict(model))


def load_model(path) -> GmmModel:
    """Read a model file save_model wrote; an invalid one is a ValueError
    prefixed with the path."""
    return _read_json(path, model_from_dict)
