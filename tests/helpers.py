"""Generators, oracles and assertions that several test modules share.

Not a test module: pytest collects nothing here.  The oracles restate the
mean remap and the covariance update one component at a time, in the
operation order that makes them bitwise equal to generalize()'s kernels.
"""

import numpy as np
from hypothesis import assume

from gmmgen import model as model_module
from gmmgen.bench import model_endpoints
from gmmgen.data import PhaseSchedule, Pose, TaskSpec
from gmmgen.model import GmmModel
from gmmgen.reparam import COV_FLOOR, DEGENERATE_EPS, ReparamConfig, _curves, generalize
from gmmgen.scene import sample_task


def oracle_reparam_means(model, new_start, new_goal, eps):
    """The remapped means (G, D) of one endpoint pair, in the mean remap's
    former 1-D form."""
    means = model.means[:, 1:]
    first, last = means[0], means[-1]
    span = last - first
    degenerate = np.abs(span) < eps
    scale = np.where(degenerate, 0.0, (new_goal - new_start) / np.where(degenerate, 1.0, span))
    scaled = new_start + scale * (means - first)
    centers = model.means[:, 0]
    alpha = (centers - centers[0]) / (centers[-1] - centers[0])
    offset = (means + np.outer(1.0 - alpha, new_start - first)
              + np.outer(alpha, new_goal - last))
    out = np.where(degenerate[None, :], offset, scaled)
    out[0] = new_start
    out[-1] = new_goal
    return out


def oracle_reparam_covariances(model, new_means, eps):
    """(covs, repairs): the adapted covariances of one set of new means
    after the repair scan, one component g at a time.

    Slopes and shapes are derived here from the covariances themselves, so
    the check does not rest on the model's own derived terms.
    """
    means = model.means[:, 1:]
    slopes, spatial = terms(model.covs)
    covs = np.array(model.covs, dtype=float)
    repairs = 0
    for g in range(1, model.n_components):
        tt = float(model.covs[g][0, 0])
        d_old = means[g] - means[g - 1]
        d_new = new_means[g] - new_means[g - 1]
        keep = np.abs(d_old) < eps
        ratio = np.where(keep, 1.0, d_new / np.where(keep, 1.0, d_old))
        slope = ratio * slopes[g]
        shape = spatial[g] + np.outer(slope, slope) - np.outer(slopes[g], slopes[g])
        out = np.empty((model.dim + 1, model.dim + 1))
        out[0, 0] = 1.0
        out[0, 1:] = slope
        out[1:, 0] = slope
        out[1:, 1:] = shape
        cov = tt * out
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            cov = oracle_clamp_spd(cov, COV_FLOOR)
            repairs += 1
        covs[g] = cov
    return covs, repairs


def oracle_clamp_spd(cov, floor):
    """One matrix's eigenvalues raised to floor: eigh of the symmetrized
    matrix, then (vecs * vals) @ vecs.T, with no stacking."""
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def terms(covs):
    """Slopes cov_xt / cov_tt and shapes cov_xx / cov_tt of a covariance stack,
    computed one component at a time."""
    return (np.stack([cov[1:, 0] / float(cov[0, 0]) for cov in covs]),
            np.stack([cov[1:, 1:] / float(cov[0, 0]) for cov in covs]))


def random_spd_mixture(rng, n_comp, dim, thin, static_start=False, scale=1.0):
    """Random time-sorted mixture of SPD components.

    With thin=True every Schur complement C - mm^T is ~1e-13, so rounding in
    the rank-two update can break definiteness and force SPD repairs.  With
    static_start=True the first component has zero slope.  scale multiplies
    every spatial length: means, slopes, and the square root of each shape.
    """
    t_means = np.cumsum(rng.uniform(0.2, 1.0, n_comp))
    covs = []
    for g in range(n_comp):
        slope = scale * rng.uniform(-2.0, 2.0, dim)
        if static_start and g == 0:
            slope[:] = 0.0
        a = rng.normal(size=(dim, dim))
        schur = a @ a.T / dim + np.eye(dim)
        schur *= (1e-13 if thin else 0.1) * scale**2
        cov = np.empty((dim + 1, dim + 1))
        cov[0, 0] = 1.0
        cov[0, 1:] = slope
        cov[1:, 0] = slope
        cov[1:, 1:] = schur + np.outer(slope, slope)
        covs.append(rng.uniform(0.05, 1.0) * cov)
    duration = float(t_means[-1]) + 1.0
    phases = PhaseSchedule(0.25 * duration, 0.75 * duration, duration)
    return GmmModel(rng.dirichlet(np.ones(n_comp)),
                    np.column_stack([t_means, scale * rng.normal(size=(n_comp, dim))]),
                    covs, phases)


def thin_mixture_and_task(seed):
    """A thin 6-D mixture and a far task drawn as test_reparam's repair test
    draws them: seed 738 gives a task that needs repairs, and seed 31 one
    whose regressed first pose turns past pi (as in test_cli)."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.3, 1.0])
    model = random_spd_mixture(rng, 5, 6, thin=True, scale=scale)
    first, last = model.means[0, 1:], model.means[-1, 1:]
    start = rng.uniform(-1.0, 1.0, 6)
    goal = start + rng.uniform(-30.0, 30.0, 6) * (last - first)
    return model, TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))


def thin_repair_tasks():
    """Seed 738's mixture, with a task that needs no repair (the model's
    own endpoints) and then one that does."""
    model, far = thin_mixture_and_task(738)
    own = TaskSpec(Pose.from_vector(model.means[0, 1:]), Pose.from_vector(model.means[-1, 1:]))
    return model, [own, far]


def thin_past_pi_tasks():
    """Seed 31's mixture, with a task it regresses validly and then one
    whose regression turns past pi."""
    model, far = thin_mixture_and_task(31)
    rest = Pose.from_vector(np.zeros(6))
    return model, [TaskSpec(rest, rest), far]


def compiled_values(model, tasks, config, times):
    """(T, n, D): a + b * start + c * goal of the model's compiled curves
    for each task."""
    a, b, c = _curves(model, times, config.ablate_covariance)
    starts = np.array([task.start_vector() for task in tasks])[:, None]
    goals = np.array([task.goal_vector() for task in tasks])[:, None]
    return a + b * starts + c * goals


def composed_generalize(model, task, config=ReparamConfig()):
    """generalize() as the model built from the per-component oracles.  The
    covariance update needs finite new means, so non-finite ones go to
    GmmModel with the source's covariances, which rejects them."""
    means = oracle_reparam_means(model, task.start_vector(), task.goal_vector(), DEGENERATE_EPS)
    covs, repairs = model.covs, 0
    if not config.ablate_covariance and np.isfinite(means).all():
        covs, repairs = oracle_reparam_covariances(model, means, DEGENERATE_EPS)
    return GmmModel(model.priors, np.column_stack([model.means[:, 0], means]), covs,
                    model.phases, task=task, ablated=config.ablate_covariance,
                    spd_repairs=int(repairs))


MODEL_ARRAYS = ("priors", "means", "covs", "slopes", "shapes")


def outcome(build, task):
    """The bytes of every array of the model build() returns, its repair
    count and record, or the type and message of the ValueError it raises."""
    try:
        out = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return ([getattr(out, name).tobytes() for name in MODEL_ARRAYS],
            out.spd_repairs, out.task is task, out.ablated)


def assert_stored_as_public(model):
    """The model holds what GmmModel(...) stores when rebuilt from its own
    fields: every array with the same bytes, dtype, shape and layout,
    read-only and its own, and the same phases, task and records."""
    rebuilt = GmmModel(model.priors, model.means, model.covs, model.phases, task=model.task,
                       ablated=model.ablated, spd_repairs=model.spd_repairs)
    for name in MODEL_ARRAYS:
        got, want = getattr(model, name), getattr(rebuilt, name)
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides), name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable and got.flags.owndata == want.flags.owndata, name
    assert (model.phases, model.task, model.ablated, model.spd_repairs) == (
        rebuilt.phases, rebuilt.task, rebuilt.ablated, rebuilt.spd_repairs)


def assert_generalize_composes(model, task, config=ReparamConfig()):
    """generalize() gives the composed route's model bitwise, or its error,
    and stores what GmmModel(...) would; returns that outcome."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: generalize(model, task, config), task)
        assert got == outcome(lambda: composed_generalize(model, task, config), task)
        if isinstance(got[0], list):  # a model, not an error
            assert_stored_as_public(generalize(model, task, config))
    return got


def pose_task(start, goal):
    """The task between two 6-vectors; hypothesis discards a draw that is no pose."""
    assume(max(np.linalg.norm(start[3:]), np.linalg.norm(goal[3:])) < 3.0)
    return TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))


def random_pose_mixture(seed, n_comp, static_start=False):
    rng = np.random.default_rng(seed)
    model = random_spd_mixture(rng, n_comp, 6, thin=False, static_start=static_start,
                               scale=0.1)
    return rng, model, model.means[0, 1:], model.means[-1, 1:]


def random_endpoints(rng, first, last):
    """Any start, and a goal whose span in each dimension is the source's
    scaled by 0.5-2 either way, so no slope is rescaled by more than ~2."""
    start = first + rng.uniform(-0.5, 0.5, 6)
    return start, start + rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6) * (last - first)


def adapt_pool(model, scene, seed=1):
    """The 32 tasks perfbench's adapt workload draws for a run seed: modes
    alternate translational and combined, about the model's endpoints."""
    rng = np.random.default_rng([seed])
    start, goal = model_endpoints(model)
    return [sample_task(scene, ("translational", "combined")[i % 2], rng, start, goal)
            for i in range(32)]


def record_e_steps(patch, check=None):
    """Patch em_fit's bounded E-step through patch (a pytest MonkeyPatch) to
    record each call; returns the list of records, one per call.

    A record holds the rows of every solve ("solves", in order), the
    windows the call solved ("windows", None where it solved every pair)
    and its fix-up pairs ("fixups").  check, if given, is called as
    check(e_step, means, covs, log_priors, out) after each call."""
    calls = []
    step, solve = model_module._BoundedEStep.__call__, model_module._sq_distances

    def stepped(self, means, covs, log_priors):
        calls.append({"solves": []})
        out = step(self, means, covs, log_priors)
        calls[-1].update(windows=self.windows, fixups=self.fixups)
        if check is not None:
            check(self, means, covs, log_priors, out)
        return out

    def solved(rows, *args):
        calls[-1]["solves"].append(rows)
        return solve(rows, *args)

    patch.setattr(model_module._BoundedEStep, "__call__", stepped)
    patch.setattr(model_module, "_sq_distances", solved)
    return calls
