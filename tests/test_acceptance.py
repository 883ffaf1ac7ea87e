"""End-to-end checks of the package's headline guarantees.

Each test records a one-line pass/fail verdict in the pytest summary so a
full run reads as a checklist: identity reproduction, SPD preservation,
exact equivariances, boundary convergence, success rates, the covariance
ablation gap, EM behavior, metric oracles, and CLI determinism.
"""

import time

import numpy as np
import pytest

from gmmgen.bench import default_times, model_endpoints, run_benchmark
from gmmgen.cli import main
from gmmgen.data import PhaseSchedule, Pose, TaskSpec, Trajectory
from gmmgen.gmr import regress
from gmmgen.metrics import average_jerk, boundary_error, shape_deviation
from gmmgen.model import (FitConfig, GmmModel, em_fit, fit_gmm, kmeans_init,
                          save_model)
from gmmgen.reparam import DEGENERATE_EPS, ReparamConfig, generalize
from gmmgen.scene import Slab, collision_mask, sample_task

from conftest import assert_monotone_loglik, record_acceptance


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


@pytest.fixture(scope="module")
def benchmarks(model, scene):
    full_t = run_benchmark(model, scene, "translational", trials=50, seed=1)
    full_c = run_benchmark(model, scene, "combined", trials=50, seed=1)
    ablated_c = run_benchmark(model, scene, "combined", trials=50, seed=1,
                              config=ReparamConfig(ablate_covariance=True))
    return full_t, full_c, ablated_c


def test_ac1_identity_reproduction(demos, synth_config, scene):
    t0 = time.perf_counter()
    model = fit_gmm(demos, FitConfig(seed=0), phases=synth_config.phases()).model
    task = TaskSpec(*model_endpoints(model))
    traj = regress(generalize(model, task), default_times(model.duration))
    elapsed = time.perf_counter() - t0

    mean_demo = Trajectory(demos[0].times,
                           np.mean([d.values for d in demos], axis=0))
    shape = shape_deviation(traj, mean_demo)
    (s_mm, s_deg), (g_mm, g_deg) = boundary_error(traj, task)
    ok = (shape < 1e-3 and max(s_mm, g_mm) < 2.0 and max(s_deg, g_deg) < 0.5
          and elapsed < 10.0)
    record_acceptance(
        f"1 identity reproduction: {verdict(ok)} (shape {shape:.2e} < 1e-3; "
        f"boundary {max(s_mm, g_mm):.3f} mm / {max(s_deg, g_deg):.4f} deg; "
        f"{elapsed:.1f} s < 10 s)")
    assert shape < 1e-3
    assert s_mm < 2.0 and g_mm < 2.0
    assert s_deg < 0.5 and g_deg < 0.5
    assert elapsed < 10.0


def test_ac2_spd_preservation(model, scene, endpoints):
    src_slopes, src_spatial = model.slopes, model.shapes
    src_min_eigs = np.array([
        np.linalg.eigvalsh(src_spatial[g] - np.outer(src_slopes[g], src_slopes[g]))[0]
        for g in range(model.n_components)])
    worst = 0.0
    repairs = 0
    n_tasks = 1000
    for i in range(n_tasks):
        rng = np.random.default_rng([7, i])
        mode = "translational" if i % 2 == 0 else "combined"
        task = sample_task(scene, mode, rng, *endpoints)
        out = generalize(model, task)
        repairs += out.spd_repairs
        for g in range(model.n_components):
            np.linalg.cholesky(out.covs[g])
            new_eig = np.linalg.eigvalsh(
                out.shapes[g] - np.outer(out.slopes[g], out.slopes[g]))[0]
            worst = max(worst, abs(new_eig - src_min_eigs[g]))
    ok = worst < 1e-10 and repairs == 0
    record_acceptance(
        f"2 SPD preservation: {verdict(ok)} ({n_tasks} tasks, all Cholesky ok; "
        f"max Schur min-eig drift {worst:.2e} < 1e-10; {repairs} repairs)")
    assert worst < 1e-10
    assert repairs == 0


def random_static_start_model(rng, n_comp=6):
    """Random pose mixture whose first component has zero slope.

    The demonstrations behind a fitted model start with a static hold, so
    the first component carries no motion; these constructions make that
    exact, which is what the scaling relation below assumes.
    """
    dim = 6
    t_means = np.cumsum(rng.uniform(0.5, 1.0, n_comp))
    priors = rng.dirichlet(np.full(n_comp, 5.0))
    first = np.concatenate([rng.uniform(0.0, 0.2, 3), rng.uniform(-0.15, 0.15, 3)])
    span = np.concatenate([
        rng.uniform(0.25, 0.5, 3) * rng.choice([-1.0, 1.0], 3),
        rng.uniform(0.25, 0.45, 3) * rng.choice([-1.0, 1.0], 3)])
    steps = rng.uniform(0.3, 1.0, (n_comp - 1, dim))
    steps = steps / steps.sum(axis=0) * span
    x_means = first + np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])

    covs = []
    for g in range(n_comp):
        slope = np.zeros(dim) if g == 0 else rng.uniform(-0.3, 0.3, dim)
        a = rng.normal(size=(dim, dim))
        schur = a @ a.T / dim + 0.2 * np.eye(dim)
        shape = schur + np.outer(slope, slope)
        tt = rng.uniform(0.05, 0.2)
        cov = np.empty((dim + 1, dim + 1))
        cov[0, 0] = 1.0
        cov[0, 1:] = slope
        cov[1:, 0] = slope
        cov[1:, 1:] = shape
        covs.append(tt * cov)
    duration = float(t_means[-1]) + 1.0
    phases = PhaseSchedule(0.25 * duration, 0.75 * duration, duration)
    return GmmModel(priors, np.column_stack([t_means, x_means]), covs, phases)


def test_ac3_exact_equivariances(model, endpoints):
    times = default_times(model.duration)
    base_task = TaskSpec(*endpoints)
    base = regress(generalize(model, base_task), times)
    rng = np.random.default_rng(2024)
    worst_shift = 0.0
    for _ in range(200):
        delta = np.concatenate([rng.uniform(-0.3, 0.3, 3),
                                rng.uniform(-0.2, 0.2, 3)])
        task = TaskSpec(Pose.from_vector(base_task.start_vector() + delta),
                        Pose.from_vector(base_task.goal_vector() + delta))
        moved = regress(generalize(model, task), times)
        worst_shift = max(worst_shift,
                          np.abs(moved.values - (base.values + delta)).max())

    worst_scale = 0.0
    for rep in range(200):
        if rep % 10 == 0:
            toy = random_static_start_model(rng)
            toy_times = default_times(toy.duration)
            toy_base = regress(toy, toy_times)
            first = toy.means[0, 1:]
            last = toy.means[-1, 1:]
        s = rng.uniform(0.5, 2.0, 6)
        task = TaskSpec(Pose.from_vector(first),
                        Pose.from_vector(first + s * (last - first)))
        scaled = regress(generalize(toy, task), toy_times)
        expected = first + s * (toy_base.values - first)
        worst_scale = max(worst_scale, np.abs(scaled.values - expected).max())

    # on the fitted model the mean and slope updates are affine as well
    s = np.array([1.3, 0.8, 1.7, 1.2, 0.9, 1.1])
    start_vec = base_task.start_vector()
    goal_vec = start_vec + s * (base_task.goal_vector() - start_vec)
    out = generalize(model, TaskSpec(Pose.from_vector(start_vec),
                                     Pose.from_vector(goal_vec)))
    x_means = model.means[:, 1:]
    span = x_means[-1] - x_means[0]
    live = np.abs(span) >= DEGENERATE_EPS
    mean_err = np.abs(out.means[:, 1:] - (start_vec + s * (x_means - start_vec)))
    slope_err = np.abs(out.slopes[1:] - s * model.slopes[1:])
    worst_affine = max(mean_err[:, live].max(), slope_err[:, live].max())

    ok = worst_shift < 1e-9 and worst_scale < 1e-9 and worst_affine < 1e-9
    record_acceptance(
        f"3 exact equivariances: {verdict(ok)} (200 translations, max drift "
        f"{worst_shift:.2e}; 200 scalings, max drift {worst_scale:.2e}; "
        f"fitted-model affine check {worst_affine:.2e}; all < 1e-9)")
    assert worst_shift < 1e-9
    assert worst_scale < 1e-9
    assert worst_affine < 1e-9


def test_ac4_boundary_convergence(model, scene, endpoints):
    times = default_times(model.duration)
    t0 = time.perf_counter()
    errs = []
    for i in range(50):
        rng = np.random.default_rng([3, i])
        task = sample_task(scene, "translational", rng, *endpoints)
        traj = regress(generalize(model, task), times)
        (s_mm, s_deg), (g_mm, g_deg) = boundary_error(traj, task)
        errs.append((s_mm, s_deg, g_mm, g_deg))
    elapsed = time.perf_counter() - t0
    s_mm, s_deg, g_mm, g_deg = np.mean(errs, axis=0)
    ok = max(s_mm, g_mm) < 2.0 and max(s_deg, g_deg) < 0.5 and elapsed < 60.0
    record_acceptance(
        f"4 boundary convergence: {verdict(ok)} (50 tasks; mean start "
        f"{s_mm:.3f} mm / {s_deg:.4f} deg, goal {g_mm:.3f} mm / {g_deg:.4f} deg; "
        f"{elapsed:.1f} s < 60 s)")
    assert s_mm < 2.0 and g_mm < 2.0
    assert s_deg < 0.5 and g_deg < 0.5
    assert elapsed < 60.0


def test_ac5_success_rates(benchmarks):
    full_t, full_c, _ = benchmarks
    rate_t = full_t.summary["success_rate"]
    rate_c = full_c.summary["success_rate"]
    ok = rate_t >= 80.0 and rate_c >= 70.0
    record_acceptance(
        f"5 success rates: {verdict(ok)} (translational {rate_t:.0f}% >= 80%, "
        f"combined {rate_c:.0f}% >= 70%, 50 trials each)")
    assert rate_t >= 80.0
    assert rate_c >= 70.0


def test_ac6_ablation_direction(benchmarks):
    _, full_c, ablated_c = benchmarks
    jerk_ratio = ablated_c.summary["jerk_lin"] / full_c.summary["jerk_lin"]
    drop = full_c.summary["success_rate"] - ablated_c.summary["success_rate"]
    ok = jerk_ratio >= 1.5 and drop >= 15.0
    record_acceptance(
        f"6 ablation direction: {verdict(ok)} (linear jerk x{jerk_ratio:.1f} >= 1.5, "
        f"success drop {drop:.0f} pp >= 15 pp on the combined benchmark)")
    assert jerk_ratio >= 1.5
    assert drop >= 15.0


def test_ac7_em_correctness(fit_result, demos, synth_config):
    assert_monotone_loglik(fit_result.loglik_trace)
    for seed in (1, 2):
        extra = fit_gmm(demos, FitConfig(seed=seed), phases=synth_config.phases())
        assert_monotone_loglik(extra.loglik_trace)

    rng = np.random.default_rng(6)
    n = 2000
    mean_a, mean_b = np.array([1.0, -0.5]), np.array([4.0, 2.0])
    cov_a = np.array([[0.20, 0.05], [0.05, 0.10]])
    cov_b = np.array([[0.15, -0.04], [-0.04, 0.25]])
    data = np.vstack([rng.multivariate_normal(mean_a, cov_a, n // 2),
                      rng.multivariate_normal(mean_b, cov_b, n // 2)])
    _, init = kmeans_init(data, 2, seed=0)
    (priors, means, covs), trace = em_fit(data, init, FitConfig(n_components=2, seed=0))
    assert_monotone_loglik(trace)
    order = np.argsort(means[:, 0], kind="stable")
    priors, means, covs = priors[order], means[order], covs[order]
    mean_err = max(np.abs(means[0] - mean_a).max(),
                   np.abs(means[1] - mean_b).max())
    cov_err = max(np.abs(covs[0] - cov_a).max(),
                  np.abs(covs[1] - cov_b).max())
    prior_err = abs(priors[0] - 0.5)
    ok = mean_err < 0.05 and cov_err < 0.05 and prior_err < 0.05
    record_acceptance(
        f"7 EM correctness: {verdict(ok)} (loglik non-decreasing on 3 corpus fits; "
        f"2-component recovery: mean err {mean_err:.3f}, cov err {cov_err:.3f}, "
        f"prior err {prior_err:.3f}, all < 0.05)")
    assert mean_err < 0.05 and cov_err < 0.05 and prior_err < 0.05


def test_ac8_metric_and_scene_oracles():
    times = np.linspace(0.0, 1.0, 60)
    angle = 2.0 * np.pi * times
    curve = np.column_stack([np.cos(angle), np.sin(angle), times])
    ref = Trajectory(times, np.hstack([curve, np.zeros((60, 3))]))
    from scipy.spatial.transform import Rotation
    rot = Rotation.from_rotvec([0.3, -0.2, 0.5]).as_matrix()
    moved = Trajectory(times, np.hstack([2.0 * curve @ rot.T + 0.7,
                                         np.zeros((60, 3))]))
    procrustes = shape_deviation(moved, ref)

    # unit box at the origin: 0.01 overlap, 0.01 gap, touching faces
    hand_slabs = (Slab((0.49, -1, -1), (1, 1, 1)), Slab((0.51, -1, -1), (1, 1, 1)),
                  Slab((0.5, -1, -1), (1, 1, 1)))
    sat_ok = collision_mask(np.zeros(3), np.zeros(3), (1, 1, 1),
                            hand_slabs).tolist() == [[True, False, True]]

    duration = 5.0
    qt = np.linspace(0.0, duration, 501)
    u = qt / duration
    quintic = np.zeros((501, 6))
    quintic[:, 0] = 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5
    jerk, _ = average_jerk(Trajectory(qt, quintic))
    analytic = 40.0 / np.sqrt(3.0) / duration**3
    jerk_rel = abs(jerk - analytic) / analytic

    ok = procrustes < 1e-9 and sat_ok and jerk_rel < 0.02
    record_acceptance(
        f"8 metric oracles: {verdict(ok)} (similarity-invariant shape "
        f"{procrustes:.1e} < 1e-9; separating-axis hand cases; quintic jerk "
        f"within {100 * jerk_rel:.1f}% < 2%)")
    assert procrustes < 1e-9
    assert sat_ok
    assert jerk_rel < 0.02


def test_ac9_cli_determinism(model, tmp_path, endpoints):
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    start = ",".join(repr(float(v)) for v in endpoints[0].as_vector())
    goal = ",".join(repr(float(v)) for v in endpoints[1].as_vector())

    synth_outs = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert main(["synth", "--out-dir", str(out), "--demos", "3",
                     "--seed", "5"]) == 0
        synth_outs.append(b"".join(sorted(p.read_bytes()
                                          for p in out.glob("demo_*.csv"))))
    synth_same = synth_outs[0] == synth_outs[1]

    gen_outs = []
    for tag in ("g1", "g2"):
        gen_model = tmp_path / f"{tag}.json"
        gen_traj = tmp_path / f"{tag}.csv"
        assert main(["generalize", "--model", str(model_path),
                     "--start", start, "--goal", goal,
                     "--out-model", str(gen_model),
                     "--out-traj", str(gen_traj)]) == 0
        gen_outs.append(gen_model.read_bytes() + gen_traj.read_bytes())
    gen_same = gen_outs[0] == gen_outs[1]

    bench_outs = []
    for tag in ("b1", "b2"):
        out = tmp_path / tag
        assert main(["benchmark", "--model", str(model_path),
                     "--mode", "combined", "--trials", "6", "--seed", "2",
                     "--out-dir", str(out)]) == 0
        bench_outs.append((out / "summary.csv").read_bytes()
                          + (out / "trials.jsonl").read_bytes())
    bench_same = bench_outs[0] == bench_outs[1]

    ok = synth_same and gen_same and bench_same
    record_acceptance(
        f"9 CLI determinism: {verdict(ok)} (synth, generalize, and benchmark "
        f"reruns byte-identical)")
    assert synth_same
    assert gen_same
    assert bench_same
