from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmgen.scene import trajectory_success
from gmmgen.synth import (GRASP_DURATION, NOISE_FREQ_RANGE, NOISE_WAVES, TRANSPORT_DURATION,
                          SynthConfig, _smooth_noise, default_endpoints, generate_demonstrations)


def straight_transport(scene, rate):
    """Times and values of a zero-noise, zero-lift demonstration's
    transport leg, plus its task: the bare minimum-jerk profile."""
    cfg = SynthConfig(n_demos=1, lift_height=0.0, noise_pos=0.0, noise_rot=0.0,
                      sample_rate=rate)
    (demo,), task = generate_demonstrations(scene, cfg)
    leg = (demo.times >= GRASP_DURATION) & (demo.times <= GRASP_DURATION + TRANSPORT_DURATION)
    return demo.times[leg], demo.values[leg], task


def test_min_jerk_midpoint_and_endpoints(scene):
    times, values, task = straight_transport(scene, 100.0)
    a, b = task.start_vector(), task.goal_vector()
    assert len(times) == 501
    assert np.array_equal(values[0], a)
    assert np.array_equal(values[-1], b)
    moving = a != b
    progress = (values[250, moving] - a[moving]) / (b[moving] - a[moving])
    assert progress == pytest.approx(0.5, abs=1e-12)


def test_min_jerk_boundary_derivatives_vanish(scene):
    times, values, _ = straight_transport(scene, 1000.0)
    h = times[1] - times[0]
    vel = np.diff(values, axis=0) / h
    acc = np.diff(vel, axis=0) / h
    # end derivatives vanish: tiny next to the mid-segment peaks
    peak_vel = np.abs(vel).max()
    peak_acc = np.abs(acc).max()
    assert np.abs(vel[0]).max() < 1e-3 * peak_vel
    assert np.abs(vel[-1]).max() < 1e-3 * peak_vel
    assert np.abs(acc[0]).max() < 1e-2 * peak_acc
    assert np.abs(acc[-1]).max() < 1e-2 * peak_acc


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_demos=0)
    for rate in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SynthConfig(sample_rate=rate)
    with pytest.raises(ValueError):
        SynthConfig(noise_pos=-1.0)
    phases = SynthConfig().phases()
    assert phases.grasp_end == 1.0 and phases.release_start == 6.0
    assert phases.duration == pytest.approx(7.0)


def test_zero_noise_demos_are_identical(scene):
    cfg = SynthConfig(n_demos=3, noise_pos=0.0, noise_rot=0.0, seed=9)
    demos, task = generate_demonstrations(scene, cfg)
    assert len(demos) == 3
    for demo in demos[1:]:
        assert np.array_equal(demo.values, demos[0].values)
    # the noiseless path is the nominal arc: endpoints exact
    assert np.array_equal(demos[0].values[0], task.start_vector())
    assert np.array_equal(demos[0].values[-1], task.goal_vector())


def test_demos_pin_endpoints_and_hold_still(demos, corpus, synth_config):
    _, task = corpus
    grasp_n = int(GRASP_DURATION * synth_config.sample_rate)
    for demo in demos:
        # the noise envelope is zero through both holds
        assert np.abs(demo.values[:grasp_n] - task.start_vector()).max() == 0.0
        assert np.abs(demo.values[-grasp_n:] - task.goal_vector()).max() == 0.0


def test_demos_vary_midway_within_noise_budget(demos, synth_config):
    mid = demos[0].n_samples // 2
    spread = np.std([d.values[mid] for d in demos], axis=0)
    assert spread[:3].max() > 1e-5  # the transport leg actually varies
    assert spread[:3].max() < 3.0 * synth_config.noise_pos
    assert spread[3:].max() < 3.0 * synth_config.noise_rot


def test_demos_all_pass_success_check(demos, corpus, scene):
    _, task = corpus
    for demo in demos:
        ok, reason = trajectory_success(demo, scene, task)
        assert ok, reason


def test_demos_deterministic(scene, synth_config, demos):
    again, _ = generate_demonstrations(scene, synth_config)
    for a, b in zip(again, demos):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)


def test_lift_clears_lip(demos, scene):
    # every demo rises above the lip while crossing the bay divider
    for demo in demos:
        crossing = np.abs(demo.values[:, 0] - 0.4) < 0.005
        assert demo.values[crossing, 2].min() > 0.02 + 0.5 * scene.box_dims[2]


def test_retry_shrinks_noise_until_feasible(scene):
    # an absurd noise level forces the halving retries to kick in
    cfg = SynthConfig(n_demos=2, noise_pos=0.25, seed=4)
    demos, task = generate_demonstrations(scene, cfg)
    for demo in demos:
        ok, _ = trajectory_success(demo, scene, task)
        assert ok


def test_default_endpoints_are_restful(scene):
    start, goal = default_endpoints(scene)
    assert start.position[2] == pytest.approx(0.063)
    assert goal.position[2] == pytest.approx(0.463)
    assert np.array_equal(start.orientation, np.zeros(3))


def oracle_smooth_noise(times, rng, sigmas):
    """_smooth_noise one wave at a time: each dimension's column starts at
    zero and adds amp * sin(2 pi f t + p) per drawn frequency and phase."""
    noise = np.zeros((len(times), len(sigmas)))
    for d, sigma in enumerate(sigmas):
        freqs = rng.uniform(*NOISE_FREQ_RANGE, NOISE_WAVES)
        phases = rng.uniform(0.0, 2.0 * np.pi, NOISE_WAVES)
        amp = sigma * np.sqrt(2.0 / NOISE_WAVES)
        for f, p in zip(freqs, phases):
            noise[:, d] += amp * np.sin(2.0 * np.pi * f * times + p)
    return noise


NOISE_SIGMAS = st.just(0.0) | st.floats(1e-6, 2e-2)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), noise_pos=NOISE_SIGMAS, noise_rot=NOISE_SIGMAS)
def test_smooth_noise_matches_the_per_wave_sum(scene, seed, noise_pos, noise_rot):
    """The same draws give the same noise, and the demonstrations built on
    it are the same bytes, signed zeros included."""
    cfg = SynthConfig(n_demos=2, noise_pos=noise_pos, noise_rot=noise_rot, seed=seed)
    times = np.linspace(0.0, cfg.phases().duration, 701)
    sigmas = np.array([noise_pos] * 3 + [noise_rot] * 3)
    got = _smooth_noise(times, np.random.default_rng(seed), sigmas)
    assert np.array_equal(got, oracle_smooth_noise(times, np.random.default_rng(seed), sigmas))
    demos, _ = generate_demonstrations(scene, cfg)
    with patch("gmmgen.synth._smooth_noise", oracle_smooth_noise):
        want, _ = generate_demonstrations(scene, cfg)
    assert [d.values.tobytes() for d in demos] == [d.values.tobytes() for d in want]
