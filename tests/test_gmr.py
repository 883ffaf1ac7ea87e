import numpy as np
import pytest

from gmmgen.data import PhaseSchedule
from gmmgen.gmr import activation_weights, regress, regress_with_variance
from gmmgen.model import GmmModel


def two_component_model(priors=(0.5, 0.5), t_means=(1.0, 3.0), x_means=(0.0, 1.0),
                        t_var=0.25, slope=0.0, shape=1.0):
    cov = t_var * np.array([[1.0, slope], [slope, shape]])
    duration = float(t_means[-1]) + 1.0
    phases = PhaseSchedule(duration / 4.0, 3.0 * duration / 4.0, duration)
    return GmmModel(priors, np.column_stack([t_means, x_means]), [cov, cov],
                    duration, phases)


def single_component_model(mean, cov):
    return GmmModel([1.0], [mean], [cov], 2.0, PhaseSchedule(0.5, 1.5, 2.0))


def test_single_component_weight_is_one():
    model = single_component_model([1.0, 0.0], np.eye(2))
    for t in (0.0, 1.0, 2.0):
        assert np.array_equal(activation_weights(model, t), [1.0])


def test_symmetric_midpoint_weights():
    model = two_component_model()
    w = activation_weights(model, 2.0)  # equidistant from both centers
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_priors_reweight_at_symmetric_time():
    model = two_component_model(priors=(0.3, 0.7))
    w = activation_weights(model, 2.0)
    assert np.allclose(w, [0.3, 0.7], atol=1e-12)


def test_partition_of_unity_at_extreme_times():
    model = two_component_model()
    for t in (-50.0, 0.0, 1.7, 4.0, 200.0):
        w = activation_weights(model, t)
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)
    with pytest.raises(ValueError):
        activation_weights(model, np.inf)


def test_single_component_regresses_a_line():
    cov = np.array([[0.5, 0.25], [0.25, 1.0]])  # slope 0.5
    model = single_component_model([1.0, 2.0], cov)
    times = np.linspace(0.0, 2.0, 9)
    traj = regress(model, times)
    assert np.allclose(traj.values[:, 0], 2.0 + 0.5 * (times - 1.0), atol=1e-12)


def test_two_component_midpoint_average():
    # at t=2 both components activate equally; slopes are zero, so the
    # regression is the plain average of the spatial means
    model = two_component_model(x_means=(0.0, 2.0))
    traj = regress(model, [0.0, 2.0, 4.0])
    assert traj.values[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_regress_identity_on_fitted_model(model, times, demos):
    traj = regress(model, times)
    assert traj.n_samples == len(times)
    assert traj.duration == pytest.approx(model.duration)
    # regression stays inside the demonstrated envelope
    lo = np.min([d.values.min(axis=0) for d in demos], axis=0) - 0.05
    hi = np.max([d.values.max(axis=0) for d in demos], axis=0) + 0.05
    assert np.all(traj.values >= lo) and np.all(traj.values <= hi)


def test_regress_times_validation():
    model = two_component_model()
    with pytest.raises(ValueError):
        regress(model, [0.0])
    with pytest.raises(ValueError):
        regress(model, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        regress(model, [0.0, np.nan])
    with pytest.raises(ValueError):
        regress(model, [0.0, 99.0])
    with pytest.raises(ValueError):
        regress(model, [-1.0, 1.0])
    with pytest.raises(TypeError):
        activation_weights("not a model", 0.0)


def test_regress_reanchors_offset_times():
    model = two_component_model()
    traj = regress(model, [1.0, 2.0, 3.0])
    assert traj.times[0] == 0.0
    assert np.allclose(traj.times, [0.0, 1.0, 2.0])


def test_variance_matches_regression_and_is_spd(model, times):
    traj_plain = regress(model, times)
    traj, covs = regress_with_variance(model, times)
    assert np.array_equal(traj.values, traj_plain.values)
    assert covs.shape == (len(times), model.dim, model.dim)
    eigs = np.linalg.eigvalsh(covs)
    assert eigs.min() > -1e-12


def test_variance_single_component_is_conditional():
    cov = np.array([[0.5, 0.25], [0.25, 1.0]])
    model = single_component_model([1.0, 2.0], cov)
    _, covs = regress_with_variance(model, np.linspace(0.0, 2.0, 5))
    expected = 1.0 - 0.25**2 / 0.5  # Schur complement of the time block
    assert np.allclose(covs[:, 0, 0], expected, atol=1e-12)
