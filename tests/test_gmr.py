import numpy as np
import pytest

from gmmgen.data import PhaseSchedule
from gmmgen.gmr import regress
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
    # a lone component's weight is exactly 1, so regression is its own line
    cov = np.array([[0.5, 0.25], [0.25, 1.0]])  # slope 0.5
    model = single_component_model([1.0, 2.0], cov)
    times = np.array([0.0, 1.0, 2.0])
    traj = regress(model, times)
    assert np.array_equal(traj.values[:, 0], 2.0 + 0.5 * (times - 1.0))


def test_separated_component_center_returns_its_mean():
    # centers 2 s apart with a 0.1 s deviation: at one center the other
    # component's weight is about exp(-200) and vanishes next to its mean
    model = two_component_model(t_var=0.01, x_means=(0.3, 1.7))
    traj = regress(model, [0.0, 1.0, 3.0])
    assert traj.values[1, 0] == 0.3
    assert traj.values[2, 0] == 1.7


def test_symmetric_midpoint_weights():
    # equal priors and variances about the midpoint 2.0: the weights at t and
    # 4 - t swap, so with means 0 and 1 the two predictions sum to 1
    model = two_component_model(x_means=(0.0, 1.0))
    times = np.linspace(0.0, 4.0, 17)
    values = regress(model, times).values[:, 0]
    assert values[8] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(values + values[::-1], 1.0, atol=1e-12)


def test_priors_reweight_at_symmetric_time():
    model = two_component_model(priors=(0.3, 0.7), x_means=(0.0, 1.0))
    traj = regress(model, [0.0, 2.0, 4.0])
    assert traj.values[1, 0] == pytest.approx(0.7, abs=1e-12)


def test_partition_of_unity_at_extreme_times():
    # with a 1 ms time deviation every linear-space weight underflows far
    # from the centers; the log-space normalization must still give a
    # convex combination of the (zero-slope) means
    model = two_component_model(t_var=1e-6, x_means=(-1.0, 2.0))
    traj = regress(model, [0.0, 1.7, 2.0, 2.3, 4.0])
    values = traj.values[:, 0]
    assert np.isfinite(values).all()
    assert np.all((values >= -1.0) & (values <= 2.0))
    assert values[0] == -1.0 and values[-1] == 2.0


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
        regress("not a model", [0.0, 1.0])


def test_regress_reanchors_offset_times():
    model = two_component_model()
    traj = regress(model, [1.0, 2.0, 3.0])
    assert traj.times[0] == 0.0
    assert np.allclose(traj.times, [0.0, 1.0, 2.0])
