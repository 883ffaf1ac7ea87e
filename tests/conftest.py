"""Shared fixtures: one synthetic corpus and one fitted model per session."""

import numpy as np
import pytest
from hypothesis import settings

from gmmgen import FitConfig, SynthConfig, default_scene, fit_gmm, generate_demonstrations
from gmmgen.bench import default_times, model_endpoints

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the test alone.
settings.register_profile("gmmgen", derandomize=True, database=None, deadline=None)
settings.load_profile("gmmgen")

_ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def scene():
    return default_scene()


@pytest.fixture(scope="session")
def synth_config():
    return SynthConfig(seed=0)


@pytest.fixture(scope="session")
def corpus(scene, synth_config):
    demos, task = generate_demonstrations(scene, synth_config)
    return demos, task


@pytest.fixture(scope="session")
def demos(corpus):
    return corpus[0]


@pytest.fixture(scope="session")
def fit_result(demos, synth_config):
    return fit_gmm(demos, FitConfig(seed=0), phases=synth_config.phases())


@pytest.fixture(scope="session")
def model(fit_result):
    return fit_result.model


@pytest.fixture(scope="session")
def times(model):
    return default_times(model.duration)


@pytest.fixture(scope="session")
def endpoints(model):
    return model_endpoints(model)


def assert_monotone_loglik(trace, rel_tol=1e-9):
    trace = np.asarray(trace, dtype=float)
    assert trace.ndim == 1 and len(trace) >= 1
    drops = np.diff(trace) < -rel_tol * np.maximum(np.abs(trace[:-1]), 1.0)
    assert not drops.any(), f"log-likelihood decreased at iterations {np.flatnonzero(drops)}"
