"""Shared fixtures: one synthetic corpus and one fitted model per session."""

import json

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gmmgen import FitConfig, SynthConfig, default_scene, fit_gmm, generate_demonstrations
from gmmgen.bench import default_times, model_endpoints

# Property tests are derandomized and keep no example database, so one
# pytest command draws the same examples on every run.  The examples can
# still depend on which test modules that command loads (hypothesis 6.155
# draws constants from the loaded code), so a failure reproduces with the
# command that found it; tests/run_modules_alone.py runs each module alone.
# Shared helpers assert too; rewrite them as pytest rewrites test modules.
pytest.register_assert_rewrite("helpers")

settings.register_profile("gmmgen", derandomize=True, database=None, deadline=None)
settings.load_profile("gmmgen")

JSON_LEAVES = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
               | st.floats() | st.text(max_size=4)
               | st.sampled_from([float("inf"), float("nan"), -1, 0, 1e308, 10**400]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def mutated(draw, doc):
    """The document with one to three nodes deleted or replaced.

    Each mutation walks down from the root, stopping at every level with
    probability 1/2, so top-level fields are hit as often as deep entries.
    """
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (parent is None
                                                          or draw(st.booleans())):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            doc = draw(JSON_VALUES)
        elif draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    return doc


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
