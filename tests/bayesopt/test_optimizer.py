"""Unit tests for the expected-improvement Bayesian optimizer."""

import numpy as np
import pytest

from repro.bayesopt.optimizer import N_INIT, BayesianOptimizer
from repro.errors import ConfigurationError
from repro.quantities import MB


def test_initial_suggestions_span_the_space():
    opt = BayesianOptimizer(low=1 * MB, high=16 * MB)
    suggestions = []
    for _ in range(N_INIT):
        s = opt.suggest()
        suggestions.append(s)
        opt.observe(s, 1.0)
    assert all(1 * MB <= s <= 16 * MB * (1 + 1e-9) for s in suggestions)
    # Van der Corput sweep: distinct, spread out in log space.
    logs = np.log(suggestions)
    assert len(set(np.round(logs, 6))) == N_INIT
    assert logs.max() - logs.min() > 0.5 * (np.log(16 * MB) - np.log(1 * MB))


def test_converges_to_minimum_of_smooth_objective():
    rng = np.random.default_rng(0)
    opt = BayesianOptimizer(low=1.0, high=100.0, rng=rng)
    target = 20.0

    def objective(x: float) -> float:
        return (np.log(x) - np.log(target)) ** 2

    for _ in range(25):
        x = opt.suggest()
        opt.observe(x, objective(x))
    best_x, best_y = opt.best
    assert best_y < 0.05
    assert 10.0 < best_x < 40.0


def test_best_tracks_minimum():
    opt = BayesianOptimizer(low=1.0, high=10.0)
    opt.observe(2.0, 5.0)
    opt.observe(4.0, 1.0)
    opt.observe(8.0, 3.0)
    best_x, best_y = opt.best
    assert best_y == 1.0
    assert best_x == pytest.approx(4.0, rel=1e-6)


def test_best_none_without_observations():
    assert BayesianOptimizer(low=1.0, high=2.0).best is None


def test_observe_out_of_bounds_raises():
    opt = BayesianOptimizer(low=1.0, high=2.0)
    with pytest.raises(ConfigurationError):
        opt.observe(5.0, 1.0)


def test_observe_non_finite_raises():
    opt = BayesianOptimizer(low=1.0, high=2.0)
    with pytest.raises(ConfigurationError):
        opt.observe(1.5, float("nan"))


def test_invalid_bounds_raise():
    with pytest.raises(ConfigurationError):
        BayesianOptimizer(low=0.0, high=1.0)
    with pytest.raises(ConfigurationError):
        BayesianOptimizer(low=2.0, high=1.0)
    with pytest.raises(ConfigurationError):
        BayesianOptimizer(low=1.0, high=1.0)


def test_deterministic_under_seed():
    def run(seed):
        opt = BayesianOptimizer(low=1.0, high=10.0, rng=np.random.default_rng(seed))
        xs = []
        for _ in range(8):
            x = opt.suggest()
            xs.append(x)
            opt.observe(x, (x - 3.0) ** 2)
        return xs

    assert run(1) == run(1)
