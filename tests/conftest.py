import numpy as np
import pytest

from shufflegrad import Dataset, RidgeProblem, Rng, pairwise_mean


def random_dataset(m, d, seed, label_scale=0.5, stream=0):
    """Small dataset with unit-capped feature norms and labels in [-1, 1]."""
    rng = Rng(seed, stream)
    X = rng.normal(m * d).reshape(m, d)
    X /= np.linalg.norm(X, axis=1).max()
    y = np.clip(label_scale * rng.normal(m), -1.0, 1.0)
    return Dataset(X=X, y=y)


def random_ridge(m, d, seed, alpha=0.25, **kw):
    return RidgeProblem(random_dataset(m, d, seed, **kw), alpha=alpha)


@pytest.fixture
def unit_axes_problem():
    """The two-point problem on the coordinate axes used by hand examples."""
    data = Dataset(X=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.array([1.0, 0.0]))
    return RidgeProblem(data, alpha=0.5)


# Straight-line one-point formulas: the oracles for the block evaluations.
POINT_LOSSES = {
    "squared": lambda z, y: 0.5 * (z - y) ** 2,
    "absolute": lambda z, y: np.abs(z - y),
    "hinge": lambda z, y: np.maximum(0.0, 1.0 - y * z),
}


def straight_objective(problem, w):
    """F(w) as one vector of point losses reduced by the pairwise tree."""
    z = problem.data.X @ w
    losses = POINT_LOSSES[problem.kind](z, problem.data.y)
    return float(pairwise_mean(losses + 0.5 * problem.alpha * float(w @ w)))


def straight_suboptimality(problem, w):
    """F(w) - F*: the curvature form for ridge, the objective gap otherwise."""
    if isinstance(problem, RidgeProblem):
        dw = w - problem.wstar
        return 0.5 * float(dw @ (problem.hessian @ dw))
    return straight_objective(problem, w) - problem.fstar
