import numpy as np
import pytest

from conspar import (
    BoundaryCoupling,
    Grid,
    assemble,
    build_totally_conservative,
    constant_field,
    coupling_from_kernel,
    eigensolve,
    field_from_expression,
)

GRID = Grid(0.0, 1.0, 401)


@pytest.fixture(scope="session")
def grid():
    return GRID


@pytest.fixture(scope="session")
def one():
    return constant_field(1.0)


@pytest.fixture(scope="session")
def zero():
    return constant_field(0.0)


@pytest.fixture(scope="session")
def x_field():
    return field_from_expression("x")


@pytest.fixture(scope="session")
def heat_problem(grid, one, zero, x_field):
    """Heat equation conserving total mass and the first moment."""
    return build_totally_conservative(one, zero, one, x_field, grid)


@pytest.fixture(scope="session")
def heat_eig(heat_problem, grid):
    return eigensolve(heat_problem.operator, heat_problem.coupling)


@pytest.fixture(scope="session")
def heat_coupling(grid, one, x_field):
    return coupling_from_kernel(one, x_field, one, grid)


@pytest.fixture(scope="session")
def neumann_eig(grid, one, zero):
    neumann = BoundaryCoupling([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    return eigensolve(assemble(one, zero, one, grid), neumann, k=6)


def rng(seed=0):
    return np.random.default_rng(seed)
