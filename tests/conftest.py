import itertools

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The shared evaluation grid for equivalence, dominance and simulator
# oracle checks: every combination of these axes.
GRID_G = (0.25, 0.5, 1.0, 2.0, 4.0)
GRID_K = tuple(range(1, 9))
GRID_EPS_U = (0.05, 0.3, 0.5, 0.9)
GRID_EPS_D = (0.0, 0.3, 0.7)
GRID_DELTA = (0.1, 0.5, 1.0)


def full_grid():
    return list(
        itertools.product(GRID_G, GRID_K, GRID_EPS_U, GRID_EPS_D, GRID_DELTA)
    )


def bound_grid():
    return list(itertools.product(GRID_G, GRID_K, GRID_EPS_U))
