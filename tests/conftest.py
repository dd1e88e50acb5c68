import numpy as np
import pytest
from hypothesis import settings

from fracspace import (
    build_quadratic_pair,
    build_spectral_model,
    grid_domain,
    laplacian_1d_analytic,
    sobolev_grams,
    stokes_pencil,
)

# every property test draws the same examples on every run, from a seed
# hashed from the test itself; derandomize implies no example database,
# so no example found in an earlier run is replayed
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def small_model():
    """Diagonal 6-mode model with a spread spectrum."""
    lam = np.array([0.5, 1.0, 2.0, 5.0, 11.0, 20.0])
    return build_spectral_model(lam)


@pytest.fixture(scope="session")
def sine_model():
    """Analytic 1D Dirichlet model, 32 modes."""
    return laplacian_1d_analytic(32)


@pytest.fixture(scope="session")
def grams_2d():
    return sobolev_grams(grid_domain(2, 8))


@pytest.fixture(scope="session")
def stokes_small():
    return stokes_pencil(grid_domain(2, 4))


@pytest.fixture(scope="session")
def spd_pair():
    """A dense SPD pair congruent to a spread diagonal pair."""
    rng = np.random.default_rng(3)
    n = 7
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d1 = np.exp(rng.uniform(-1.0, 1.0, n))
    d2 = d1 * np.exp(rng.uniform(0.0, 3.0, n))
    m1 = Q @ np.diag(d1) @ Q.T
    m2 = Q @ np.diag(d2) @ Q.T
    return build_quadratic_pair((m1 + m1.T) / 2, (m2 + m2.T) / 2)
