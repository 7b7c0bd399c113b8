import numpy as np
import pytest

from schwingerlab import Grid, QuasiFree, SpectralMeasure, gaussian_packet
from schwingerlab.experiments import two_mass_mixture
from schwingerlab.fixtures import rng_from_seed


@pytest.fixture
def grid_2d():
    return Grid(2, 32, 0.25)


@pytest.fixture
def grid_1d():
    return Grid(1, 16, 0.5)


@pytest.fixture
def grid_3d():
    return Grid(3, 16, 0.5)


@pytest.fixture
def grid_2d_small():
    return Grid(2, 8, 0.5)


@pytest.fixture
def packet(grid_2d):
    return gaussian_packet(grid_2d, [4.0, 4.0], 1.0)


@pytest.fixture
def free_leaf():
    return QuasiFree(SpectralMeasure.delta(1.0))


@pytest.fixture
def mixture_14():
    return two_mass_mixture(1.0, 4.0)


@pytest.fixture
def rng():
    return rng_from_seed(20240817)


def random_complex(rng, lo=0.5, hi=1.5):
    """Magnitudes bounded away from zero keep relative errors meaningful."""
    return (rng.uniform(lo, hi)) * np.exp(2j * np.pi * rng.random())
