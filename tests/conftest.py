import numpy as np
import pytest

from bandedge.dynamics import survival_lattice_oracle
from bandedge.model import ModelParams

THRESHOLD_G002 = ModelParams(epsilon_d=-2.0, g=0.02)


@pytest.fixture(scope="session")
def oracle_g002_600():
    """Truncated-chain survival trace, g = 0.02, t in [0, 600], N = 1500."""
    times = np.arange(0.0, 600.0 + 1e-9, 0.5)
    return survival_lattice_oracle(THRESHOLD_G002, 1500, times)


@pytest.fixture(scope="session")
def oracle_g002_2000():
    """Long trace for the late-time window, g = 0.02, N = 4500."""
    times = np.arange(0.0, 2000.0 + 1e-9, 0.5)
    return survival_lattice_oracle(THRESHOLD_G002, 4500, times)
