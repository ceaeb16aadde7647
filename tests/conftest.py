import numpy as np
import pytest

from zenocoupler import CouplerParams


def random_params(rng) -> CouplerParams:
    """Random valid parameter set with complex k and gamma_nl and
    0 <= dk < 1.5|k|."""
    k_mag = rng.uniform(0.05, 1.0)
    k = k_mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    g = k_mag * rng.uniform(1e-4, 0.05) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    dk = rng.uniform(0.0, 1.5 * k_mag)
    return CouplerParams(k=complex(k), gamma_nl=complex(g), delta_k=float(dk))


@pytest.fixture
def rng():
    return np.random.default_rng(20250823)
