"""Device parameters and coherent input amplitudes.

All couplings carry units of inverse length; the propagation distance z
uses the matching length unit (hbar = 1 throughout).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters


def check_count(value, name: str, minimum: int) -> None:
    """Raise InvalidParameters unless value is an integer (a numpy integer
    too, but not a float) of at least minimum."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidParameters(f"{name} must be an integer, got {value!r}") from None
    if n < minimum:
        raise InvalidParameters(f"{name} must be >= {minimum}, got {n}")


def check_length(z, rate: float = 0.0) -> None:
    """Raise InvalidParameters unless the propagation distance z, a float or
    every element of an array, is finite and non-negative (NaN fails the
    comparison too), and the largest phase rate * z is finite."""
    if isinstance(z, np.ndarray):
        bad = z[~((0.0 <= z) & (z < math.inf))]
        if bad.size:
            raise InvalidParameters(f"z must be finite and non-negative, got {bad[0]}")
        z = z.max(initial=0.0)
    elif not 0.0 <= z < math.inf:
        raise InvalidParameters(f"z must be finite and non-negative, got {z}")
    # a float product overflows to inf without the warning a numpy one raises
    if not float(rate) * float(z) < math.inf:
        raise InvalidParameters(f"phase {rate:g} * z overflows at z = {float(z):g}")


@dataclass(frozen=True)
class CouplerParams:
    """Physical couplings of the asymmetric coupler.

    k        -- linear (evanescent) coupling constant, complex, nonzero
    gamma_nl -- nonlinear (second-harmonic) coupling constant, complex
    delta_k  -- phase mismatch between fundamental and second harmonic, real
    """

    k: complex
    gamma_nl: complex
    delta_k: float

    def __post_init__(self):
        k = complex(self.k)
        if k == 0:
            raise InvalidParameters(
                "k must be nonzero; use the dedicated uncoupled-reference "
                "operations for the k=0 case"
            )
        if not (
            math.isfinite(abs(k))
            and math.isfinite(abs(complex(self.gamma_nl)))
            and math.isfinite(self.delta_k)
        ):
            raise InvalidParameters("couplings must be finite")


@dataclass(frozen=True)
class CoherentInputs:
    """Coherent amplitudes of the three input modes.

    alpha -- linear-waveguide (probe) mode a
    beta  -- fundamental mode b1
    gamma -- second-harmonic mode b2; phase phi is arg(gamma)
    """

    alpha: complex = 0.0
    beta: complex = 0.0
    gamma: complex = 0.0

    def __post_init__(self):
        if not (
            cmath.isfinite(complex(self.alpha))
            and cmath.isfinite(complex(self.beta))
            and cmath.isfinite(complex(self.gamma))
        ):
            raise InvalidParameters("coherent amplitudes must be finite")

    def with_phi(self, phi: float) -> "CoherentInputs":
        """Same inputs with gamma's phase replaced, magnitude kept."""
        mag = abs(complex(self.gamma))
        return CoherentInputs(self.alpha, self.beta, mag * cmath.exp(1j * phi))
