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

from .errors import DegenerateParameters, InvalidParameters

# Relative width (in units of |k|^2) of the rejected band around the
# 2|k| = |dk| resonance, where the coefficient denominators vanish.
DEGENERACY_THRESHOLD = 1e-9


def check_count(value, name: str, minimum: int) -> None:
    """Raise InvalidParameters unless value is an integer (a numpy integer
    too, but not a float) of at least minimum."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidParameters(f"{name} must be an integer, got {value!r}") from None
    if n < minimum:
        raise InvalidParameters(f"{name} must be >= {minimum}, got {n}")


def check_length(z) -> None:
    """Raise InvalidParameters unless the propagation distance z, a float or
    every element of an array, is finite and non-negative (NaN fails the
    comparison too)."""
    if isinstance(z, np.ndarray):
        bad = z[~((0.0 <= z) & (z < math.inf))]
        if bad.size:
            raise InvalidParameters(f"z must be finite and non-negative, got {bad[0]}")
    elif not 0.0 <= z < math.inf:
        raise InvalidParameters(f"z must be finite and non-negative, got {z}")


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
        ak2 = abs(k) ** 2
        denom = abs(4.0 * ak2 - self.delta_k**2)
        if denom < DEGENERACY_THRESHOLD * ak2:
            raise DegenerateParameters(
                f"parameters sit on the 2|k|=|dk| resonance: "
                f"|4|k|^2 - dk^2| = {denom:.3e} < "
                f"{DEGENERACY_THRESHOLD:.1e} * |k|^2"
            )


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

    @property
    def spontaneous(self) -> bool:
        """True when the second-harmonic input is empty (|gamma| = 0)."""
        return self.gamma == 0

    @property
    def phi(self) -> float:
        return cmath.phase(complex(self.gamma))

    def with_phi(self, phi: float) -> "CoherentInputs":
        """Same inputs with gamma's phase replaced, magnitude kept."""
        mag = abs(complex(self.gamma))
        return CoherentInputs(self.alpha, self.beta, mag * cmath.exp(1j * phi))
