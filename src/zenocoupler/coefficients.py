"""Closed-form spatial coefficients of the first-order perturbative solution.

The twelve coefficients (f1..f4, g1..g4, h1..h4) give the evolved field
operators as combinations of the z=0 operators:

    a(z)  = f1 a + f2 b1 + f3 b1^ b2 + f4 a^ b2
    b1(z) = g1 a + g2 b1 + g3 b1^ b2 + g4 a^ b2
    b2(z) = h1 b2 + h2 b1^2 + h3 b1 a + h4 a^2

f1, f2, g1, g2 are the linear coupler's solution and h1 = 1.  The others
are first order in Gamma and come from z'-integrals of that solution:

- db2/dz = -i Gamma e^{i dk z} b1(z)^2, so h2, h3, h4 integrate the
  products of g1 and g2 against e^{i dk z'};
- d(a, b1)/dz is the linear coupler plus (0, -2i Gamma* e^{-i dk z} b1^ b2),
  so f3, f4, g3, g4 follow from Duhamel's formula.

Each product of linear solutions is a sum of e^{+-i|k|z'} and 1, so every
integral is one of int_0^z e^{i w z'} dz' = i D(w), with w in {dk,
dk + 2|k|, dk - 2|k|} and

    D(w) = (1 - e^{i w z}) / w = -i z e^{i w z/2} sinc(w z/2),

with D(-w) = -conj(D(w)).  D is entire in w: no mismatch, including
dk = 0 and the 2|k| = |dk| resonance, divides by zero or cancels.

`compute_coefficients` and `compute_h2_prime` take z as a float or as a
1-D float array.  A float z is evaluated with `cmath`/`math`; an array z
elementwise with numpy in one pass.  Both use the same expressions and
agree to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import CouplerParams, check_length


@dataclass(frozen=True)
class ModeCoefficients:
    """The twelve coefficients evaluated at propagation distance z."""

    z: float | np.ndarray
    f: tuple[complex, complex, complex, complex]
    g: tuple[complex, complex, complex, complex]
    h: tuple[complex, complex, complex, complex]


def _d(w: float, z):
    """D(w) = (1 - e^{i w z}) / w at a float z, or elementwise over an
    array z; D(0) = -i z."""
    x = 0.5 * w * z
    if isinstance(z, np.ndarray):
        sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
        return -1j * z * np.exp(1j * x) * sinc
    return -1j * z * cmath.exp(1j * x) * (math.sin(x) / x if x else 1.0)


def compute_coefficients(params: CouplerParams, z) -> ModeCoefficients:
    """Evaluate all twelve coefficients at distance z >= 0, a float or a
    1-D float array (each coefficient then has z's shape; h1 = 1 stays a
    scalar)."""
    dk, ak = float(params.delta_k), abs(complex(params.k))
    check_length(z, abs(dk) + 2.0 * ak)
    exp = np.exp if isinstance(z, np.ndarray) else cmath.exp
    u = complex(params.k).conjugate() / ak
    gam = complex(params.gamma_nl)
    gc = gam.conjugate()

    ep = exp(1j * ak * z)
    em = ep.conjugate()
    d0, dp, dm = _d(dk, z), _d(dk + 2.0 * ak, z), _d(dk - 2.0 * ak, z)

    f1 = ep.real + 0j
    f2 = -1j * u * ep.imag
    g1 = -f2.conjugate()
    g2 = f1

    h2 = gam * (d0 / 2.0 + (dp + dm) / 4.0)
    h3 = -gam * u.conjugate() / 2.0 * (dp - dm)
    h4 = -gam * u.conjugate() ** 2 * (d0 / 2.0 - (dp + dm) / 4.0)

    d0c, dpc, dmc = d0.conjugate(), dp.conjugate(), dm.conjugate()
    p, q = ep * (d0c + dpc), em * (d0c + dmc)
    r, t = ep * (d0c - dpc), em * (d0c - dmc)
    f3 = gc * u * (p - q) / 2.0
    g3 = -gc * (p + q) / 2.0
    f4 = gc * u * u * (r + t) / 2.0
    g4 = -gc * u * (r - t) / 2.0

    return ModeCoefficients(
        z=z, f=(f1, f2, f3, f4), g=(g1, g2, g3, g4), h=(1.0 + 0j, h2, h3, h4))


def compute_h2_prime(gamma_nl: complex, delta_k: float, z):
    """Uncoupled-reference coefficient h2' = h2(k=0) = Gamma D(dk), for a
    float z or elementwise for a 1-D float array z; at dk = 0 it is
    -i Gamma z."""
    dk = float(delta_k)
    check_length(z, abs(dk))
    return complex(gamma_nl) * _d(dk, z)
