"""Closed-form spatial coefficients of the first-order perturbative solution.

The twelve coefficients (f1..f4, g1..g4, h1..h4) give the evolved field
operators as combinations of the z=0 operators:

    a(z)  = f1 a + f2 b1 + f3 b1^ b2 + f4 a^ b2
    b1(z) = g1 a + g2 b1 + g3 b1^ b2 + g4 a^ b2
    b2(z) = h1 b2 + h2 b1^2 + h3 b1 a + h4 a^2

with G+- = 1 +- exp(-i dk z).  Every division by dk has a finite dk -> 0
limit; those quotients are routed through a series below the switch
threshold to avoid catastrophic cancellation.

`compute_coefficients` and `compute_h2_prime` take z as a float or as a
1-D float array.  A float z is evaluated with `cmath`/`math`, and the
series switch is an `if`; an array z is evaluated elementwise with numpy
in one pass, and the series overwrites the elements the switch gives it,
so one array may mix series and closed-form cells.  Both use the same
expressions and agree to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import CouplerParams, check_length

# Switch dk-division terms to a second-order series when both the total
# accumulated phase and the mismatch-to-coupling ratio are tiny.
SERIES_SWITCH_PHASE = 1e-6
SERIES_SWITCH_RATIO = 1e-6


@dataclass(frozen=True)
class ModeCoefficients:
    """The twelve coefficients evaluated at propagation distance z."""

    z: float | np.ndarray
    f: tuple[complex, complex, complex, complex]
    g: tuple[complex, complex, complex, complex]
    h: tuple[complex, complex, complex, complex]


def _use_series(delta_k: float, z, k_mag: float):
    """Whether the dk-division terms take their series: a bool for a float
    z, False or a bool array for an array z."""
    return (
        abs(delta_k) < SERIES_SWITCH_RATIO * k_mag
        and abs(delta_k * z) < SERIES_SWITCH_PHASE
    )


def _series_gmc_over_dk(delta_k: float, z):
    """Series of (1 - exp(+i dk z)) / dk about dk = 0 (limit -i z), in the
    small phase p = dk z, so that no power of z alone can overflow."""
    p = delta_k * z
    return -1j * z + z * p / 2.0 + 1j * z * p**2 / 6.0


def _scalar_over_dk(series_fn, numerator: complex, delta_k: float, z: float, series: bool):
    """numerator / dk, or its series where the switch says so."""
    if series:
        return series_fn(delta_k, z)
    return numerator / delta_k


def _array_over_dk(series_fn, numerator, delta_k: float, z, series):
    """Elementwise numerator / dk, with the series on the elements the switch
    gives it (only there, so it never sees a z far past its range); the
    division there may be 0/0 (errors suppressed) before it is replaced."""
    out = numerator / delta_k
    if np.any(series):
        out[series] = series_fn(delta_k, z[series])
    return out


# (exp, cos, sin, dk-quotient select) for a float z and for an array z
_SCALAR_OPS = (cmath.exp, math.cos, math.sin, _scalar_over_dk)
_ARRAY_OPS = (np.exp, np.cos, np.sin, _array_over_dk)


def compute_coefficients(params: CouplerParams, z) -> ModeCoefficients:
    """Evaluate all twelve coefficients at distance z >= 0, a float or a
    1-D float array (each coefficient then has z's shape; h1 = 1 stays a
    scalar)."""
    check_length(z)
    if isinstance(z, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return _coefficients(params, z, _ARRAY_OPS)
    return _coefficients(params, z, _SCALAR_OPS)


def _coefficients(params: CouplerParams, z, ops) -> ModeCoefficients:
    exp, cos, sin, over_dk = ops
    k = complex(params.k)
    kc = k.conjugate()
    gc = complex(params.gamma_nl).conjugate()
    gam = complex(params.gamma_nl)
    dk = float(params.delta_k)
    ak = abs(k)
    ak2 = ak * ak
    denom = 4.0 * ak2 - dk * dk

    series = _use_series(dk, z, ak)
    exp_m = exp(-1j * dk * z)
    # h coefficients use the conjugates G-* and (G+* - 1) = exp(+i dk z).
    # dk is real, so G-/dk is the conjugate of G-*/dk (up to the sign of a
    # zero imaginary part at z = 0).
    exp_p = exp_m.conjugate()
    gm = 1.0 - exp_m
    gp = 1.0 + exp_m
    gmc_dk = over_dk(_series_gmc_over_dk, 1.0 - exp_p, dk, z, series)
    gm_dk = gmc_dk.conjugate()

    f1 = cos(ak * z) + 0j
    f2 = -1j * kc / ak * sin(ak * z)
    g1 = -f2.conjugate()
    g2 = f1

    f3 = (2.0 * kc * gc / denom) * (gm * f1 + (f2 / kc) * (dk - 2.0 * ak2 * gm_dk))
    f4 = (4.0 * kc * kc * gc / denom) * gm_dk * f1 + (2.0 * kc * gc / denom) * gp * f2
    g3 = (2.0 * gc * k / denom) * gp * f2 - (
        2.0 * gc * (2.0 * ak2 - dk * dk) * f1 / denom
    ) * gm_dk
    # The first two printed g4 terms share the 1/dk pole; combined they are
    # (2 gc f2 / denom) * (2|k|^2 G-/dk + dk exp(-i dk z)), which is finite.
    g4 = (2.0 * gc * f2 / denom) * (2.0 * ak2 * gm_dk + dk * exp_m) + (
        2.0 * kc * gc / denom
    ) * gm * f1

    s2 = sin(2.0 * ak * z)
    c2 = cos(2.0 * ak * z)
    brace = 2.0 * ak * exp_p * s2 - 1j * dk * (1.0 - exp_p * c2)
    h1 = 1.0 + 0j
    h2 = gam * gmc_dk / 2.0 - 1j * gam / (2.0 * denom) * brace
    h3 = (-gam * ak / (kc * denom)) * (
        1j * dk * exp_p * s2 + 2.0 * ak * (1.0 - exp_p * c2)
    )
    h4 = -gam * ak2 * gmc_dk / (2.0 * kc * kc) - 1j * gam * ak2 / (
        2.0 * kc * kc * denom
    ) * brace

    return ModeCoefficients(z=z, f=(f1, f2, f3, f4), g=(g1, g2, g3, g4), h=(h1, h2, h3, h4))


def compute_h2_prime(gamma_nl: complex, delta_k: float, z):
    """Uncoupled-reference coefficient h2' = h2(k=0) = Gamma (1 - e^{i dk z}) / dk,
    for a float z or elementwise for a 1-D float array z.

    The dk -> 0 removable limit is -i Gamma z.
    """
    check_length(z)
    dk = float(delta_k)
    if isinstance(z, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return complex(gamma_nl) * _h2_prime_over_gamma(dk, z, _ARRAY_OPS)
    return complex(gamma_nl) * _h2_prime_over_gamma(dk, z, _SCALAR_OPS)


def _h2_prime_over_gamma(dk: float, z, ops):
    exp, _, _, over_dk = ops
    series = abs(dk * z) < SERIES_SWITCH_PHASE
    return over_dk(_series_gmc_over_dk, 1.0 - exp(1j * dk * z), dk, z, series)
