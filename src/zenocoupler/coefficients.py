"""Closed-form spatial coefficients of the first-order perturbative solution.

The twelve coefficients (f1..f4, g1..g4, h1..h4) give the evolved field
operators as combinations of the z=0 operators:

    a(z)  = f1 a + f2 b1 + f3 b1^ b2 + f4 a^ b2
    b1(z) = g1 a + g2 b1 + g3 b1^ b2 + g4 a^ b2
    b2(z) = h1 b2 + h2 b1^2 + h3 b1 a + h4 a^2

with G+- = 1 +- exp(-i dk z).  Every division by dk has a finite dk -> 0
limit; those quotients are routed through series helpers below the switch
threshold to avoid catastrophic cancellation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .params import CouplerParams, check_length

# Switch dk-division terms to a second-order series when both the total
# accumulated phase and the mismatch-to-coupling ratio are tiny.
SERIES_SWITCH_PHASE = 1e-6
SERIES_SWITCH_RATIO = 1e-6


@dataclass(frozen=True)
class ModeCoefficients:
    """The twelve coefficients evaluated at propagation distance z."""

    z: float
    f: tuple[complex, complex, complex, complex]
    g: tuple[complex, complex, complex, complex]
    h: tuple[complex, complex, complex, complex]


def g_pm(delta_k: float, z: float) -> tuple[complex, complex]:
    """Return (G-, G+) = (1 - exp(-i dk z), 1 + exp(-i dk z))."""
    e = cmath.exp(-1j * delta_k * z)
    return 1.0 - e, 1.0 + e


def _use_series(delta_k: float, z: float, k_mag: float) -> bool:
    return (
        abs(delta_k * z) < SERIES_SWITCH_PHASE
        and abs(delta_k) < SERIES_SWITCH_RATIO * k_mag
    )


def _gm_over_dk(delta_k: float, z: float, series: bool) -> complex:
    """(1 - exp(-i dk z)) / dk, finite as dk -> 0 (limit i z)."""
    if series:
        return 1j * z + delta_k * z**2 / 2.0 - 1j * delta_k**2 * z**3 / 6.0
    return (1.0 - cmath.exp(-1j * delta_k * z)) / delta_k


def _gmc_over_dk(delta_k: float, z: float, series: bool) -> complex:
    """(1 - exp(+i dk z)) / dk, finite as dk -> 0 (limit -i z)."""
    if series:
        return -1j * z + delta_k * z**2 / 2.0 + 1j * delta_k**2 * z**3 / 6.0
    return (1.0 - cmath.exp(1j * delta_k * z)) / delta_k


def compute_coefficients(params: CouplerParams, z: float) -> ModeCoefficients:
    """Evaluate all twelve coefficients at distance z >= 0."""
    check_length(z)
    k = complex(params.k)
    kc = k.conjugate()
    gc = complex(params.gamma_nl).conjugate()
    gam = complex(params.gamma_nl)
    dk = float(params.delta_k)
    ak = abs(k)
    ak2 = ak * ak
    denom = 4.0 * ak2 - dk * dk

    series = _use_series(dk, z, ak)
    exp_m = cmath.exp(-1j * dk * z)
    gm = 1.0 - exp_m
    gp = 1.0 + exp_m
    gm_dk = _gm_over_dk(dk, z, series)
    gmc_dk = _gmc_over_dk(dk, z, series)

    f1 = math.cos(ak * z) + 0j
    f2 = -1j * kc / ak * math.sin(ak * z)
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

    # h coefficients use the conjugates G-* and (G+* - 1) = exp(+i dk z).
    exp_p = exp_m.conjugate()
    s2 = math.sin(2.0 * ak * z)
    c2 = math.cos(2.0 * ak * z)
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


def compute_h2_prime(gamma_nl: complex, delta_k: float, z: float) -> complex:
    """Uncoupled-reference coefficient h2' = h2(k=0) = Gamma (1 - e^{i dk z}) / dk.

    The dk -> 0 removable limit is -i Gamma z.
    """
    check_length(z)
    series = abs(delta_k * z) < SERIES_SWITCH_PHASE
    return complex(gamma_nl) * _gmc_over_dk(float(delta_k), float(z), series)
