"""Coherent-state photon-number expectations and the Zeno parameter.

For the multimode coherent input |alpha>|beta>|gamma> the second-harmonic
mean photon number is

    <N_b2(z)> = |gamma|^2 + 2 Re[(h2 beta^2 + h3 alpha beta + h4 alpha^2) gamma*]

and the Zeno parameter is the excess over the probe-free (k=0, alpha=0)
reference.  Negative values signal the quantum Zeno effect, positive
values the anti-Zeno effect.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import compute_coefficients, compute_h2_prime
from .errors import InternalConsistencyError, InvalidParameters
from .params import CoherentInputs, CouplerParams

DEFAULT_CLASSIFICATION_TOL = 1e-12

# Largest imaginary residue tolerated in an X + conj(X) construction.
_IMAG_RESIDUE_TOL = 1e-10


class Classification(str, enum.Enum):
    ZENO = "Zeno"
    ANTI_ZENO = "AntiZeno"
    NULL = "Null"


@dataclass(frozen=True)
class ZenoSample:
    """One evaluated point of the Zeno-parameter scan."""

    z: float
    n_b2: float
    n_b2_uncoupled: float
    delta_n_z: float
    classification: Classification


def _real_pair_sum(x):
    """Return x + conj(x) as a real number (a real array for an array x),
    guarding the residue."""
    total = x + x.conjugate()
    residue = abs(total.imag)
    if isinstance(residue, np.ndarray):
        residue = residue.max()
    if residue > _IMAG_RESIDUE_TOL:
        raise InternalConsistencyError(
            f"imaginary residue {residue:.3e} in a real-by-construction sum"
        )
    return total.real


def _amplitudes(inputs: CoherentInputs) -> tuple[complex, complex, complex]:
    return complex(inputs.alpha), complex(inputs.beta), complex(inputs.gamma)


# The three second-harmonic expressions, from given coefficients; each
# works elementwise when the coefficients are arrays.
def _n_b2(h, a: complex, b: complex, g: complex):
    _, h2, h3, h4 = h
    cross = (h2 * b * b + h3 * a * b + h4 * a * a) * g.conjugate()
    return abs(g) ** 2 + _real_pair_sum(cross)


def _n_b2_uncoupled(h2p, b: complex, g: complex):
    return abs(g) ** 2 + _real_pair_sum(h2p * b * b * g.conjugate())


def _delta_n_z(h, h2p, a: complex, b: complex, g: complex):
    # its own cross term in (h2 - h2'), not a difference of the two means
    _, h2, h3, h4 = h
    cross = ((h2 - h2p) * b * b + h3 * a * b + h4 * a * a) * g.conjugate()
    return _real_pair_sum(cross)


def _b2_numbers(params: CouplerParams, inputs: CoherentInputs, z):
    """(<N_b2>, <N_b2>_{k=0}, dN_Z) at a float z, or as arrays over a 1-D
    array z, from one coefficient and one h2' evaluation."""
    h = compute_coefficients(params, z).h
    h2p = compute_h2_prime(params.gamma_nl, params.delta_k, z)
    a, b, g = _amplitudes(inputs)
    return _n_b2(h, a, b, g), _n_b2_uncoupled(h2p, b, g), _delta_n_z(h, h2p, a, b, g)


def mean_photon_b2(params: CouplerParams, inputs: CoherentInputs, z: float) -> float:
    """Mean photon number of the second-harmonic mode at distance z."""
    return _n_b2(compute_coefficients(params, z).h, *_amplitudes(inputs))


def mean_photon_b2_uncoupled(
    gamma_nl: complex, delta_k: float, inputs: CoherentInputs, z: float
) -> float:
    """Probe-free reference <N_b2(z)> at k=0 and alpha=0 (alpha is ignored)."""
    _, b, g = _amplitudes(inputs)
    return _n_b2_uncoupled(compute_h2_prime(gamma_nl, delta_k, z), b, g)


def zeno_parameter(params: CouplerParams, inputs: CoherentInputs, z: float) -> float:
    """Zeno parameter dN_Z = <N_b2(z)> - <N_b2(z)>_{k=0}."""
    h = compute_coefficients(params, z).h
    h2p = compute_h2_prime(params.gamma_nl, params.delta_k, z)
    return _delta_n_z(h, h2p, *_amplitudes(inputs))


def classify(delta_n_z: float, tol: float = DEFAULT_CLASSIFICATION_TOL) -> Classification:
    """Sign classification of the Zeno parameter at absolute tolerance tol."""
    if not tol >= 0:
        raise InvalidParameters(f"tol must be non-negative, got {tol}")
    if not math.isfinite(delta_n_z):
        raise InvalidParameters(
            f"cannot classify a non-finite Zeno parameter ({delta_n_z})"
        )
    if delta_n_z < -tol:
        return Classification.ZENO
    if delta_n_z > tol:
        return Classification.ANTI_ZENO
    return Classification.NULL


def zeno_sample(
    params: CouplerParams,
    inputs: CoherentInputs,
    z: float,
    tol: float = DEFAULT_CLASSIFICATION_TOL,
) -> ZenoSample:
    """Evaluate one ZenoSample record at distance z."""
    n_b2, n_ref, dnz = _b2_numbers(params, inputs, z)
    return ZenoSample(
        z=z,
        n_b2=n_b2,
        n_b2_uncoupled=n_ref,
        delta_n_z=dnz,
        classification=classify(dnz, tol),
    )


def mode_means(
    params: CouplerParams, inputs: CoherentInputs, z: float
) -> tuple[float, float, float]:
    """(<N_a>, <N_b1>, <N_b2>) at distance z, to first order in gamma_nl.

    The combination <N_a> + <N_b1> + 2 <N_b2> is conserved by these
    expressions (used as a consistency diagnostic).
    """
    c = compute_coefficients(params, z)
    f1, f2, f3, f4 = c.f
    g1, g2, g3, g4 = c.g
    a, b, g = _amplitudes(inputs)

    lin_a = f1 * a + f2 * b
    lin_b1 = g1 * a + g2 * b
    n_a = abs(lin_a) ** 2 + _real_pair_sum(
        g * lin_a.conjugate() * (f3 * b.conjugate() + f4 * a.conjugate())
    )
    n_b1 = abs(lin_b1) ** 2 + _real_pair_sum(
        g * lin_b1.conjugate() * (g3 * b.conjugate() + g4 * a.conjugate())
    )
    return n_a, n_b1, _n_b2(c.h, a, b, g)
