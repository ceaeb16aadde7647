"""Exact propagation in a truncated three-mode Fock basis.

This is the non-perturbative validation oracle.  The state evolves by the
z-ordered exponential of +i G(z)/hbar with

    G/hbar = -k a b1^ - gamma_nl b1^2 b2^ exp(i dk z) + H.c.

The sign convention reproduces the closed-form linear-coupler solution
(f1, f2) in the gamma_nl = 0 limit.  G(z) depends on z only through the
phase exp(i dk z), which the frame psi = exp(i dk z N_b2) phi removes: phi
evolves under the constant generator G(0) - dk N_b2.  One exponential of
that generator, acting on the state through a substepped Taylor sum (the
action of the matrix exponential; Al-Mohy & Higham, SIAM J. Sci. Comput.
33 (2011) 488), followed by the diagonal frame phase, is therefore exact
up to rounding, with no step size or tolerance to choose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcessiveTruncationLoss, InvalidParameters, NonConvergence
from .kernels import apply_generator as _apply_kernel
from .params import CoherentInputs, CouplerParams, check_length

# Per-mode probability mass that may be lost to truncation before the
# state (or a propagation) is rejected as unreliable.
TRUNCATION_LOSS_LIMIT = 1e-6

# Relative size at which a Taylor term is considered converged; the terms
# decay factorially once the substep norm is <= 1, so the tail is of the
# same order as the last kept term.
_TAYLOR_TERM_TOL = 1e-16
_TAYLOR_MAX_TERMS = 300

# Largest basis a TruncationSpec may span (64 MB per complex state vector).
MAX_BASIS_DIMENSION = 4_000_000


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode occupation cutoffs (0..max inclusive)."""

    n_a_max: int
    n_b1_max: int
    n_b2_max: int

    def __post_init__(self):
        if min(self.n_a_max, self.n_b1_max, self.n_b2_max) < 1:
            raise InvalidParameters("every cutoff must be >= 1")
        if self.dimension > MAX_BASIS_DIMENSION:
            raise InvalidParameters(
                f"basis dimension {self.dimension} exceeds the memory guard "
                f"({MAX_BASIS_DIMENSION})"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_a_max + 1, self.n_b1_max + 1, self.n_b2_max + 1)

    @property
    def dimension(self) -> int:
        da, d1, d2 = self.shape
        return da * d1 * d2


@dataclass(frozen=True)
class FockStateVector:
    """Amplitudes over the truncated basis, row-major in (n_a, n_b1, n_b2)."""

    amplitudes: np.ndarray
    truncation: TruncationSpec
    norm_deficit: float = 0.0

    def grid(self) -> np.ndarray:
        """3-D view of the amplitude vector."""
        return self.amplitudes.reshape(self.truncation.shape)


@dataclass(frozen=True)
class PropagationReport:
    final_state: FockStateVector
    steps_used: int  # Taylor substeps of the exponential; 1 at z = 0
    norm_drift: float
    conservation_drift: float


class _Workspace:
    """Precomputed occupation tables for one truncation."""

    def __init__(self, truncation: TruncationSpec):
        da, d1, d2 = truncation.shape
        self.shape = (da, d1, d2)
        self.sa = np.sqrt(np.arange(da, dtype=float))
        self.s1 = np.sqrt(np.arange(d1, dtype=float))
        self.s2 = np.sqrt(np.arange(d2, dtype=float))
        j = np.arange(d1, dtype=float)
        self.w1 = np.sqrt((j + 1.0) * (j + 2.0))
        na, n1, n2 = np.ogrid[0:da, 0:d1, 0:d2]
        self.number_a = na.astype(float)
        self.number_b1 = n1.astype(float)
        self.number_b2 = n2.astype(float)

    def norm_bound(self, k: complex, gamma_nl: complex, delta_k: float) -> float:
        """Upper bound on the operator norm of G(0)/hbar - dk N_b2."""
        da, d1, d2 = self.shape
        lin = 2.0 * abs(k) * math.sqrt((da - 1) * d1)
        nl = 2.0 * abs(gamma_nl) * self.w1[-1] * math.sqrt(d2 - 1)
        return lin + nl + abs(delta_k) * (d2 - 1)


def _coherent_amplitudes(mu: complex, n_max: int) -> tuple[np.ndarray, float]:
    """Truncated coherent expansion and its tail probability."""
    c = np.empty(n_max + 1, dtype=complex)
    c[0] = math.exp(-abs(mu) ** 2 / 2.0)
    for n in range(1, n_max + 1):
        c[n] = c[n - 1] * mu / math.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(c) ** 2))
    return c, max(tail, 0.0)


def build_coherent_state(
    inputs: CoherentInputs, truncation: TruncationSpec
) -> FockStateVector:
    """Tensor product of truncated coherent expansions, renormalized."""
    mus = (inputs.alpha, inputs.beta, inputs.gamma)
    maxes = (truncation.n_a_max, truncation.n_b1_max, truncation.n_b2_max)
    vecs = []
    kept_mass = 1.0
    for mode, (mu, n_max) in enumerate(zip(mus, maxes)):
        c, tail = _coherent_amplitudes(complex(mu), n_max)
        if tail > TRUNCATION_LOSS_LIMIT:
            raise ExcessiveTruncationLoss(
                f"mode {('a', 'b1', 'b2')[mode]} tail probability {tail:.3e} "
                f"exceeds {TRUNCATION_LOSS_LIMIT:.0e} at cutoff {n_max}"
            )
        kept_mass *= 1.0 - tail
        vecs.append(c)
    psi = np.einsum("i,j,k->ijk", *vecs).ravel()
    psi /= np.linalg.norm(psi)
    return FockStateVector(
        amplitudes=psi, truncation=truncation, norm_deficit=1.0 - kept_mass
    )


def apply_generator(
    params: CouplerParams, z: float, state: FockStateVector
) -> FockStateVector:
    """Return (G(z)/hbar) applied to the state (not normalized)."""
    ws = _Workspace(state.truncation)
    x = np.ascontiguousarray(state.grid())
    out = np.empty_like(x)
    neg_g = -complex(params.gamma_nl) * np.exp(1j * params.delta_k * z)
    _apply_kernel(x, out, -complex(params.k), neg_g, ws.sa, ws.s1, ws.s2, ws.w1)
    return FockStateVector(
        amplitudes=out.ravel(), truncation=state.truncation, norm_deficit=0.0
    )


def _expm_step(ws, k, gamma_nl, delta_k, dz, psi):
    """psi <- exp(i dz (G(0)/hbar - dk N_b2)) psi in place via a substepped
    Taylor sum; returns the number of substeps."""
    substeps = max(1, math.ceil(abs(dz) * ws.norm_bound(k, gamma_nl, delta_k)))
    factor = 1j * dz / substeps
    neg_k, neg_g = -complex(k), -complex(gamma_nl)
    shift = delta_k * ws.number_b2
    term = np.empty_like(psi)
    scratch = np.empty_like(psi)
    for _ in range(substeps):
        total = psi.copy()
        np.copyto(term, psi)
        for order in range(1, _TAYLOR_MAX_TERMS + 1):
            _apply_kernel(term, scratch, neg_k, neg_g, ws.sa, ws.s1, ws.s2, ws.w1)
            scratch -= shift * term
            term, scratch = scratch, term
            term *= factor / order
            total += term
            if np.linalg.norm(term.ravel()) <= _TAYLOR_TERM_TOL * np.linalg.norm(
                total.ravel()
            ):
                break
        else:
            raise NonConvergence("Taylor exponential did not converge")
        np.copyto(psi, total)
    return substeps


def _expectations(ws, psi):
    p = np.abs(psi) ** 2
    return (
        float(np.sum(ws.number_a * p)),
        float(np.sum(ws.number_b1 * p)),
        float(np.sum(ws.number_b2 * p)),
    )


def _boundary_mass(psi) -> float:
    p = np.abs(psi) ** 2
    return float(np.sum(p[-1, :, :]) + np.sum(p[:, -1, :]) + np.sum(p[:, :, -1]))


def _propagate_raw(
    k: complex,
    gamma_nl: complex,
    delta_k: float,
    inputs: CoherentInputs,
    z_final: float,
    truncation: TruncationSpec,
) -> PropagationReport:
    check_length(z_final)
    state0 = build_coherent_state(inputs, truncation)
    ws = _Workspace(truncation)
    psi = state0.grid().copy()
    n0 = _expectations(ws, psi)

    if z_final == 0:
        return PropagationReport(
            final_state=state0, steps_used=1, norm_drift=0.0, conservation_drift=0.0
        )

    substeps = _expm_step(ws, k, gamma_nl, delta_k, z_final, psi)
    psi *= np.exp(1j * delta_k * z_final * ws.number_b2)

    leak = _boundary_mass(psi)
    if leak > TRUNCATION_LOSS_LIMIT:
        raise ExcessiveTruncationLoss(
            f"boundary-occupation probability {leak:.3e} exceeds "
            f"{TRUNCATION_LOSS_LIMIT:.0e}; increase the cutoffs"
        )
    na, n1, n2 = _expectations(ws, psi)
    na0, n10, n20 = n0
    final = FockStateVector(
        amplitudes=psi.ravel(), truncation=truncation, norm_deficit=state0.norm_deficit
    )
    return PropagationReport(
        final_state=final,
        steps_used=substeps,
        norm_drift=abs(float(np.linalg.norm(psi.ravel())) - 1.0),
        conservation_drift=abs((na + n1 + 2 * n2) - (na0 + n10 + 2 * n20)),
    )


def propagate(
    params: CouplerParams,
    inputs: CoherentInputs,
    z_final: float,
    truncation: TruncationSpec,
) -> PropagationReport:
    """Propagate the coherent input exactly (up to rounding) to z_final."""
    return _propagate_raw(
        params.k, params.gamma_nl, params.delta_k, inputs, z_final, truncation
    )


def mode_expectations(state: FockStateVector) -> tuple[float, float, float]:
    """(<N_a>, <N_b1>, <N_b2>) of a Fock state vector."""
    ws = _Workspace(state.truncation)
    return _expectations(ws, state.grid())


def oracle_zeno_parameter(
    params: CouplerParams,
    inputs: CoherentInputs,
    z_final: float,
    truncation: TruncationSpec,
) -> float:
    """Exact Zeno parameter: <N_b2> difference between the full system and
    the probe-free reference (k=0, alpha=0)."""
    full = _propagate_raw(
        params.k, params.gamma_nl, params.delta_k, inputs, z_final, truncation
    )
    ref_inputs = CoherentInputs(alpha=0.0, beta=inputs.beta, gamma=inputs.gamma)
    ref = _propagate_raw(
        0.0, params.gamma_nl, params.delta_k, ref_inputs, z_final, truncation
    )
    return mode_expectations(full.final_state)[2] - mode_expectations(ref.final_state)[2]
