"""Exact propagation in a truncated three-mode Fock basis.

This is the non-perturbative validation oracle.  The state evolves by the
z-ordered exponential of +i G(z)/hbar with

    G/hbar = -k a b1^ - gamma_nl b1^2 b2^ exp(i dk z) + H.c.

The sign convention reproduces the closed-form linear-coupler solution
(f1, f2) in the gamma_nl = 0 limit.  G(z) depends on z only through the
phase exp(i dk z), which the frame psi = exp(i dk z N_b2) phi removes: phi
evolves under the constant generator A = G(0) - dk N_b2.  One exponential
of A followed by the diagonal frame phase is therefore exact up to
rounding, with no step size or tolerance to choose.

The exponential acts on the state through a substepped Taylor sum (the
action of the matrix exponential; Al-Mohy & Higham, SIAM J. Sci. Comput.
33 (2011) 488).  A is applied as one gather and one row sum over the
ladder table of `kernels`, with the couplings and the Taylor factor
i dz/s multiplied into the table once per propagation.  rho_total, the
largest absolute row sum of A dz, bounds its 2-norm (A is Hermitian);
the s = ceil(rho_total / theta) substeps each have norm rho <= theta, and
a substep's sum stops once (e^rho - 1) * ||term||, a bound on all the
terms not yet added, is at most 1e-16 * ||sum||.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcessiveTruncationLoss, InvalidParameters, NonConvergence
from .kernels import apply_generator as _apply_kernel
from .kernels import generator_table, term_coefficients
from .params import CoherentInputs, CouplerParams, check_length

# Per-mode probability mass that may be lost to truncation before the
# state (or a propagation) is rejected as unreliable.
TRUNCATION_LOSS_LIMIT = 1e-6

# Largest norm bound theta of one Taylor substep.  Longer substeps need
# fewer matvecs in all, but a substep's terms can peak near
# theta^theta / theta! times the state (11x at 4, 416x at 8), and their
# rounding with them; past 4 the oracle benchmark's rounds ran no faster.
_TAYLOR_SUBSTEP_NORM = 4.0
# Bound on the Taylor tail left out of a substep, relative to its sum.
_TAYLOR_TAIL_TOL = 1e-16
_TAYLOR_MAX_TERMS = 300

# Largest basis a TruncationSpec may span.  A propagation peaks at about
# 300 B per basis state: the ladder table (5 int64 columns and 5 float
# magnitudes, 80 B, cached for the last 4 truncations used), its complex
# values and the gathered amplitudes of one matvec (80 B each), and a few
# complex state vectors (16 B each); about 1.2 GB at the limit.
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
    # (<N_a>, <N_b1>, <N_b2>) of final_state, as mode_expectations gives them
    expectations: tuple[float, float, float]


class _Workspace:
    """Ladder table and occupation grids of one truncation (read-only)."""

    def __init__(self, truncation: TruncationSpec):
        da, d1, d2 = truncation.shape
        self.cols, self.mags = generator_table(truncation.shape)
        na, n1, n2 = np.ogrid[0:da, 0:d1, 0:d2]
        self.number_a = na.astype(float)
        self.number_b1 = n1.astype(float)
        self.number_b2 = n2.astype(float)
        for table in (self.cols, self.mags, self.number_a, self.number_b1,
                      self.number_b2):
            table.flags.writeable = False


@functools.lru_cache(maxsize=4)
def _workspace(truncation: TruncationSpec) -> _Workspace:
    return _Workspace(truncation)


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
    ws = _workspace(state.truncation)
    x = np.ascontiguousarray(state.grid(), dtype=complex)
    out = np.empty_like(x)
    neg_g = -complex(params.gamma_nl) * np.exp(1j * params.delta_k * z)
    vals = ws.mags * term_coefficients(0.0, -complex(params.k), neg_g)
    _apply_kernel(x, out, ws.cols, vals)
    return FockStateVector(
        amplitudes=out.ravel(), truncation=state.truncation, norm_deficit=0.0
    )


def _expm_step(ws, k, gamma_nl, delta_k, dz, psi):
    """psi <- exp(i dz (G(0)/hbar - dk N_b2)) psi in place via a substepped
    Taylor sum; returns the number of substeps."""
    coeffs = term_coefficients(-delta_k, -complex(k), -complex(gamma_nl))
    # largest absolute row sum of the Hermitian generator times |dz|
    rho_total = abs(dz) * float(np.max(ws.mags @ np.abs(coeffs)))
    substeps = max(1, math.ceil(rho_total / _TAYLOR_SUBSTEP_NORM))
    # (e^rho - 1) ||term|| bounds every term after `term`
    tail_sq = math.expm1(rho_total / substeps) ** 2
    tol_sq = _TAYLOR_TAIL_TOL**2
    vals = ws.mags * (coeffs * (1j * dz / substeps))
    term = np.empty_like(psi)
    scratch = np.empty_like(psi)
    for _ in range(substeps):
        np.copyto(term, psi)
        for order in range(1, _TAYLOR_MAX_TERMS + 1):
            _apply_kernel(term, scratch, ws.cols, vals)
            term, scratch = scratch, term
            term *= 1.0 / order
            psi += term
            if tail_sq * np.vdot(term, term).real <= tol_sq * np.vdot(psi, psi).real:
                break
        else:
            raise NonConvergence("Taylor exponential did not converge")
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
    ws = _workspace(truncation)
    psi = state0.grid().copy()
    n0 = _expectations(ws, psi)

    if z_final == 0:
        return PropagationReport(
            final_state=state0, steps_used=1, norm_drift=0.0,
            conservation_drift=0.0, expectations=n0,
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
        expectations=(na, n1, n2),
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
    return _expectations(_workspace(state.truncation), state.grid())


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
    return full.expectations[2] - ref.expectations[2]
