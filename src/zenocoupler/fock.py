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

The exponential acts on the state through a Chebyshev expansion (Tal-Ezer
& Kosloff, J. Chem. Phys. 81 (1984) 3967).  A is applied as one gather,
one product and one sum over the five terms of the (5, D) ladder table of
`kernels`.  The table's Gershgorin discs give an interval [c - h, c + h]
holding the spectrum of the Hermitian A dz, so X = (A dz - c)/h has its
spectrum in [-1, 1] and

    exp(i A dz) = e^{ic} (J_0(h) + 2 sum_{n>=1} i^n J_n(h) T_n(X))

(Jacobi-Anger).  Since |J_n(h)| <= (h/2)^n / n! and ||T_n(X)|| <= 1, a
degree is fixed before any matvec as the first at which that bound on
the left-out terms is at most 1e-16.  That bound is loose once h is
large (it puts the degree near e h/2, where the J_n fall below 1e-16
near h), so trailing terms are then dropped while the dropped 2|J_n| sum
to at most 1e-16: at most 2e-16 is left out in all.  N - 1 matvecs of
the three-term recurrence T_{n+1} = 2X T_n - T_{n-1} give the step.  The
couplings, dz, c and h are folded into the table of 2X once per
propagation.

An oracle point needs the full system and its probe-free reference (k = 0,
alpha = 0).  The reference's coherent input is exactly zero off n_a = 0,
and with k = 0 nothing leaves that slice, so it rides along as one extra
n_a slice: the pair grid (n_a_max + 2, d1, d2) runs one recurrence on the
two uncoupled blocks.  The slice's a-terms have zero magnitudes, so the
full system's coefficients serve both blocks, and each slice row's
Gershgorin disc lies inside that of the full row with the same (n_b1,
n_b2).  The interval, and so the degree, are those of the full run: the
reference's steps_used equals the full run's.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcessiveTruncationLoss, InvalidParameters, NonConvergence
from .kernels import apply_generator as _apply_kernel
from .kernels import generator_table, term_coefficients
from .params import CoherentInputs, CouplerParams, check_count, check_length

# Per-mode probability mass that may be lost to truncation before the
# state (or a propagation) is rejected as unreliable.
TRUNCATION_LOSS_LIMIT = 1e-6

# Bound on the Chebyshev terms left out of one step, relative to the state,
# past the scanned degree and again among the trailing terms dropped before
# it (2x this in all).
_CHEBYSHEV_TAIL_TOL = 1e-16
# Largest Chebyshev degree (matvecs) of one step.  The degree exceeds h/2,
# and h grows with z, so this turns a z far too long to propagate into
# NonConvergence instead of an unbounded run.
_CHEBYSHEV_MAX_DEGREE = 100_000

# Largest pair grid (n_a_max + 2, d1, d2) a TruncationSpec may span: an
# oracle point runs on it, one n_a slice more than the truncation's grid.
# The point peaks at about 400 B per pair-grid state: the truncation's
# ladder table and the pair table (5 int64 columns and 5 float magnitudes
# each, 80 B per state they span, both cached for the last 4 truncations
# used), the complex values and the gathered amplitudes of one matvec (80 B
# each), and five complex state vectors (the state, three Chebyshev terms
# and one scaled term, 16 B each); about 1.3 GB at the limit.  A
# propagation on the truncation's own grid takes less.
MAX_BASIS_DIMENSION = 3_200_000


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode occupation cutoffs (0..max inclusive)."""

    n_a_max: int
    n_b1_max: int
    n_b2_max: int

    def __post_init__(self):
        for cutoff in (self.n_a_max, self.n_b1_max, self.n_b2_max):
            check_count(cutoff, "every cutoff", 1)
        pair_dimension = (self.n_a_max + 2) * (self.n_b1_max + 1) * (self.n_b2_max + 1)
        if pair_dimension > MAX_BASIS_DIMENSION:
            raise InvalidParameters(
                f"basis dimension {self.dimension} ({pair_dimension} on the "
                f"oracle's pair grid) exceeds the memory guard "
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
    # generator applications (matvecs); 0 at z = 0.  An oracle pair's
    # reference shares the full run's recurrence, and so its count.
    steps_used: int
    norm_drift: float
    conservation_drift: float
    # (<N_a>, <N_b1>, <N_b2>) of final_state, as mode_expectations gives them
    expectations: tuple[float, float, float]


class _Workspace:
    """Ladder tables and occupation grids of one truncation (read-only)."""

    def __init__(self, truncation: TruncationSpec):
        self.shape = da, d1, d2 = truncation.shape
        self.cols, self.mags = generator_table(self.shape)
        na, n1, n2 = np.ogrid[0:da, 0:d1, 0:d2]
        self.number_a = na.astype(float)
        self.number_b1 = n1.astype(float)
        self.number_b2 = n2.astype(float)
        for table in (self.cols, self.mags, self.number_a, self.number_b1,
                      self.number_b2):
            table.flags.writeable = False

    @functools.cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, mags) of the pair grid: the full table, then the table of
        one n_a = 0 slice with its columns offset past the full grid."""
        _, d1, d2 = self.shape
        slice_cols, slice_mags = generator_table((1, d1, d2))
        dim = self.cols.shape[1]
        cols = np.concatenate((self.cols, slice_cols + dim), axis=1)
        mags = np.concatenate((self.mags, slice_mags), axis=1)
        cols.flags.writeable = mags.flags.writeable = False
        return cols, mags


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


def _chebyshev_degree(h: float, tol: float) -> int:
    """Smallest N > h/2 at which 2 (h/2)^N / N! / (1 - h/(2(N+1))), a bound
    on sum_{n>=N} |a_n| of exp(ihx) (|J_n(h)| <= (h/2)^n / n!), is at most
    tol.  The bound falls with N past h/2; it is evaluated in log space,
    where no power or factorial overflows."""
    if h == 0:
        return 1
    log_limit = math.log(tol / 2)
    log_half = math.log(h / 2)
    n = math.floor(h / 2) + 1
    while n * log_half - math.lgamma(n + 1) - math.log1p(-h / (2 * (n + 1))) > log_limit:
        n += 1
    return n


def _bessel_j(h: float, count: int) -> list[float]:
    """J_0(h) .. J_{count-1}(h), h > 0, by Miller's backward recurrence
    J_{n-1} = (2n/h) J_n - J_{n+1}, normalized by J_0 + 2 sum_k J_2k = 1.
    count is a degree N > h/2 at which |J_N| is below 1e-16, and the
    recurrence starts there with J_{N+1} = 0; that start moves each J_n
    kept by less than about |J_{N+1}|."""
    j = [0.0] * (count + 2)
    j[count] = 1.0
    for n in range(count, 0, -1):
        j[n - 1] = (2 * n / h) * j[n] - j[n + 1]
        if abs(j[n - 1]) > 1e250:  # growth above order h; rescale
            j[n - 1:] = [v * 1e-250 for v in j[n - 1:]]
    norm = j[0] + 2.0 * math.fsum(j[2::2])
    return [v / norm for v in j[:count]]


def _chebyshev_coefficients(h: float) -> list[complex]:
    """a_n of exp(ihx) = sum_{n<N} a_n T_n(x) on [-1, 1] to within 2e-16
    (Jacobi-Anger: a_0 = J_0(h), a_n = 2 i^n J_n(h)): the scanned degree's
    bound leaves out at most 1e-16, and the trailing terms dropped after it
    at most 1e-16 more.  N = 1 below h ~ 1e-16, where J_0(h) = 1 - h^2/4
    rounds to 1."""
    # N > h/2, so no scan is needed when h/2 is past the cap (or NaN)
    if (not h / 2 < _CHEBYSHEV_MAX_DEGREE
            or (degree := _chebyshev_degree(h, _CHEBYSHEV_TAIL_TOL)) > _CHEBYSHEV_MAX_DEGREE):
        raise NonConvergence(
            f"a Chebyshev propagator over spectral half-width {h:.3e} needs "
            f"a degree above {_CHEBYSHEV_MAX_DEGREE}; shorten z"
        )
    if degree == 1:
        return [1.0]
    bessel = _bessel_j(h, degree)
    # the scan's bound is loose once h is large; drop trailing terms while
    # the dropped 2|J_n| sum to at most the tolerance
    dropped = 0.0
    while degree > 1 and dropped + 2.0 * abs(bessel[degree - 1]) <= _CHEBYSHEV_TAIL_TOL:
        degree -= 1
        dropped += 2.0 * abs(bessel[degree])
    return [bessel[0]] + [2.0 * (1.0, 1j, -1.0, -1j)[n % 4] * bessel[n]
                          for n in range(1, degree)]


def _expm_step(cols, mags, k, gamma_nl, delta_k, dz, psi):
    """psi <- exp(i dz (G(0)/hbar - dk N_b2)) psi in place via a Chebyshev
    expansion on the ladder table (cols, mags) of psi's grid; returns the
    number of generator applications.  On the pair grid the interval, and
    so the degree, are the full system's: the reference slice's Gershgorin
    discs lie inside those of the full rows."""
    coeffs = term_coefficients(-delta_k, -complex(k), -complex(gamma_nl))
    # spectral interval [lo, hi] of A dz from the table's Gershgorin discs,
    # scaled by dz last: a z too long overflows to inf there, not to NaN
    diag = -delta_k * mags[0]
    radius = np.abs(coeffs[1:]) @ mags[1:]
    lo = dz * float(np.min(diag - radius))
    hi = dz * float(np.max(diag + radius))
    center, half_width = (hi + lo) / 2, (hi - lo) / 2
    a = _chebyshev_coefficients(half_width)
    phase = cmath.exp(1j * center)
    if len(a) == 1:
        psi *= phase
        return 0
    a = [phase * a_n for a_n in a]
    # table of 2X, X = (A dz - center) / half_width; row 0 is the diagonal
    vals = mags * (coeffs * (2.0 * dz / half_width))[:, None]
    vals[0] -= 2.0 * center / half_width
    prev = psi.copy()                                    # T_0
    cur = _apply_kernel(prev, np.empty_like(psi), cols, vals)
    cur *= 0.5                                           # T_1
    nxt = np.empty_like(psi)
    psi *= a[0]
    psi += a[1] * cur
    for a_n in a[2:]:
        _apply_kernel(cur, nxt, cols, vals)
        nxt -= prev                                      # T_{n+1} = 2X T_n - T_{n-1}
        psi += a_n * nxt
        prev, cur, nxt = cur, nxt, prev
    return len(a) - 1


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


def _report(ws, state0: FockStateVector, psi, matvecs: int) -> PropagationReport:
    """Report of state0 propagated to the grid psi (frame phase applied,
    psi None at z = 0) in `matvecs` generator applications; raises when the
    boundary occupation exceeds the loss limit."""
    n0 = _expectations(ws, state0.grid())
    if psi is None:
        return PropagationReport(
            final_state=state0, steps_used=0, norm_drift=0.0,
            conservation_drift=0.0, expectations=n0,
        )
    leak = _boundary_mass(psi)
    if leak > TRUNCATION_LOSS_LIMIT:
        raise ExcessiveTruncationLoss(
            f"boundary-occupation probability {leak:.3e} exceeds "
            f"{TRUNCATION_LOSS_LIMIT:.0e}; increase the cutoffs"
        )
    na, n1, n2 = _expectations(ws, psi)
    na0, n10, n20 = n0
    final = FockStateVector(
        amplitudes=psi.ravel(), truncation=state0.truncation,
        norm_deficit=state0.norm_deficit,
    )
    return PropagationReport(
        final_state=final,
        steps_used=matvecs,
        norm_drift=abs(float(np.linalg.norm(final.amplitudes)) - 1.0),
        conservation_drift=abs((na + n1 + 2 * n2) - (na0 + n10 + 2 * n20)),
        expectations=(na, n1, n2),
    )


def _propagate_raw(
    k: complex,
    gamma_nl: complex,
    delta_k: float,
    inputs: CoherentInputs,
    z_final: float,
    truncation: TruncationSpec,
    reference: np.ndarray | None = None,
) -> PropagationReport:
    """Report of the coherent input propagated to z_final.  `reference`, the
    (d1, d2) n_a = 0 slice of the probe-free reference's grid, rides along
    in the same recurrence as one more n_a slice and is propagated in
    place."""
    check_length(z_final)
    state0 = build_coherent_state(inputs, truncation)
    ws = _workspace(truncation)
    if z_final == 0:
        return _report(ws, state0, None, 0)
    if reference is None:
        psi = state0.grid().copy()
        table = ws.cols, ws.mags
    else:
        psi = np.concatenate((state0.grid(), reference[None]))
        table = ws.pair_table
    matvecs = _expm_step(*table, k, gamma_nl, delta_k, z_final, psi)
    psi *= np.exp(1j * delta_k * z_final * ws.number_b2)
    if reference is not None:
        reference[...] = psi[-1]
        psi = psi[:-1]
    return _report(ws, state0, psi, matvecs)


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


def _oracle_pair(
    params: CouplerParams,
    inputs: CoherentInputs,
    z_final: float,
    truncation: TruncationSpec,
) -> tuple[PropagationReport, PropagationReport]:
    """Reports of the full system and of its probe-free reference (k=0,
    alpha=0), whose <N_b2> difference is the exact Zeno parameter.  Both
    run in one recurrence on the pair grid; the reference's final_state is
    on the full grid, zero off n_a = 0."""
    ref_inputs = CoherentInputs(alpha=0.0, beta=inputs.beta, gamma=inputs.gamma)
    ref0 = build_coherent_state(ref_inputs, truncation)
    ref = ref0.grid().copy()
    full = _propagate_raw(params.k, params.gamma_nl, params.delta_k, inputs,
                          z_final, truncation, reference=ref[0])
    ws = _workspace(truncation)
    return full, _report(ws, ref0, ref if z_final else None, full.steps_used)


def oracle_zeno_parameter(
    params: CouplerParams,
    inputs: CoherentInputs,
    z_final: float,
    truncation: TruncationSpec,
) -> float:
    """Exact Zeno parameter: <N_b2> difference between the full system and
    the probe-free reference (k=0, alpha=0)."""
    full, ref = _oracle_pair(params, inputs, z_final, truncation)
    return full.expectations[2] - ref.expectations[2]
