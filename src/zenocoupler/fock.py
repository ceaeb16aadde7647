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
`kernels`.  An interval [c - h, c + h] holding the spectrum of the
Hermitian A dz (below) makes X = (A dz - c)/h have its spectrum in
[-1, 1], and

    exp(i A dz) = e^{ic} (J_0(h) + 2 sum_{n>=1} i^n J_n(h) T_n(X))

(Jacobi-Anger).  Since |J_n(h)| <= (h/2)^n / n! and ||T_n(X)|| <= 1, a
degree is fixed before any matvec as the first at which that bound on
the left-out terms is at most 1e-16.  That bound is loose once h is
large (it puts the degree near e h/2, where the J_n fall below 1e-16
near h), so trailing terms are then dropped while the dropped 2|J_n| sum
to at most 1e-16: at most 2e-16 is left out in all.  N - 1 matvecs of
the three-term recurrence T_{n+1} = 2X T_n - T_{n-1} give the step.  The
couplings, dz, c and h are folded into the table of 2X once per
propagation.  Each T_n is written into row n mod R of a preallocated
block of R >= 3 rows (about 1 MiB; the recurrence reads the last two rows
written, so the block is a ring), and the series is one product of the
coefficients with the block each time its last row is written: a step
costs a matvec and one subtraction.

The interval.  Write A = -dk N_b2 + B + W, with B = -(k a b1^ + H.c.)
and W = -(gamma_nl b1^2 b2^ + H.c.).  B commutes with N_b2, and a
diagonal phase maps it to |k| B1, where B1 = a b1^ + a^ b1 on the (n_a,
n_b1) box depends on the cutoffs alone; B1 keeps n_a + n_b1 fixed, so it
is a sum of zero-diagonal tridiagonal blocks, and its spectrum is
symmetric about 0.  So -dk N_b2 + B has exactly the eigenvalues |k| mu -
dk n_b2, mu in spec(B1).  mu_max, the largest, is bounded from above to
about 1e-12 once per truncation, by a Sturm-count bisection over the
blocks (a few ms up to cutoffs (60, 60), 0.3 s at (1000, 1000)).  ||W|| is at most
|gamma_nl| w, w the largest row sum of the two b1^2 terms' magnitudes,
and Weyl's inequality (Horn & Johnson, Matrix Analysis, Thm 4.3.1) gives

    [min(0, -dk n_b2_max) - |k| mu_max - |gamma_nl| w,
     max(0, -dk n_b2_max) + |k| mu_max + |gamma_nl| w].

An oracle point needs the full system and its probe-free reference (k = 0,
alpha = 0).  The reference's coherent input is exactly zero off n_a = 0,
and with k = 0 nothing leaves that slice, so it rides along as one extra
n_a slice: the pair grid (n_a_max + 2, d1, d2) runs one recurrence on the
two uncoupled blocks, and its initial slice is the outer product of the
full input's own b1 and b2 expansions.  The slice's a-terms have zero
magnitudes, so the full system's coefficients serve both blocks.  The
reference block's spectrum lies in the interval too: it is that of
-dk N_b2 + W on the slice, inside the Weyl bound with the |k| term left
out.  The interval, and so the degree, are those of the full run: the
reference's steps_used equals the full run's.

Every report's statistics come from one product of |psi|^2 with a (D, 5)
matrix of columns [1, n_a, n_b1, n_b2, faces] cached per truncation: the
norm, the three mean occupations and the boundary mass (the probability
on the last slice of each mode, counted once per such face).
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
# Size of the block the Chebyshev terms of one step are stored in before
# they are summed, at least 3 rows of the truncation's dimension.
_TERM_BLOCK_BYTES = 1 << 20

# Largest pair grid (n_a_max + 2, d1, d2) a TruncationSpec may span: an
# oracle point runs on it, one n_a slice more than the truncation's grid.
# The point peaks at about 410 B per pair-grid state (408 B measured with
# tracemalloc at cutoffs (1, 300, 300)): the truncation's ladder table and
# the pair table (5 int64 columns and 5 float magnitudes each, 80 B per
# state they span) and the statistics matrix (40 B per truncation state),
# all cached for the last 4 truncations used; the complex values and the
# gathered amplitudes of one matvec (80 B each); and the state, its
# coherent input and a block of three Chebyshev terms (16 B each, the
# block's floor once a row passes 1/3 MiB); about 1.3 GB at the limit.  A
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


def _ladder_bound(n_a_max: int, n_b1_max: int) -> float:
    """An upper bound, above by about 1e-12 relative, on the largest
    eigenvalue of B1 = a b1^ + a^ b1 on the box n_a <= n_a_max, n_b1 <=
    n_b1_max.  B1 keeps L = n_a + n_b1 fixed; on block L it is tridiagonal
    with zero diagonal, linking n_a = i to i + 1 by sqrt((i + 1)(L - i)).
    A shift lam lies above every eigenvalue of every block iff all pivots
    d_1 = -lam, d_j = -lam - e_{j-1}^2 / d_{j-1} of every block are negative
    (Sylvester's law of inertia), which bisects the bound to 1e-13 of it,
    many shifts and all blocks at a time."""
    blocks = np.arange(n_a_max + n_b1_max + 1)[:, None]
    i = np.maximum(blocks - n_b1_max, 0) + np.arange(min(n_a_max, n_b1_max))
    # squared off-diagonals of each block, padded past its end with zeros
    # (1x1 zero blocks, below every positive shift)
    e2 = np.where(i < np.minimum(blocks, n_a_max), (i + 1.0) * (blocks - i), 0.0)
    columns = list(e2.T.copy())
    shifts = max(1, min(63, 4096 // len(e2)))
    lo, hi = 0.0, 2.0 * math.sqrt(e2.max())  # Gershgorin: row sums <= 2 max e
    # a zero pivot makes the next one -inf or NaN; the pivot was already
    # counted as not negative, and NaN compares as not negative too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while hi - lo > 1e-13 * hi:
            lam = np.linspace(lo, hi, shifts + 2)[1:-1]
            neg_lam = -lam[:, None]
            pivot = np.repeat(neg_lam, len(e2), axis=1)
            highest = pivot.copy()
            for e2_j in columns:
                pivot = neg_lam - e2_j / pivot
                np.maximum(highest, pivot, out=highest)
            above = np.all(highest < 0, axis=1)
            hi = lam[above][0] if above.any() else hi
            lo = lam[~above][-1] if not above.all() else lo
    return float(hi) * (1.0 + 1e-12)


class _Workspace:
    """Ladder tables, occupation statistics and spectral bounds of one
    truncation (read-only)."""

    def __init__(self, truncation: TruncationSpec):
        self.truncation = truncation
        self.shape = da, d1, d2 = truncation.shape
        self.dimension = truncation.dimension
        self.cols, self.mags = generator_table(self.shape)
        na, n1, n2 = np.indices(self.shape).reshape(3, -1)
        faces = (na == da - 1).astype(float) + (n1 == d1 - 1) + (n2 == d2 - 1)
        # |psi|^2 @ statistics = [norm^2, <N_a>, <N_b1>, <N_b2>, boundary mass]
        self.statistics = np.stack([np.ones(self.dimension), na, n1, n2, faces], axis=1)
        self.number_b2 = np.arange(float(d2))
        # w of the Weyl interval: the largest b1^2-term row sum
        self.bb_bound = float((self.mags[3] + self.mags[4])[:d1 * d2].max())
        for table in (self.cols, self.mags, self.statistics, self.number_b2):
            table.flags.writeable = False

    @functools.cached_property
    def ladder_bound(self) -> float:
        """mu_max of B1 on this truncation's (n_a, n_b1) box."""
        return _ladder_bound(self.truncation.n_a_max, self.truncation.n_b1_max)

    @functools.cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, mags) of the pair grid: the full table, then the table of
        one n_a = 0 slice with its columns offset past the full grid."""
        _, d1, d2 = self.shape
        slice_cols, slice_mags = generator_table((1, d1, d2))
        cols = np.concatenate((self.cols, slice_cols + self.dimension), axis=1)
        mags = np.concatenate((self.mags, slice_mags), axis=1)
        cols.flags.writeable = mags.flags.writeable = False
        return cols, mags


@functools.lru_cache(maxsize=4)
def _workspace(truncation: TruncationSpec) -> _Workspace:
    return _Workspace(truncation)


@functools.lru_cache(maxsize=8)
def _half_log_factorials(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """n = 0..n_max and lgamma(n + 1) / 2."""
    n = np.arange(n_max + 1.0)
    half = 0.5 * np.array([math.lgamma(v + 1.0) for v in range(n_max + 1)])
    n.flags.writeable = half.flags.writeable = False
    return n, half


@functools.lru_cache(maxsize=8)
def _coherent_expansion(mu: complex, n_max: int) -> tuple[np.ndarray, float]:
    """Coherent expansion of |mu> truncated to 0..n_max and renormalized,
    and its tail probability 1 - (kept mass).  The magnitudes are built in
    log space, n ln|mu| - |mu|^2/2 - lgamma(n + 1)/2, where exp(-|mu|^2/2)
    alone would underflow past |mu| ~ 38.6; |mu|^2 overflows to inf (a
    tail of 1), not to an OverflowError."""
    if mu == 0:
        c = np.zeros(n_max + 1, dtype=complex)
        c[0] = kept = 1.0
    else:
        n, half_log_factorial = _half_log_factorials(n_max)
        c = n * complex(math.log(abs(mu)), cmath.phase(mu))
        c -= abs(mu) * abs(mu) / 2.0
        c -= half_log_factorial
        np.exp(c, out=c)
        kept = float(np.vdot(c, c).real)
        if kept > 0:
            c /= math.sqrt(kept)
    c.flags.writeable = False
    return c, max(1.0 - kept, 0.0)


def _coherent_product(modes) -> tuple[np.ndarray, float]:
    """Outer product of the renormalized truncated expansions of
    (mode name, amplitude, cutoff) `modes`, and its norm deficit; raises
    when a mode's tail exceeds the loss limit."""
    factors = []
    kept_mass = 1.0
    for name, mu, n_max in modes:
        c, tail = _coherent_expansion(complex(mu), n_max)
        if tail > TRUNCATION_LOSS_LIMIT:
            raise ExcessiveTruncationLoss(
                f"mode {name} tail probability {tail:.3e} "
                f"exceeds {TRUNCATION_LOSS_LIMIT:.0e} at cutoff {n_max}"
            )
        kept_mass *= 1.0 - tail
        factors.append(c)
    # innermost pair first: the n_a = 0 slice of an alpha = 0 state is then
    # bitwise the product of its b1 and b2 expansions alone
    product = factors[-1]
    for c in reversed(factors[:-1]):
        product = np.multiply.outer(c, product)
    return product, 1.0 - kept_mass


def build_coherent_state(
    inputs: CoherentInputs, truncation: TruncationSpec
) -> FockStateVector:
    """Tensor product of truncated coherent expansions, renormalized."""
    grid, norm_deficit = _coherent_product(zip(
        ("a", "b1", "b2"), (inputs.alpha, inputs.beta, inputs.gamma),
        (truncation.n_a_max, truncation.n_b1_max, truncation.n_b2_max)))
    return FockStateVector(
        amplitudes=grid.ravel(), truncation=truncation, norm_deficit=norm_deficit
    )


def _chebyshev_degree(h: float, tol: float) -> int:
    """Smallest N > h/2 at which 2 (h/2)^N / N! / (1 - h/(2(N+1))), a bound
    on sum_{n>=N} |a_n| of exp(ihx) (|J_n(h)| <= (h/2)^n / n!), is at most
    tol.  The bound falls with N past h/2, so N is bracketed by doubling
    steps and then bisected; it is evaluated in log space, where no power
    or factorial overflows."""
    if h == 0:
        return 1
    log_limit = math.log(tol / 2)
    log_half = math.log(h / 2)

    def enough(n):
        return n * log_half - math.lgamma(n + 1) - math.log1p(-h / (2 * (n + 1))) <= log_limit

    short = math.floor(h / 2)  # too short, or below the range
    n, step = short + 1, 1
    while not enough(n):
        short, n, step = n, n + step, 2 * step
    while n - short > 1:
        mid = (short + n) // 2
        short, n = (short, mid) if enough(mid) else (mid, n)
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


def _chebyshev_coefficients(h: float) -> np.ndarray:
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
        return np.ones(1, dtype=complex)
    bessel = _bessel_j(h, degree)
    # the scan's bound is loose once h is large; drop trailing terms while
    # the dropped 2|J_n| sum to at most the tolerance
    dropped = 0.0
    while degree > 1 and dropped + 2.0 * abs(bessel[degree - 1]) <= _CHEBYSHEV_TAIL_TOL:
        degree -= 1
        dropped += 2.0 * abs(bessel[degree])
    return np.multiply(bessel[:degree], _jacobi_anger_factors(degree))


@functools.lru_cache(maxsize=64)
def _jacobi_anger_factors(degree: int) -> np.ndarray:
    """1, then 2 i^n for n = 1 .. degree - 1."""
    factors = 2.0 * np.array([(1.0, 1j, -1.0, -1j)[n % 4] for n in range(degree)])
    factors[0] = 1.0
    factors.flags.writeable = False
    return factors


def _spectral_interval(ws: _Workspace, delta_k: float, k_abs: float,
                       gamma_abs: float) -> tuple[float, float]:
    """[lo, hi] holding the spectrum of A = G(0)/hbar - dk N_b2 on ws's
    truncation (and on its pair grid): the Weyl interval (module
    docstring)."""
    shift = -delta_k * (ws.shape[2] - 1)
    reach = k_abs * ws.ladder_bound + gamma_abs * ws.bb_bound
    return min(0.0, shift) - reach, max(0.0, shift) + reach


def _sum_terms(flat, coefficients, terms, summed):
    """flat <- sum_i coefficients[i] terms[i], added to flat once earlier
    terms have been summed into it."""
    if summed:
        flat += np.dot(coefficients, terms[:len(coefficients)])
    else:
        np.dot(coefficients, terms[:len(coefficients)], out=flat)


def _expm_step(ws, table, k, gamma_nl, delta_k, dz, psi):
    """psi <- exp(i dz (G(0)/hbar - dk N_b2)) psi in place via a Chebyshev
    expansion on the ladder table (cols, mags) of psi's grid, ws's own
    table or its pair table; returns the number of generator
    applications."""
    cols, mags = table
    # scaled by dz last: a z too long overflows to inf there, not to NaN
    lo, hi = _spectral_interval(ws, delta_k, abs(k), abs(gamma_nl))
    lo, hi = dz * lo, dz * hi
    center, half_width = (hi + lo) / 2, (hi - lo) / 2
    a = _chebyshev_coefficients(half_width)
    phase = cmath.exp(1j * center)
    if len(a) == 1:
        psi *= phase
        return 0
    a = a * phase
    # table of 2X, X = (A dz - center) / half_width; row 0 is the diagonal
    coeffs = term_coefficients(-delta_k, -complex(k), -complex(gamma_nl))
    vals = mags * (coeffs * (2.0 * dz / half_width))[:, None]
    vals[0] -= 2.0 * center / half_width
    # T_n in row n % rows of a block of 3 rows or more (a ring: computing
    # row 0 again reads the last two rows), summed into psi each time the
    # last row is written and at the end.  The row count follows the
    # truncation, not psi, so that a pair's full block is summed exactly as
    # a run on the truncation alone.
    rows = min(len(a), max(3, _TERM_BLOCK_BYTES // (16 * ws.dimension)))
    block = np.empty((rows,) + psi.shape, dtype=complex)
    terms = block.reshape(rows, -1)
    grids = list(block)
    flat = psi.reshape(-1)
    block[0] = psi                                       # T_0
    _apply_kernel(grids[0], grids[1], cols, vals)
    grids[1] *= 0.5                                      # T_1
    top, summed = rows - 1, 0
    for n in range(2, len(a)):
        row = n % rows
        _apply_kernel(grids[row - 1], grids[row], cols, vals)
        grids[row] -= grids[row - 2]                     # T_n = 2X T_{n-1} - T_{n-2}
        if row == top:
            _sum_terms(flat, a[summed:n + 1], terms, summed)
            summed = n + 1
    if summed < len(a):
        _sum_terms(flat, a[summed:], terms, summed)
    return len(a) - 1


def _probabilities(psi) -> np.ndarray:
    """|psi|^2, elementwise."""
    p = np.abs(psi)
    p *= p
    return p


def _pair_statistics(stats, psi):
    """Statistics rows of the full-grid state psi[:D] and of the n_a = 0
    slice psi[D:] riding along with it, whose rows are stats' first."""
    p = _probabilities(psi)
    dim = len(stats)
    return p[:dim] @ stats, p[dim:] @ stats[:len(p) - dim]


def _report(truncation: TruncationSpec, norm_deficit: float, amplitudes,
            matvecs: int, initial, final) -> PropagationReport:
    """Report of a state propagated to `amplitudes` (frame phase applied) in
    `matvecs` generator applications, from the statistics rows of its
    initial and final states; raises when the boundary occupation exceeds
    the loss limit."""
    norm2, na, n1, n2, leak = final.tolist()
    if leak > TRUNCATION_LOSS_LIMIT:
        raise ExcessiveTruncationLoss(
            f"boundary-occupation probability {leak:.3e} exceeds "
            f"{TRUNCATION_LOSS_LIMIT:.0e}; increase the cutoffs"
        )
    _, na0, n10, n20, _ = initial.tolist()
    return PropagationReport(
        final_state=FockStateVector(amplitudes, truncation, norm_deficit),
        steps_used=matvecs,
        norm_drift=abs(math.sqrt(norm2) - 1.0),
        conservation_drift=abs((na + n1 + 2 * n2) - (na0 + n10 + 2 * n20)),
        expectations=(na, n1, n2),
    )


def _initial_report(state0: FockStateVector, initial) -> PropagationReport:
    """Report of state0 at z = 0, from its statistics row."""
    return PropagationReport(
        final_state=state0, steps_used=0, norm_drift=0.0, conservation_drift=0.0,
        expectations=tuple(initial[1:4].tolist()),
    )


def _on_full_grid(slice_amplitudes, dimension: int) -> np.ndarray:
    """An n_a = 0 slice's amplitudes on the full grid, zero elsewhere."""
    amplitudes = np.zeros(dimension, dtype=complex)
    amplitudes[:slice_amplitudes.size] = slice_amplitudes
    return amplitudes


@dataclass
class _Reference:
    """An oracle pair's probe-free reference (k = 0, alpha = 0): its input
    going into `_propagate_raw`, its report coming out."""

    inputs: CoherentInputs
    report: PropagationReport | None = None


def _propagate_raw(
    k: complex,
    gamma_nl: complex,
    delta_k: float,
    inputs: CoherentInputs,
    z_final: float,
    truncation: TruncationSpec,
    reference: _Reference | None = None,
) -> PropagationReport:
    """Report of the coherent input propagated to z_final.  A `reference`
    rides along in the same recurrence as one more n_a slice, built from
    the full input's own b1 and b2 expansions; its report is stored on
    it."""
    check_length(z_final)
    state0 = build_coherent_state(inputs, truncation)
    ws = _workspace(truncation)
    stats, dim = ws.statistics, ws.dimension
    if reference is None:
        psi = state0.amplitudes.copy()
        initial = _probabilities(state0.amplitudes) @ stats
        table = ws.cols, ws.mags
    else:
        ref_slice, ref_deficit = _coherent_product(zip(
            ("b1", "b2"), (reference.inputs.beta, reference.inputs.gamma),
            (truncation.n_b1_max, truncation.n_b2_max)))
        psi = np.concatenate((state0.amplitudes, ref_slice.ravel()))
        initial, ref_initial = _pair_statistics(stats, psi)
        table = ws.pair_table
    if z_final == 0:
        if reference is not None:
            ref0 = FockStateVector(_on_full_grid(psi[dim:], dim), truncation, ref_deficit)
            reference.report = _initial_report(ref0, ref_initial)
        return _initial_report(state0, initial)
    grid = psi.reshape(-1, *ws.shape[1:])
    matvecs = _expm_step(ws, table, k, gamma_nl, delta_k, z_final, grid)
    grid *= np.exp(1j * delta_k * z_final * ws.number_b2)
    if reference is None:
        return _report(truncation, state0.norm_deficit, psi, matvecs, initial,
                       _probabilities(psi) @ stats)
    final, ref_final = _pair_statistics(stats, psi)
    reference.report = _report(truncation, ref_deficit, _on_full_grid(psi[dim:], dim),
                               matvecs, ref_initial, ref_final)
    return _report(truncation, state0.norm_deficit, psi[:dim], matvecs, initial, final)


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
    stats = _workspace(state.truncation).statistics
    return tuple((_probabilities(state.amplitudes) @ stats)[1:4].tolist())


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
    reference = _Reference(CoherentInputs(alpha=0.0, beta=inputs.beta, gamma=inputs.gamma))
    full = _propagate_raw(params.k, params.gamma_nl, params.delta_k, inputs,
                          z_final, truncation, reference=reference)
    return full, reference.report


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
