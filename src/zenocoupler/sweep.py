"""Figure-reproduction sweeps: 1-D z-scans and 2-D surfaces of the Zeno
parameter, zero-crossing detection, and oracle cross-validation.

The z axis is expressed in rescaled length (gamma_nl * z), matching the
horizontal axis of the paper-style plots; each cell converts back to z
using the magnitude of its own nonlinear coupling.

`run_sweep` evaluates a grid row by row: within a row (one secondary-axis
value) the couplings and inputs are fixed, so the closed form runs once
over the row's z array, and rows with the same couplings (a phi axis)
share that evaluation.  The `SweepResult` is columnar: z, <N_b2>,
<N_b2>_{k=0}, dN_Z and the sign classification are (secondary, z) arrays,
classified in one array expression with `classify`'s thresholds and
errors.  Each cell equals the scalar `zeno_sample` at its own z to
rounding.  A row whose parameters raise InvalidParameters (e.g. k = 0,
gamma_nl = 0, a length or phase that overflows, or amplitudes at which the
closed form overflows) fails as a whole: status "invalid", with NaN
numbers and sign 0.  `SweepResult.cells` is a list of `SweepCell` records
built from the arrays on first read; `find_transitions` and
`validate_against_oracle` read the arrays and build no more cells than
they return or compare.
"""

from __future__ import annotations

import cmath
import math
import functools
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import InvalidParameters
from .fock import TruncationSpec, _oracle_pair
from .observables import (
    DEFAULT_CLASSIFICATION_TOL,
    Classification,
    ZenoSample,
    _b2_coefficients,
    _b2_combine,
    _signs,
    zeno_parameter,
)
from .params import CoherentInputs, CouplerParams, check_count

SECONDARY_AXES = ("delta_k", "k_magnitude", "phi", "gamma_nl")


def z_from_gamma_z(gamma_z, gamma_nl: complex):
    """Plain length z = gamma_z / |gamma_nl| (scalar or array) for a
    rescaled length; it has no meaning when gamma_nl = 0, nor where it
    overflows."""
    g = abs(complex(gamma_nl))
    if g == 0:
        raise InvalidParameters("rescaled length gamma_nl*z needs |gamma_nl| > 0")
    gamma_z_bound = float(np.max(np.abs(gamma_z)))
    # a float quotient overflows to inf without the warning an array's would raise
    if not gamma_z_bound / g < math.inf:
        raise InvalidParameters(
            f"gamma_z up to {gamma_z_bound:g} over |gamma_nl| = {g:g} overflows z")
    return gamma_z / g


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive linear axis: count points from min to max."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        check_count(self.count, "axis count", 1)
        if not -math.inf < self.min <= self.max < math.inf:
            raise InvalidParameters("axis needs finite min <= max")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.min])
        step = (self.max - self.min) / (self.count - 1)
        return self.min + step * np.arange(self.count)


@dataclass(frozen=True)
class SweepSpec:
    params: CouplerParams
    inputs: CoherentInputs
    z_axis: AxisSpec  # in rescaled length gamma_nl * z
    secondary_name: str | None = None
    secondary_axis: AxisSpec | None = None
    classification_tol: float = DEFAULT_CLASSIFICATION_TOL
    label: str = ""  # a caller-set description; the package does not read it

    def __post_init__(self):
        if (self.secondary_name is None) != (self.secondary_axis is None):
            raise InvalidParameters("secondary_name and secondary_axis go together")
        if self.secondary_name is not None and self.secondary_name not in SECONDARY_AXES:
            raise InvalidParameters(f"unknown secondary axis {self.secondary_name!r}")
        if self.secondary_name != "gamma_nl":
            # every cell converts its rescaled length with this gamma_nl
            z_from_gamma_z(0.0, self.params.gamma_nl)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: indices, axis values, and either a sample or an error."""

    secondary_index: int
    z_index: int
    secondary_value: float | None
    gamma_z: float
    sample: ZenoSample | None
    # "ok", or "invalid" where the cell's parameters break a precondition
    # (InvalidParameters, e.g. k = 0 or gamma_nl = 0)
    status: str
    message: str = ""


# Classification of each sign code; a sign indexes it directly (-1 is the last).
_CLASSIFICATIONS = (Classification.NULL, Classification.ANTI_ZENO, Classification.ZENO)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A grid in columns: one array per quantity, indexed (secondary index,
    z index), plus one status and message per row.  A row fails as a whole
    (only its parameters can raise), and its numbers are NaN and its signs 0.
    The arrays are read-only; `cells` is a view built on first read.  Two
    results compare by identity (arrays have no single truth value); compare
    their `cells` or arrays instead."""

    spec: SweepSpec
    gamma_z: np.ndarray  # (n_z,)
    secondary_values: tuple  # (None,) without a secondary axis
    z: np.ndarray  # (n_secondary, n_z), like the three below
    n_b2: np.ndarray
    n_b2_uncoupled: np.ndarray
    delta_n_z: np.ndarray
    sign: np.ndarray  # int8: -1 Zeno, 0 Null or a failed row, +1 AntiZeno
    row_status: tuple[str, ...]  # "ok" or "invalid" (see SweepCell)
    row_message: tuple[str, ...]  # "" on an ok row

    def __post_init__(self):
        for name in ("gamma_z", "z", "n_b2", "n_b2_uncoupled", "delta_n_z", "sign"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_secondary(self) -> int:
        return len(self.secondary_values)

    @property
    def n_z(self) -> int:
        return len(self.gamma_z)

    def _cells_at(self, flat: np.ndarray) -> list[SweepCell]:
        """New cells at the flat indices si * n_z + zi, in that order."""
        rows, cols = np.divmod(flat, self.n_z)
        secondary, status, message = self.secondary_values, self.row_status, self.row_message
        columns = (self.z, self.n_b2, self.n_b2_uncoupled, self.delta_n_z, self.sign)
        cells = []
        for si, zi, gz, z, nb, nr, d, s in zip(
                rows.tolist(), cols.tolist(), self.gamma_z[cols].tolist(),
                *(column[rows, cols].tolist() for column in columns)):
            if status[si] == "ok":
                sample = ZenoSample(z, nb, nr, d, _CLASSIFICATIONS[s])
                cells.append(SweepCell(si, zi, secondary[si], gz, sample, "ok"))
            else:
                cells.append(SweepCell(si, zi, secondary[si], gz, None, status[si], message[si]))
        return cells

    @functools.cached_property
    def cells(self) -> list[SweepCell]:
        """Every cell, ordered by (secondary index, z index)."""
        return self._cells_at(np.arange(self.z.size))


def _cell_parameters(spec: SweepSpec, name: str | None, value: float | None):
    """Per-cell (params, inputs); raises on invariant violations."""
    params, inputs = spec.params, spec.inputs
    if name is None:
        return params, inputs
    if name == "delta_k":
        params = dc_replace(params, delta_k=float(value))
    elif name == "k_magnitude":
        # no k = 0 guard, unlike gamma_nl below: a CouplerParams has k != 0
        phase = cmath.exp(1j * cmath.phase(complex(params.k)))
        params = dc_replace(params, k=float(value) * phase)
    elif name == "gamma_nl":
        g = complex(params.gamma_nl)
        phase = cmath.exp(1j * cmath.phase(g)) if g != 0 else 1.0
        params = dc_replace(params, gamma_nl=float(value) * phase)
    elif name == "phi":
        inputs = inputs.with_phi(float(value))
    return params, inputs


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the Zeno parameter over the grid, one pass per row; a row
    whose parameters raise is marked failed.  Consecutive rows with the same
    couplings (a phi axis) share one coefficient evaluation."""
    gamma_z = spec.z_axis.values()
    if spec.secondary_axis is None:
        sec_values = (None,)
    else:
        sec_values = tuple(spec.secondary_axis.values().tolist())

    shape = (len(sec_values), len(gamma_z))
    z, n_b2, n_ref, dnz = (np.full(shape, np.nan) for _ in range(4))
    status, message = ["ok"] * shape[0], [""] * shape[0]
    last_params = terms = None
    for si, sv in enumerate(sec_values):
        try:
            params, inputs = _cell_parameters(spec, spec.secondary_name, sv)
            row_z = z_from_gamma_z(gamma_z, params.gamma_nl)
            if params is not last_params:
                last_params, terms = params, _b2_coefficients(params, row_z)
            # an overflow is raised as InvalidParameters, so numpy need not warn
            with np.errstate(over="ignore", invalid="ignore"):
                numbers = _b2_combine(*terms, inputs)
        except InvalidParameters as exc:
            status[si], message[si] = "invalid", str(exc)
            continue
        z[si] = row_z
        n_b2[si], n_ref[si], dnz[si] = numbers

    ok = np.array([s == "ok" for s in status])
    sign = np.zeros(shape, dtype=np.int8)
    sign[ok] = _signs(dnz[ok], spec.classification_tol)
    return SweepResult(spec, gamma_z, sec_values, z, n_b2, n_ref, dnz, sign,
                       tuple(status), tuple(message))


def find_transitions(result: SweepResult) -> list[tuple[SweepCell, SweepCell]]:
    """Adjacent cell pairs (along either grid axis) whose Zeno parameters
    have strictly opposite sign classifications, in row-major order of
    their first cell, the z neighbour before the secondary neighbour.  Only
    the cells returned are built, each once, however many brackets it ends."""
    ns, nz = result.n_secondary, result.n_z
    if ns * nz < 2:
        raise InvalidParameters("need at least 2 samples to bracket a transition")
    sign = result.sign
    # opposite[si, zi, 0]: (si, zi) and (si, zi + 1); [..., 1]: and (si + 1, zi)
    opposite = np.zeros((ns, nz, 2), dtype=bool)
    opposite[:, :-1, 0] = sign[:, :-1] * sign[:, 1:] < 0
    opposite[:-1, :, 1] = sign[:-1, :] * sign[1:, :] < 0
    si, zi, axis = np.nonzero(opposite)
    first, second = si * nz + zi, (si + axis) * nz + zi + 1 - axis
    flat, where = np.unique(np.concatenate((first, second)), return_inverse=True)
    cells = result._cells_at(flat)
    ends = [cells[i] for i in where.tolist()]
    return list(zip(ends[:len(si)], ends[len(si):]))


@dataclass(frozen=True)
class OracleValidationReport:
    max_discrepancy: float
    sampled_cells: int
    contraction_ratio: float
    # the worst over every full-system oracle run, the contraction pair's too
    max_norm_drift: float
    max_conservation_drift: float


ORACLE_AMPLITUDE_LIMIT = 2.0
# Seed of the random choice of cells that validate_against_oracle compares.
ORACLE_SAMPLE_SEED = 0


def validate_against_oracle(
    spec: SweepSpec,
    truncation: TruncationSpec,
    sample_count: int,
) -> OracleValidationReport:
    """Compare perturbative and oracle Zeno parameters at random grid cells.

    The contraction check halves gamma_nl at fixed z and reports the
    factor by which the perturbative-vs-oracle discrepancy shrinks
    (expected ~4, the neglected terms being second order).
    """
    if (
        abs(complex(spec.inputs.alpha)) > ORACLE_AMPLITUDE_LIMIT
        or abs(complex(spec.inputs.beta)) > ORACLE_AMPLITUDE_LIMIT
        or abs(complex(spec.inputs.gamma)) > ORACLE_AMPLITUDE_LIMIT
    ):
        raise InvalidParameters("oracle validation needs |alpha|, |beta|, |gamma| <= 2")
    check_count(sample_count, "sample_count", 0)
    result = run_sweep(spec)
    # the ok cells past gamma_z = 0, in row-major order
    ok_rows = np.array([status == "ok" for status in result.row_status])
    rows, cols = np.nonzero(ok_rows[:, None] & (result.gamma_z > 0))
    rng = np.random.default_rng(ORACLE_SAMPLE_SEED)
    chosen = rng.choice(len(rows), size=min(sample_count, len(rows)), replace=False)

    runs = []  # the full-system report of every oracle run

    def exact_zeno(params, inputs, z):
        full, ref = _oracle_pair(params, inputs, z, truncation)
        runs.append(full)
        return full.expectations[2] - ref.expectations[2]

    max_disc = 0.0
    for idx in sorted(int(i) for i in chosen):
        si, zi = rows[idx], cols[idx]
        params, inputs = _cell_parameters(
            spec, spec.secondary_name, result.secondary_values[si]
        )
        z = result.z[si, zi].item()
        exact = exact_zeno(params, inputs, z)
        max_disc = max(max_disc, abs(exact - result.delta_n_z[si, zi].item()))

    params, inputs = spec.params, spec.inputs
    z = z_from_gamma_z(spec.z_axis.max, params.gamma_nl)
    d = []
    for scale in (1.0, 0.5):
        p = dc_replace(params, gamma_nl=complex(params.gamma_nl) * scale)
        exact = exact_zeno(p, inputs, z)
        d.append(abs(exact - zeno_parameter(p, inputs, z)))
    ratio = d[0] / d[1] if d[1] > 0 else math.inf
    return OracleValidationReport(
        max_discrepancy=max_disc, sampled_cells=len(chosen), contraction_ratio=ratio,
        max_norm_drift=max(r.norm_drift for r in runs),
        max_conservation_drift=max(r.conservation_drift for r in runs),
    )


def preset_sweep(name: str) -> SweepSpec:
    """Figure-reproduction presets.

    Axis extents are implementation choices (the source figures label no
    numeric ranges); they are chosen to exhibit the captioned behavior.
    Each spec's `label` names its figure; it is set for callers and read
    by nothing in the package.
    """
    base_inputs = CoherentInputs(alpha=5.0, beta=2.0, gamma=1.0)
    if name == "fig2":
        params = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
        return SweepSpec(
            params=params,
            inputs=base_inputs,
            z_axis=AxisSpec(0.0, 0.1, 101),
            label="fig2: z-scan, gamma=+1 (Zeno)",
        )
    if name == "fig3":
        # The sign change sits past the 2|k| = 0.2 resonance, so the axis
        # spans it; the closed form is finite there, so every cell is ok.
        params = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
        return SweepSpec(
            params=params,
            inputs=base_inputs,
            z_axis=AxisSpec(0.0, 0.1, 51),
            secondary_name="delta_k",
            secondary_axis=AxisSpec(1e-4, 0.3, 41),
            label="fig3: (gamma_z, delta_k) surface, Zeno<->anti-Zeno transition",
        )
    if name == "fig4":
        params = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
        return SweepSpec(
            params=params,
            inputs=base_inputs,
            z_axis=AxisSpec(0.0, 0.1, 51),
            secondary_name="k_magnitude",
            secondary_axis=AxisSpec(0.05, 0.5, 41),
            label="fig4: (gamma_z, k) surface, uniformly Zeno",
        )
    raise InvalidParameters(f"unknown preset {name!r}; expected fig2, fig3 or fig4")
