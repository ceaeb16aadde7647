"""Figure-reproduction sweeps: 1-D z-scans and 2-D surfaces of the Zeno
parameter, zero-crossing detection, and oracle cross-validation.

The z axis is expressed in rescaled length (gamma_nl * z), matching the
horizontal axis of the paper-style plots; each cell converts back to z
using the magnitude of its own nonlinear coupling.

`run_sweep` evaluates a grid row by row: within a row (one secondary-axis
value) the couplings and inputs are fixed, so the closed form runs once
over the row's z array and the row's cells are built from that array
evaluation.  Each cell equals the scalar `zeno_sample` at its own z to
rounding.  A row whose parameters raise becomes a row of error markers:
status "degenerate" for DegenerateParameters (the 2|k| = |dk| resonance),
"invalid" for InvalidParameters (e.g. k = 0 or gamma_nl = 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .errors import DegenerateParameters, InvalidParameters
from .fock import TruncationSpec, oracle_zeno_parameter
from .observables import (
    DEFAULT_CLASSIFICATION_TOL,
    Classification,
    ZenoSample,
    _b2_numbers,
    classify,
    zeno_parameter,
)
from .params import CoherentInputs, CouplerParams

SECONDARY_AXES = ("delta_k", "k_magnitude", "phi", "gamma_nl")


def z_from_gamma_z(gamma_z, gamma_nl: complex):
    """Plain length z = gamma_z / |gamma_nl| (scalar or array) for a
    rescaled length; it has no meaning when gamma_nl = 0."""
    g = abs(complex(gamma_nl))
    if g == 0:
        raise InvalidParameters("rescaled length gamma_nl*z needs |gamma_nl| > 0")
    return gamma_z / g


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive linear axis: count points from min to max."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise InvalidParameters("axis count must be >= 1")
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
    label: str = ""

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
    # "ok"; "degenerate" on the 2|k| = |dk| resonance (DegenerateParameters);
    # "invalid" where the cell's parameters break a precondition
    # (InvalidParameters, e.g. k = 0 or gamma_nl = 0)
    status: str
    message: str = ""


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: list[SweepCell] = field(default_factory=list)

    @property
    def n_secondary(self) -> int:
        return 1 if self.spec.secondary_axis is None else self.spec.secondary_axis.count

    @property
    def n_z(self) -> int:
        return self.spec.z_axis.count


def _cell_parameters(spec: SweepSpec, name: str | None, value: float | None):
    """Per-cell (params, inputs); raises on invariant violations."""
    params, inputs = spec.params, spec.inputs
    if name is None:
        return params, inputs
    if name == "delta_k":
        params = dc_replace(params, delta_k=float(value))
    elif name == "k_magnitude":
        k = complex(params.k)
        phase = cmath.exp(1j * cmath.phase(k)) if k != 0 else 1.0
        params = dc_replace(params, k=float(value) * phase)
    elif name == "gamma_nl":
        g = complex(params.gamma_nl)
        phase = cmath.exp(1j * cmath.phase(g)) if g != 0 else 1.0
        params = dc_replace(params, gamma_nl=float(value) * phase)
    elif name == "phi":
        inputs = inputs.with_phi(float(value))
    return params, inputs


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the Zeno parameter over the grid, lexicographically ordered
    in (secondary index, z index), one pass per row; cells whose parameters
    raise become error markers."""
    gamma_z_values = spec.z_axis.values()
    gamma_z_list = gamma_z_values.tolist()
    if spec.secondary_axis is None:
        sec_values = [None]
    else:
        sec_values = spec.secondary_axis.values().tolist()

    tol = spec.classification_tol
    cells: list[SweepCell] = []
    for si, sv in enumerate(sec_values):
        try:
            params, inputs = _cell_parameters(spec, spec.secondary_name, sv)
            z_values = z_from_gamma_z(gamma_z_values, params.gamma_nl)
        except (DegenerateParameters, InvalidParameters) as exc:
            status = "degenerate" if isinstance(exc, DegenerateParameters) else "invalid"
            cells.extend(
                SweepCell(si, zi, sv, gz, None, status, str(exc))
                for zi, gz in enumerate(gamma_z_list)
            )
            continue
        n_b2, n_ref, dnz = _b2_numbers(params, inputs, z_values)
        cells.extend(
            SweepCell(si, zi, sv, gz, ZenoSample(z, nb, nr, d, classify(d, tol)), "ok")
            for zi, (gz, z, nb, nr, d) in enumerate(zip(
                gamma_z_list, z_values.tolist(), n_b2.tolist(), n_ref.tolist(),
                dnz.tolist()))
        )
    return SweepResult(spec=spec, cells=cells)


_SIGN = {Classification.ZENO: -1, Classification.ANTI_ZENO: 1, Classification.NULL: 0}


def find_transitions(result: SweepResult) -> list[tuple[SweepCell, SweepCell]]:
    """Adjacent cell pairs (along either grid axis) whose Zeno parameters
    have strictly opposite sign classifications, in row-major order of
    their first cell, the z neighbour before the secondary neighbour."""
    if len(result.cells) < 2:
        raise InvalidParameters("need at least 2 samples to bracket a transition")
    ns, nz = result.n_secondary, result.n_z
    grid = {}
    sign = np.zeros((ns, nz), dtype=np.int8)  # 0 for Null and error cells
    for c in result.cells:
        key = (c.secondary_index, c.z_index)
        grid[key] = c
        if c.sample is not None:
            sign[key] = _SIGN[c.sample.classification]
    # opposite[si, zi, 0]: (si, zi) and (si, zi + 1); [..., 1]: and (si + 1, zi)
    opposite = np.zeros((ns, nz, 2), dtype=bool)
    opposite[:, :-1, 0] = sign[:, :-1] * sign[:, 1:] < 0
    opposite[:-1, :, 1] = sign[:-1, :] * sign[1:, :] < 0
    return [
        (grid[si, zi], grid[si + axis, zi + 1 - axis])
        for si, zi, axis in zip(*(idx.tolist() for idx in np.nonzero(opposite)))
    ]


@dataclass(frozen=True)
class OracleValidationReport:
    max_discrepancy: float
    sampled_cells: int
    contraction_ratio: float


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
    result = run_sweep(spec)
    ok_cells = [c for c in result.cells if c.status == "ok" and c.gamma_z > 0]
    rng = np.random.default_rng(ORACLE_SAMPLE_SEED)
    chosen = rng.choice(len(ok_cells), size=min(sample_count, len(ok_cells)), replace=False)

    max_disc = 0.0
    for idx in sorted(int(i) for i in chosen):
        cell = ok_cells[idx]
        params, inputs = _cell_parameters(
            spec, spec.secondary_name, cell.secondary_value
        )
        z = cell.sample.z
        exact = oracle_zeno_parameter(params, inputs, z, truncation)
        max_disc = max(max_disc, abs(exact - cell.sample.delta_n_z))

    params, inputs = spec.params, spec.inputs
    z = z_from_gamma_z(spec.z_axis.max, params.gamma_nl)
    d = []
    for scale in (1.0, 0.5):
        p = dc_replace(params, gamma_nl=complex(params.gamma_nl) * scale)
        exact = oracle_zeno_parameter(p, inputs, z, truncation)
        d.append(abs(exact - zeno_parameter(p, inputs, z)))
    ratio = d[0] / d[1] if d[1] > 0 else math.inf
    return OracleValidationReport(
        max_discrepancy=max_disc, sampled_cells=len(chosen), contraction_ratio=ratio
    )


def preset_sweep(name: str) -> SweepSpec:
    """Figure-reproduction presets.

    Axis extents are implementation choices (the source figures label no
    numeric ranges); they are chosen to exhibit the captioned behavior and
    are echoed in the sweep metadata.
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
        # spans it; cells inside the guard band become error markers.
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
