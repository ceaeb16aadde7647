import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from zenocoupler import (
    AxisSpec,
    Classification,
    CoherentInputs,
    CouplerParams,
    InvalidParameters,
    SweepCell,
    SweepResult,
    SweepSpec,
    TruncationSpec,
    ZenoCouplerError,
    ZenoSample,
    classify,
    compute_coefficients,
    compute_h2_prime,
    find_transitions,
    preset_sweep,
    run_sweep,
    validate_against_oracle,
    zeno_sample,
)
from zenocoupler import sweep
from zenocoupler.observables import _b2_numbers, _signs
from zenocoupler.sweep import SECONDARY_AXES, _cell_parameters, z_from_gamma_z

from conftest import random_params

FIG2_PARAMS = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4)
FIG2_INPUTS = CoherentInputs(alpha=5.0, beta=2.0, gamma=1.0)


def simple_spec(count=3, **kwargs):
    return SweepSpec(
        params=FIG2_PARAMS,
        inputs=FIG2_INPUTS,
        z_axis=AxisSpec(0.0, 0.1, count),
        **kwargs,
    )


class TestAxisSpec:
    def test_inclusive_linear_spacing(self):
        vals = AxisSpec(1.0, 2.0, 5).values()
        assert vals.tolist() == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_single_point(self):
        assert AxisSpec(0.3, 0.9, 1).values().tolist() == [0.3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            AxisSpec(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            AxisSpec(2.0, 1.0, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: AxisSpec(0.0, 1.0, 0),
        lambda: AxisSpec(2.0, 1.0, 3),
        lambda: AxisSpec(0.0, math.inf, 3),
        lambda: AxisSpec(math.nan, 1.0, 3),
        lambda: simple_spec(secondary_name="phi"),
        lambda: simple_spec(secondary_name="z", secondary_axis=AxisSpec(0.0, 1.0, 2)),
        lambda: SweepSpec(
            params=CouplerParams(k=0.1, gamma_nl=0.0, delta_k=1e-4),
            inputs=FIG2_INPUTS,
            z_axis=AxisSpec(0.0, 0.1, 3),
        ),
        lambda: TruncationSpec(0, 5, 5),
        lambda: TruncationSpec(300, 300, 300),
        lambda: classify(0.1, -1.0),
        lambda: classify(0.1, math.nan),
        lambda: preset_sweep("fig9"),
        lambda: validate_against_oracle(
            simple_spec(count=2), TruncationSpec(8, 8, 5), sample_count=1
        ),
        lambda: TruncationSpec(7.5, 7, 5),
        lambda: AxisSpec(0.0, 1.0, 2.5),
        lambda: validate_against_oracle(
            SweepSpec(FIG2_PARAMS, CoherentInputs(1.0, 1.0, 0.5), AxisSpec(0.0, 0.05, 2)),
            TruncationSpec(7, 7, 5), sample_count=-1,
        ),
    ],
    ids=[
        "axis-count", "axis-order", "axis-inf", "axis-nan", "sweep-half-axis",
        "sweep-axis-name", "sweep-zero-gamma-nl", "cutoff-floor", "memory-guard",
        "classify-tol", "classify-nan-tol", "preset-name", "oracle-amplitude",
        "cutoff-float", "axis-count-float", "oracle-negative-sample-count",
    ],
)
def test_malformed_input_raises_typed_error(build):
    with pytest.raises(InvalidParameters) as exc:
        build()
    assert isinstance(exc.value, ZenoCouplerError)
    assert isinstance(exc.value, ValueError)


def test_numpy_integer_counts_accepted():
    assert AxisSpec(0.0, 1.0, np.int64(3)).values().tolist() == [0.0, 0.5, 1.0]
    assert TruncationSpec(*np.array([7, 7, 5])).dimension == 8 * 8 * 6


def assert_cell_matches_scalar(cell, params, inputs):
    want = zeno_sample(params, inputs, cell.sample.z)
    assert cell.sample.z == want.z
    assert cell.sample.classification is want.classification
    # rounding scale: |gamma|^2 plus the magnitudes of the cross terms
    _, h2, h3, h4 = compute_coefficients(params, want.z).h
    h2p = compute_h2_prime(params.gamma_nl, params.delta_k, want.z)
    a, b, g = abs(inputs.alpha), abs(inputs.beta), abs(inputs.gamma)
    scale = g * g + 2 * g * (
        (abs(h2) + abs(h2p)) * b * b + abs(h3) * a * b + abs(h4) * a * a
    )
    for got, w in (
        (cell.sample.n_b2, want.n_b2),
        (cell.sample.n_b2_uncoupled, want.n_b2_uncoupled),
        (cell.sample.delta_n_z, want.delta_n_z),
    ):
        assert abs(got - w) <= 1e-13 * scale


class TestRunSweep:
    def test_ascending_z(self):
        result = run_sweep(simple_spec(count=3))
        assert len(result.cells) == 3
        gz = [c.gamma_z for c in result.cells]
        assert gz == sorted(gz)
        assert all(c.status == "ok" for c in result.cells)

    def test_lexicographic_ordering(self):
        spec = simple_spec(
            count=4, secondary_name="delta_k", secondary_axis=AxisSpec(1e-4, 0.1, 3)
        )
        result = run_sweep(spec)
        keys = [(c.secondary_index, c.z_index) for c in result.cells]
        assert keys == sorted(keys)

    def test_determinism(self):
        spec = preset_sweep("fig2")
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert [
            (c.gamma_z, c.sample.delta_n_z if c.sample else None) for c in a.cells
        ] == [(c.gamma_z, c.sample.delta_n_z if c.sample else None) for c in b.cells]

    def test_resonance_cells_ok_in_band(self):
        spec = simple_spec(
            count=2,
            secondary_name="delta_k",
            secondary_axis=AxisSpec(0.1, 0.3, 3),  # middle value hits 2|k| = 0.2
        )
        result = run_sweep(spec)
        assert len(result.cells) == 6  # grid shape preserved
        assert result.row_status == ("ok", "ok", "ok")
        for cell in result.cells:
            params, inputs = _cell_parameters(spec, "delta_k", cell.secondary_value)
            assert_cell_matches_scalar(cell, params, inputs)

    def test_fig2_preset_all_zeno(self):
        result = run_sweep(preset_sweep("fig2"))
        assert len(result.cells) == 101
        for c in result.cells:
            if c.gamma_z > 0:
                assert c.sample.classification is Classification.ZENO

    def test_fig3_preset_has_transition(self):
        result = run_sweep(preset_sweep("fig3"))
        classes = {c.sample.classification for c in result.cells if c.sample}
        assert Classification.ZENO in classes
        assert Classification.ANTI_ZENO in classes
        assert find_transitions(result)

    def test_fig4_preset_no_anti_zeno(self):
        result = run_sweep(preset_sweep("fig4"))
        evaluable = [c for c in result.cells if c.sample is not None]
        assert evaluable
        assert all(
            c.sample.classification is not Classification.ANTI_ZENO for c in evaluable
        )

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_sweep("fig9")


    def test_zero_gamma_nl_cell_marked(self):
        # rescaled length has no meaning at gamma_nl = 0: that cell is an
        # error marker, the others convert with their own gamma_nl
        spec = SweepSpec(
            params=FIG2_PARAMS,
            inputs=FIG2_INPUTS,
            z_axis=AxisSpec(0.05, 0.05, 1),
            secondary_name="gamma_nl",
            secondary_axis=AxisSpec(0.0, 0.002, 3),
        )
        first, *rest = run_sweep(spec).cells
        assert first.sample is None and first.status == "invalid"
        assert "|gamma_nl|" in first.message
        for cell in rest:
            params = CouplerParams(k=0.1, gamma_nl=cell.secondary_value, delta_k=1e-4)
            want = zeno_sample(params, FIG2_INPUTS, 0.05 / cell.secondary_value)
            assert cell.status == "ok" and cell.sample == want

    def test_invalid_and_degenerate_cells_told_apart(self):
        # k = 0 breaks a precondition; 2|k| = 0.2 = dk, on the resonance, is ok
        spec = SweepSpec(
            params=CouplerParams(k=0.3, gamma_nl=0.001, delta_k=0.2),
            inputs=FIG2_INPUTS,
            z_axis=AxisSpec(0.0, 0.1, 2),
            secondary_name="k_magnitude",
            secondary_axis=AxisSpec(0.0, 0.2, 3),
        )
        cells = run_sweep(spec).cells
        assert [c.status for c in cells] == ["invalid"] * 2 + ["ok"] * 4
        assert "k must be nonzero" in cells[0].message
        resonance = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=0.2)
        for cell in cells[2:4]:
            assert_cell_matches_scalar(cell, resonance, FIG2_INPUTS)

    def test_overflowing_length_row_is_invalid(self):
        # 0.1 / 1e-310 overflows z; that row fails alone, with no
        # RuntimeWarning from the division
        spec = SweepSpec(
            params=FIG2_PARAMS,
            inputs=FIG2_INPUTS,
            z_axis=AxisSpec(0.0, 0.1, 2),
            secondary_name="gamma_nl",
            secondary_axis=AxisSpec(1e-310, 0.001, 3),
        )
        result = run_sweep(spec)
        assert result.row_status == ("invalid", "ok", "ok")
        assert "overflows z" in result.row_message[0]
        assert np.all(np.isnan(result.z[0])) and np.all(result.sign[0] == 0)
        for cell in result.cells[2:]:
            params = CouplerParams(k=0.1, gamma_nl=cell.secondary_value, delta_k=1e-4)
            want = zeno_sample(params, FIG2_INPUTS, cell.gamma_z / cell.secondary_value)
            assert cell.sample == want

    def test_length_overflow_raises(self):
        with pytest.raises(InvalidParameters, match="overflows z"):
            z_from_gamma_z(np.array([0.0, 0.1]), 1e-310)
        with pytest.raises(InvalidParameters, match="overflows z"):
            z_from_gamma_z(1e300, 1e-10)
        assert z_from_gamma_z(0.0, 1e-310) == 0.0

    def test_rows_match_scalar_cells(self, rng):
        # Each row is one array evaluation; every cell must equal zeno_sample
        # at its own z up to rounding, on the scale of the terms it sums.
        rows = 0
        while rows < 240:
            p = random_params(rng)
            name = SECONDARY_AXES[rows // 4 % len(SECONDARY_AXES)]
            spec = SweepSpec(
                params=p,
                inputs=CoherentInputs(*(
                    complex(rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                    for _ in range(3)
                )),
                z_axis=AxisSpec(0.0, rng.uniform(0.01, 2.0), 7),
                secondary_name=name,
                secondary_axis={
                    "delta_k": AxisSpec(0.0, 1.5 * abs(p.k), 4),
                    "k_magnitude": AxisSpec(0.05, 1.0, 4),
                    "phi": AxisSpec(0.0, 2 * np.pi, 4),
                    "gamma_nl": AxisSpec(1e-4, 0.05, 4),
                }[name],
            )
            for cell in run_sweep(spec).cells:
                if cell.status != "ok":
                    continue
                params, inputs = _cell_parameters(spec, name, cell.secondary_value)
                assert_cell_matches_scalar(cell, params, inputs)
            rows += 4

    def test_series_switch_inside_a_row(self):
        # tiny dk: |dk z| runs from 0 to about 4e-6 along each row (z = 0 to 2000)
        spec = SweepSpec(
            params=FIG2_PARAMS,
            inputs=FIG2_INPUTS,
            z_axis=AxisSpec(0.0, 2.0, 41),
            secondary_name="delta_k",
            secondary_axis=AxisSpec(0.5e-9, 2e-9, 4),
        )
        cells = run_sweep(spec).cells
        for cell in cells:
            params, inputs = _cell_parameters(spec, "delta_k", cell.secondary_value)
            assert_cell_matches_scalar(cell, params, inputs)


def pair_loop(cells, ns, nz):
    """Reference bracket list: every adjacent pair of opposite signs, in
    row-major order, the z neighbour first."""
    grid = {(c.secondary_index, c.z_index): c for c in cells}

    def opposite(a, b):
        if a.sample is None or b.sample is None:
            return False
        pair = {a.sample.classification, b.sample.classification}
        return pair == {Classification.ZENO, Classification.ANTI_ZENO}

    brackets = []
    for si in range(ns):
        for zi in range(nz):
            cell = grid[si, zi]
            if zi + 1 < nz and opposite(cell, grid[si, zi + 1]):
                brackets.append((cell, grid[si, zi + 1]))
            if si + 1 < ns and opposite(cell, grid[si + 1, zi]):
                brackets.append((cell, grid[si + 1, zi]))
    return brackets


class TestFindTransitions:
    def test_all_negative_is_empty(self):
        result = run_sweep(preset_sweep("fig2"))
        assert find_transitions(result) == []

    def test_single_bracket(self):
        # phi sweep crosses zero between phi=0 (Zeno) and phi=pi (anti-Zeno)
        spec = simple_spec(
            count=1,
            secondary_name="phi",
            secondary_axis=AxisSpec(0.0, np.pi, 2),
        )
        spec = SweepSpec(
            params=spec.params,
            inputs=spec.inputs,
            z_axis=AxisSpec(0.05, 0.05, 1),
            secondary_name="phi",
            secondary_axis=AxisSpec(0.0, np.pi, 2),
        )
        brackets = find_transitions(run_sweep(spec))
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo.sample.classification is Classification.ZENO
        assert hi.sample.classification is Classification.ANTI_ZENO

    def test_too_few_samples(self):
        result = run_sweep(simple_spec(count=1))
        with pytest.raises(ValueError):
            find_transitions(result)

    def test_too_few_samples_is_typed_error(self):
        with pytest.raises(ZenoCouplerError):
            find_transitions(run_sweep(simple_spec(count=1)))

    def test_matches_pair_loop_on_random_grids(self, rng):
        # columnar results with random signs and failed rows, checked
        # against the pair loop over their cells
        for _ in range(200):
            ns, nz = (int(n) for n in rng.integers(1, 7, size=2))
            if ns * nz < 2:
                continue
            spec = SweepSpec(
                params=FIG2_PARAMS,
                inputs=FIG2_INPUTS,
                z_axis=AxisSpec(0.0, 0.1, nz),
                secondary_name="phi",
                secondary_axis=AxisSpec(0.0, 1.0, ns),
            )
            failed = rng.random(ns) < 0.25
            sign = rng.integers(-1, 2, size=(ns, nz)).astype(np.int8)
            sign[failed] = 0
            numbers = np.where(failed[:, None], np.nan, sign.astype(float))
            result = SweepResult(
                spec, spec.z_axis.values(), tuple(spec.secondary_axis.values().tolist()),
                numbers, numbers, numbers, numbers, sign,
                tuple("invalid" if f else "ok" for f in failed),
                tuple("k must be nonzero" if f else "" for f in failed),
            )
            assert find_transitions(result) == pair_loop(result.cells, ns, nz)

    def test_builds_each_end_once(self, monkeypatch):
        # a checkerboard: every inner cell ends four brackets
        ns, nz = 4, 5
        spec = SweepSpec(
            params=FIG2_PARAMS,
            inputs=FIG2_INPUTS,
            z_axis=AxisSpec(0.0, 0.1, nz),
            secondary_name="phi",
            secondary_axis=AxisSpec(0.0, 1.0, ns),
        )
        sign = np.where(np.add.outer(np.arange(ns), np.arange(nz)) % 2, 1, -1).astype(np.int8)
        numbers = sign.astype(float)
        result = SweepResult(
            spec, spec.z_axis.values(), tuple(spec.secondary_axis.values().tolist()),
            numbers, numbers, numbers, numbers, sign, ("ok",) * ns, ("",) * ns,
        )
        built = []
        cell_type = sweep.SweepCell

        def counting(*args):
            built.append(cell_type(*args))
            return built[-1]

        monkeypatch.setattr(sweep, "SweepCell", counting)
        brackets = find_transitions(result)
        monkeypatch.undo()
        assert len(brackets) == ns * (nz - 1) + (ns - 1) * nz
        ends = {(cell.secondary_index, cell.z_index) for pair in brackets for cell in pair}
        assert len(built) == len(ends) == ns * nz
        assert brackets == pair_loop(result.cells, ns, nz)

    def test_builds_only_the_cells_it_returns(self):
        result = run_sweep(preset_sweep("fig3"))
        brackets = find_transitions(result)
        assert brackets and "cells" not in vars(result)  # the view is unbuilt
        assert brackets == pair_loop(result.cells, result.n_secondary, result.n_z)


def eager_cells(spec):
    """The cells of `spec` built one by one, each ok cell from its row's
    `_b2_numbers` and the scalar `classify`."""
    gamma_z = spec.z_axis.values()
    if spec.secondary_axis is None:
        sec_values = [None]
    else:
        sec_values = spec.secondary_axis.values().tolist()
    cells = []
    for si, sv in enumerate(sec_values):
        try:
            params, inputs = _cell_parameters(spec, spec.secondary_name, sv)
            z = z_from_gamma_z(gamma_z, params.gamma_nl)
            row = _b2_numbers(params, inputs, z)
        except InvalidParameters as exc:
            cells.extend(SweepCell(si, zi, sv, gz, None, "invalid", str(exc))
                         for zi, gz in enumerate(gamma_z.tolist()))
            continue
        numbers = zip(gamma_z.tolist(), z.tolist(), *(v.tolist() for v in row))
        cells.extend(
            SweepCell(si, zi, sv, gz,
                      ZenoSample(zz, nb, nr, d, classify(d, spec.classification_tol)), "ok")
            for zi, (gz, zz, nb, nr, d) in enumerate(numbers)
        )
    return cells


def random_spec(rng, name):
    """A small random grid on a secondary axis; the delta_k and k_magnitude
    axes may cross the resonance, and the k_magnitude and gamma_nl axes
    start at 0, so some rows fail."""
    p = random_params(rng)
    return SweepSpec(
        params=p,
        inputs=CoherentInputs(*(
            complex(rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            for _ in range(3)
        )),
        z_axis=AxisSpec(0.0, rng.uniform(0.01, 2.0), 7),
        secondary_name=name,
        secondary_axis={
            "delta_k": AxisSpec(0.0, 4.0 * abs(p.k), 5),
            "k_magnitude": AxisSpec(0.0, 4.0 * abs(p.delta_k) + 0.1, 5),
            "phi": AxisSpec(0.0, 2 * np.pi, 5),
            "gamma_nl": AxisSpec(0.0, 0.05, 5),
        }[name],
    )


class TestColumnarResult:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_preset_cells_equal_eager_build(self, name):
        spec = preset_sweep(name)
        assert run_sweep(spec).cells == eager_cells(spec)

    def test_random_cells_equal_eager_build(self, rng):
        failed = 0
        for i in range(24):
            spec = random_spec(rng, SECONDARY_AXES[i % len(SECONDARY_AXES)])
            result = run_sweep(spec)
            assert result.cells == eager_cells(spec)
            failed += sum(status != "ok" for status in result.row_status)
        assert failed  # failed rows were covered

    def test_fields(self):
        spec = SweepSpec(
            params=CouplerParams(k=0.3, gamma_nl=0.001, delta_k=0.2),
            inputs=FIG2_INPUTS,
            z_axis=AxisSpec(0.0, 0.1, 4),
            secondary_name="k_magnitude",
            secondary_axis=AxisSpec(0.0, 0.2, 3),
        )
        result = run_sweep(spec)
        assert result.gamma_z.tolist() == spec.z_axis.values().tolist()
        assert result.secondary_values == (0.0, 0.1, 0.2)
        assert (result.n_secondary, result.n_z) == (3, 4)
        assert result.row_status == ("invalid", "ok", "ok")
        assert result.row_message[1:] == ("", "") and "nonzero" in result.row_message[0]
        assert result.sign.dtype == np.int8
        for name in ("z", "n_b2", "n_b2_uncoupled", "delta_n_z", "sign"):
            column = getattr(result, name)
            assert column.shape == (3, 4)
            assert np.isnan(column[:1]).all() if name != "sign" else not column[:1].any()
            with pytest.raises(ValueError):
                column[2, 0] = 0
        # row 1 sits on the 2|k| = dk resonance
        resonance = CouplerParams(k=0.1, gamma_nl=0.001, delta_k=0.2)
        for cell in result.cells[4:8]:
            assert_cell_matches_scalar(cell, resonance, FIG2_INPUTS)
        with pytest.raises(ValueError):
            result.gamma_z[0] = 1.0
        assert run_sweep(simple_spec(count=2)).secondary_values == (None,)

    def test_signs_match_classify(self, rng):
        tol = 1e-3
        d = np.concatenate([rng.uniform(-2e-3, 2e-3, 200), [tol, -tol, 0.0, -0.0]])
        want = [{Classification.ZENO: -1, Classification.NULL: 0,
                 Classification.ANTI_ZENO: 1}[classify(v, tol)] for v in d.tolist()]
        assert _signs(d, tol).tolist() == want

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_bad_tol_raises_on_ok_rows_only(self, tol):
        with pytest.raises(InvalidParameters, match="tol"):
            run_sweep(simple_spec(classification_tol=tol))
        # no ok cell is classified, as when each cell called classify
        all_failed = SweepSpec(
            params=FIG2_PARAMS, inputs=FIG2_INPUTS, z_axis=AxisSpec(0.0, 0.1, 2),
            secondary_name="k_magnitude", secondary_axis=AxisSpec(0.0, 0.0, 1),
            classification_tol=tol,
        )
        assert run_sweep(all_failed).row_status == ("invalid",)

    def test_overflowing_rows_are_invalid(self):
        # at these amplitudes the closed form overflows on every row but the
        # smallest k: those rows fail alone, and no RuntimeWarning escapes
        # (tier-1 makes one an error)
        spec = SweepSpec(
            params=FIG2_PARAMS, inputs=CoherentInputs(1e150, 1e150, 1e10),
            z_axis=AxisSpec(0.0, 0.1, 3),
            secondary_name="k_magnitude", secondary_axis=AxisSpec(1e-12, 0.1, 3),
        )
        result = run_sweep(spec)
        assert result.row_status == ("ok", "invalid", "invalid")
        assert all("closed form overflows" in m for m in result.row_message[1:])
        assert np.isfinite(result.delta_n_z[0]).all() and result.sign[0].any()
        assert np.isnan(result.delta_n_z[1:]).all() and not result.sign[1:].any()
        # an input photon number that overflows fails every row
        huge = run_sweep(dc_replace(spec, inputs=CoherentInputs(gamma=1e200)))
        assert huge.row_status == ("invalid",) * 3 and not huge.sign.any()
        assert all("photon number overflows" in m for m in huge.row_message)

    def test_phi_rows_share_one_evaluation(self, monkeypatch):
        spec = simple_spec(count=9, secondary_name="phi",
                           secondary_axis=AxisSpec(0.0, 2 * np.pi, 5))
        calls = [0]
        evaluate = sweep._b2_coefficients

        def spy(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(sweep, "_b2_coefficients", spy)
        result = run_sweep(spec)
        assert calls[0] == 1
        for si, phi in enumerate(result.secondary_values):
            params, inputs = _cell_parameters(spec, "phi", phi)
            row = _b2_numbers(params, inputs, result.z[si])
            for got, want in zip(
                    (result.n_b2, result.n_b2_uncoupled, result.delta_n_z), row):
                assert np.array_equal(got[si], want)


class TestValidateAgainstOracle:
    def test_rejects_large_amplitudes(self):
        with pytest.raises(ValueError):
            validate_against_oracle(
                simple_spec(count=2), TruncationSpec(8, 8, 5), sample_count=1
            )

    def test_rejects_large_second_harmonic_amplitude(self):
        spec = SweepSpec(
            params=FIG2_PARAMS,
            inputs=CoherentInputs(alpha=1.0, beta=1.0, gamma=3.0),
            z_axis=AxisSpec(0.0, 0.05, 2),
        )
        with pytest.raises(ValueError, match="gamma"):
            validate_against_oracle(spec, TruncationSpec(10, 10, 6), sample_count=1)

    def test_small_amplitude_report(self):
        spec = SweepSpec(
            params=FIG2_PARAMS,
            inputs=CoherentInputs(alpha=1.0, beta=1.0, gamma=0.5),
            z_axis=AxisSpec(0.0, 0.05, 6),
        )
        report = validate_against_oracle(
            spec,
            TruncationSpec(10, 10, 6),
            sample_count=2,
        )
        assert report.sampled_cells == 2
        # discrepancy is the O(gamma_nl^2) remainder: small but nonzero
        assert 0 < report.max_discrepancy < 1e-2
        assert 3.0 <= report.contraction_ratio <= 5.0
        assert 0 <= report.max_norm_drift <= 1e-10
        assert 0 <= report.max_conservation_drift <= 1e-8
