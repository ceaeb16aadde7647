import math

import numpy as np
import pytest

from zenocoupler import (
    AxisSpec,
    Classification,
    CoherentInputs,
    CouplerParams,
    InvalidParameters,
    SweepSpec,
    TruncationSpec,
    ZenoCouplerError,
    classify,
    find_transitions,
    preset_sweep,
    run_sweep,
    validate_against_oracle,
    zeno_sample,
)

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
    ],
    ids=[
        "axis-count", "axis-order", "axis-inf", "axis-nan", "sweep-half-axis",
        "sweep-axis-name", "sweep-zero-gamma-nl", "cutoff-floor", "memory-guard",
        "classify-tol", "classify-nan-tol", "preset-name", "oracle-amplitude",
    ],
)
def test_malformed_input_raises_typed_error(build):
    with pytest.raises(InvalidParameters) as exc:
        build()
    assert isinstance(exc.value, ZenoCouplerError)
    assert isinstance(exc.value, ValueError)


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

    def test_degenerate_cells_marked_in_band(self):
        spec = simple_spec(
            count=2,
            secondary_name="delta_k",
            secondary_axis=AxisSpec(0.1, 0.3, 3),  # middle value hits 2|k| = 0.2
        )
        result = run_sweep(spec)
        assert len(result.cells) == 6  # grid shape preserved
        statuses = {}
        for c in result.cells:
            statuses.setdefault(c.secondary_index, set()).add(c.status)
        assert statuses[0] == {"ok"}
        assert statuses[1] == {"degenerate"}
        assert statuses[2] == {"ok"}

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
        assert first.sample is None and first.status == "degenerate"
        assert "|gamma_nl|" in first.message
        for cell in rest:
            params = CouplerParams(k=0.1, gamma_nl=cell.secondary_value, delta_k=1e-4)
            want = zeno_sample(params, FIG2_INPUTS, 0.05 / cell.secondary_value)
            assert cell.status == "ok" and cell.sample == want


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
