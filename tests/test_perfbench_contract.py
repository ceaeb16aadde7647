"""The names the benchmark harness in perfbench/ reads from the package,
and the attributes it reads on the package's results.

perfbench/ is not collected by these tests and changes only with the
benchmark, so a name pruned from the package, or an attribute dropped from
a result, would otherwise surface only when `perfbench/run.py` (or its
`--trace 1` tracer) is next run.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import zenocoupler as zc
import zenocoupler.cli  # noqa: F401  (binds zc.cli, as perfbench/workloads.py does)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports only the standard library
    return module


def _traced_bindings():
    tracing = _load_tracing()
    for table in (tracing.TRACED, tracing.TRACED_CLASSES):
        for modname, names in table.values():
            for name in names:
                yield modname, name


def _source(name):
    return (PERFBENCH / name).read_text(encoding="utf-8")


def _package_reads():
    """`zc.<name>` reads in the harness's workloads and runner."""
    return sorted({name for f in ("workloads.py", "run.py")
                   for name in re.findall(r"\bzc\.(\w+)", _source(f))})


def _submodule_imports():
    """(module, name) of each `from zenocoupler.<module> import ...` there."""
    pairs = set()
    for f in ("workloads.py", "run.py"):
        for mod, names in re.findall(r"^from (zenocoupler\.\w+) import ([\w, ]+)$",
                                     _source(f), flags=re.M):
            pairs.update((mod, n.strip()) for n in names.split(","))
    return sorted(pairs)


def test_harness_sources_found():
    # an empty parametrisation below would pass without checking anything
    assert list(_traced_bindings()) and _package_reads() and _submodule_imports()


@pytest.mark.parametrize("modname,name", list(_traced_bindings()))
def test_traced_names_resolve(modname, name):
    assert hasattr(importlib.import_module(modname), name)


@pytest.mark.parametrize("name", _package_reads())
def test_package_reads_resolve(name):
    assert hasattr(zc, name)


@pytest.mark.parametrize("modname,name", _submodule_imports())
def test_submodule_imports_resolve(modname, name):
    assert hasattr(importlib.import_module(modname), name)


# Attributes the harness reads on results (workloads.py checks every cell of
# a surface, tracing.py counts cells and matvecs), by the type that has them.
RESULT_READS = {
    "SweepResult": ("cells", "n_secondary", "n_z"),
    "SweepCell": ("status", "sample", "secondary_index", "z_index"),
    "ZenoSample": ("n_b2", "n_b2_uncoupled", "delta_n_z", "classification"),
    "PropagationReport": ("steps_used", "final_state", "norm_drift", "conservation_drift"),
}


@pytest.fixture(scope="module")
def results():
    """One of each result type, from a real `run_sweep` and `propagate`."""
    spec = zc.SweepSpec(
        params=zc.CouplerParams(k=0.1, gamma_nl=0.001, delta_k=1e-4),
        inputs=zc.CoherentInputs(5.0, 2.0, 1.0),
        z_axis=zc.AxisSpec(0.0, 0.1, 3),
        secondary_name="delta_k",
        secondary_axis=zc.AxisSpec(1e-4, 0.3, 2),
    )
    sweep = zc.run_sweep(spec)
    cell = sweep.cells[-1]
    report = zc.propagate(spec.params, zc.CoherentInputs(0.3, 0.3, 0.2), 1.0,
                          zc.TruncationSpec(7, 7, 5))
    return {"SweepResult": sweep, "SweepCell": cell, "ZenoSample": cell.sample,
            "PropagationReport": report}


@pytest.mark.parametrize("owner,name", [(owner, name) for owner, names in RESULT_READS.items()
                                        for name in names])
def test_result_attributes_resolve(results, owner, name):
    assert type(results[owner]).__name__ == owner
    assert hasattr(results[owner], name)


def test_oracle_point_as_the_tracer_sees_it():
    # perfbench's oracle_scan layer metrics read, from one
    # oracle_zeno_parameter point: a CoherentInputs construction
    # (params.calls), one build_coherent_state call (fock.coherent_state_s),
    # one report returned through _propagate_raw (fock.steps_used_mean),
    # and the 3-D grid each kernel call gets (kernels.flops_computed)
    tracer = _load_tracing().Tracer()
    params = zc.CouplerParams(k=0.1, gamma_nl=1e-3, delta_k=1e-2)
    inputs = zc.CoherentInputs(0.31, 0.29j, 0.2)
    tracer.install()
    try:
        zc.oracle_zeno_parameter(params, inputs, 6.0, zc.TruncationSpec(7, 7, 5))
    finally:
        tracer.uninstall()
    calls = {name: spans[0] for name, spans in tracer.by_name().items()}
    assert calls["params.CoherentInputs"] >= 1
    assert calls["fock.build_coherent_state"] == 1
    assert calls["fock._propagate_raw"] == 1
    assert len(tracer.steps_used) == 1 and tracer.steps_used[0] > 0
    assert calls["kernels.apply_generator"] == tracer.steps_used[0]
    assert {len(shape) for shape in tracer.kernel_shapes} == {3}
