"""In-memory span tracing around the package's public functions.

A `Tracer` replaces each traced function at every name a `zenocoupler`
module binds it under (so `fock._apply_kernel`, the kernels module's
`apply_generator` as `fock` sees it, is traced too) while installed, and
`uninstall` restores the originals.  Spans are stored column-wise in `array` buffers: name,
start, end, parent span and item id.  A layer is the first part of a span
name (`coefficients.compute_coefficients` belongs to `coefficients`).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# layer -> (defining module, public functions traced in it).
# `_propagate_raw` is the binding through which `oracle_zeno_parameter`
# reaches propagation; tracing it is the only way to see the
# PropagationReports that call discards.
TRACED = {
    "coefficients": ("zenocoupler.coefficients", ("compute_coefficients", "compute_h2_prime")),
    "observables": (
        "zenocoupler.observables",
        ("zeno_sample", "mean_photon_b2", "mean_photon_b2_uncoupled",
         "zeno_parameter", "classify", "mode_means"),
    ),
    "sweep": ("zenocoupler.sweep", ("run_sweep", "find_transitions", "preset_sweep")),
    "cli": ("zenocoupler.cli", ("main",)),
    "fock": (
        "zenocoupler.fock",
        ("oracle_zeno_parameter", "propagate", "_propagate_raw",
         "build_coherent_state", "mode_expectations"),
    ),
    "kernels": ("zenocoupler.kernels", ("apply_generator",)),
}
# Classes whose constructor is traced (patched on the class itself, so
# `dataclasses.replace` inside the package is seen as well).
TRACED_CLASSES = {"params": ("zenocoupler.params", ("CouplerParams", "CoherentInputs"))}


class Tracer:
    """Collects spans while installed; `install` and `uninstall` may alternate."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_id = array("i")
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.cells = 0
        self.steps_used: list[int] = []
        self.kernel_shapes: Counter = Counter()

    # -- span recording -------------------------------------------------
    def _wrap(self, name: str, fn, on_args=None, on_result=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item_id.append(self.item)
            self.end.append(0.0)
            stack.append(idx)
            if on_args is not None:
                on_args(args)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name: str):
        if name == "sweep.run_sweep":
            return None, self._count_cells
        if name == "fock._propagate_raw":
            return None, self._count_steps
        if name == "kernels.apply_generator":
            return self._count_kernel_shape, None
        return None, None

    def _count_cells(self, result):
        self.cells += len(result.cells)

    def _count_steps(self, report):
        self.steps_used.append(report.steps_used)

    def _count_kernel_shape(self, args):
        self.kernel_shapes[args[0].shape] += 1

    # -- installation ---------------------------------------------------
    def _prepare(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zenocoupler" or n.startswith("zenocoupler.")]
        for layer, (modname, funcs) in TRACED.items():
            for fname in funcs:
                original = getattr(sys.modules[modname], fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, *self._hooks(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))
        for layer, (modname, classes) in TRACED_CLASSES.items():
            for cname in classes:
                cls = getattr(sys.modules[modname], cname)
                wrapper = self._wrap(f"{layer}.{cname}", cls.__init__)
                self._patches.append((cls, "__init__", cls.__init__, wrapper))

    def install(self) -> None:
        """Route every traced binding through its span-recording wrapper."""
        if not self._patches:
            self._prepare()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original bindings."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays: (name_id, start, end, parent, item_id)."""
        import numpy as np

        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.item_id, dtype=np.int32))

    def by_name(self):
        """name -> (calls, inclusive seconds, self seconds, top-level seconds)."""
        import numpy as np

        nid, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = (int(sel.sum()), float(dur[sel].sum()),
                         float(self_time[sel].sum()),
                         float(dur[sel & ~has_parent].sum()))
        return out

    def write(self, path: Path) -> None:
        """Write all spans to an .npz file."""
        import numpy as np

        nid, start, end, parent, item = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=nid, start=start,
                 end=end, parent=parent, item_id=item)


# -- per-layer metrics -------------------------------------------------------

COMPLEX_BYTES = 16
REAL_BYTES = 8


def kernel_counts(shape) -> tuple[int, int]:
    """(flops, bytes) of one `_genapply_py.apply_generator` matvec, computed
    from the truncation shape, not measured.

    The four ladder terms each evaluate `c * u[..] * w[..] * x[slice]` left
    to right and add the product into `out[slice]`: a complex-by-real
    product on the first factor (2 flops per element), complex-by-real on
    the outer product of the first two (2), complex-by-complex against x (6)
    and a complex add (2).  Bytes count every array read and written,
    numpy's temporaries included, once per operation (cache reuse
    ignored); zeroing `out` writes the whole state.
    """
    da, d1, d2 = shape

    def term(n_u, n_w, n_v, n_x):
        # n_u: first factor, n_w: second factor, n_v: their outer product,
        # n_x: the state slice
        flops = 2 * n_u + 2 * n_v + 8 * n_x
        moved = (REAL_BYTES + COMPLEX_BYTES) * n_u                    # c * u
        moved += COMPLEX_BYTES * n_u + REAL_BYTES * n_w + COMPLEX_BYTES * n_v  # * w
        moved += COMPLEX_BYTES * n_v + 2 * COMPLEX_BYTES * n_x        # * x
        moved += 3 * COMPLEX_BYTES * n_x                              # out +=
        return flops, moved

    ab = term(da - 1, d1 - 1, (da - 1) * (d1 - 1), (da - 1) * (d1 - 1) * d2)
    bb = term(d1 - 2, d2 - 1, (d1 - 2) * (d2 - 1), da * (d1 - 2) * (d2 - 1))
    flops = 2 * ab[0] + 2 * bb[0]
    moved = 2 * ab[1] + 2 * bb[1] + COMPLEX_BYTES * da * d1 * d2
    return flops, moved


LAYER_UNITS = {
    "params.calls": "count",
    "params.self_s": "s",
    "coefficients.calls": "count",
    "coefficients.self_s": "s",
    "coefficients.us_per_call": "us",
    "coefficients.calls_per_item": "1/item",
    "observables.calls": "count",
    "observables.self_s": "s",
    "sweep.cells": "count",
    "sweep.self_s": "s",
    "sweep.transitions_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "fock.s_per_point": "s",
    "fock.s_per_row_z": "s",
    "fock.propagate_self_s": "s",
    "fock.coherent_state_s": "s",
    "fock.expectations_s": "s",
    "fock.steps_used_mean": "steps",
    "kernels.matvecs": "count",
    "kernels.matvecs_per_item": "1/item",
    "kernels.self_s": "s",
    "kernels.us_per_matvec": "us",
    "kernels.flops_computed": "flop",
    "kernels.bytes_computed": "B",
    "kernels.gflops_achieved": "GFLOP/s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, items: int, bytes_out: int,
                  overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of LAYER_UNITS; a layer that did not run
    reports 0."""
    spans = tracer.by_name()
    zero = (0, 0.0, 0.0, 0.0)

    def get(name):
        return spans.get(name, zero)

    def layer(prefix, field):
        return sum(v[field] for n, v in spans.items() if n.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    cc = get("coefficients.compute_coefficients")
    points = get("fock.oracle_zeno_parameter")
    rows = get("fock.propagate")
    matvecs = get("kernels.apply_generator")
    flops = sum(n * kernel_counts(shape)[0] for shape, n in tracer.kernel_shapes.items())
    moved = sum(n * kernel_counts(shape)[1] for shape, n in tracer.kernel_shapes.items())
    return {
        "params.calls": layer("params", 0),
        "params.self_s": layer("params", 2),
        "coefficients.calls": cc[0],
        "coefficients.self_s": layer("coefficients", 2),
        "coefficients.us_per_call": 1e6 * ratio(cc[2], cc[0]),
        "coefficients.calls_per_item": ratio(cc[0], items),
        "observables.calls": layer("observables", 0),
        "observables.self_s": layer("observables", 2),
        "sweep.cells": tracer.cells,
        "sweep.self_s": layer("sweep", 2),
        "sweep.transitions_s": get("sweep.find_transitions")[1],
        "cli.self_s": layer("cli", 2),
        "cli.bytes_out": bytes_out,
        "fock.s_per_point": ratio(points[3], points[0]),
        "fock.s_per_row_z": ratio(rows[3] + get("fock.mode_expectations")[3], rows[0]),
        "fock.propagate_self_s": get("fock.propagate")[2] + get("fock._propagate_raw")[2],
        "fock.coherent_state_s": get("fock.build_coherent_state")[1],
        "fock.expectations_s": get("fock.mode_expectations")[1],
        "fock.steps_used_mean": ratio(sum(tracer.steps_used), len(tracer.steps_used)),
        "kernels.matvecs": matvecs[0],
        "kernels.matvecs_per_item": ratio(matvecs[0], items),
        "kernels.self_s": matvecs[2],
        "kernels.us_per_matvec": 1e6 * ratio(matvecs[2], matvecs[0]),
        "kernels.flops_computed": flops,
        "kernels.bytes_computed": moved,
        "kernels.gflops_achieved": ratio(flops, matvecs[2]) / 1e9,
        "trace.overhead_frac": overhead_frac,
    }
