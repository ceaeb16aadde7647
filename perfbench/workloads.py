"""The three seeded workloads, their inputs and their output checks.

A workload yields rounds: lists of top-level calls built from a numpy
generator seeded by the caller.  Each round has the same composition for
every seed (the seed only draws values inside fixed strata), so a run of
whole rounds measures the same mix of work whatever the seed.  The
benchmark calls the package through module attributes (`zc.zeno_sample`,
`zc.cli.main`) at call time, so a traced run sees those calls too.

`trace_rounds` is the fixed number of rounds of a traced run's two
passes at the full run length, so that the per-layer totals count the same
work whatever the program's speed.

Every call is `(fn, args, items)`; `check(call, out)` returns the number of
the call's items that failed, and `summary(call, out)` the value compared
with the reference recorded for the default seed.
"""

from __future__ import annotations

import contextlib
import cmath
import hashlib
import io
import math
from dataclasses import replace

import numpy as np

import zenocoupler as zc
import zenocoupler.cli  # noqa: F401  (binds zc.cli)
from zenocoupler.coefficients import compute_coefficients
from zenocoupler.fock import build_coherent_state, mode_expectations
from zenocoupler.observables import Classification, classify

TWO_PI = 2.0 * math.pi

# Invariant thresholds: closed-form identities to 1e-12; oracle norm and
# conservation drift as in acceptance criterion 08; default-seed oracle
# agreement at 10x the oracle's default tolerance.
CLOSED_FORM_TOL = 1e-12
PERTURBATIVE_CONSERVATION_TOL = 1e-10
ORACLE_NORM_TOL = 1e-10
ORACLE_CONSERVATION_TOL = 1e-8
ORACLE_REFERENCE_TOL = 1e-8
# Oracle points against the closed form, which is first order in gamma_nl.
# At the oracle_scan amplitudes the gap (second order in gamma_nl*z) is at
# most 3.2e-7 across seeds; 1e-6 is about 1% of a typical |dN_Z| there.
ORACLE_CLOSED_FORM_TOL = 1e-6

_CLASS_CODE = {Classification.ZENO: "Z", Classification.ANTI_ZENO: "A",
               Classification.NULL: "N"}


def _phase(rng) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, TWO_PI))


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _digest(codes: str) -> str:
    return hashlib.sha256(codes.encode()).hexdigest()[:16]


def _off_resonance(dk: float, k_mag: float, band: float) -> float:
    """Shift dk out of the |dk - 2|k|| < band*|k| resonance band."""
    if abs(dk - 2.0 * k_mag) < band * k_mag:
        dk += 2.0 * band * k_mag
    return dk


class Workload:
    """Defaults shared by the workloads."""

    preset_digests: dict | None = None

    def output_bytes(self, call, out) -> int:
        return 0

    def same(self, summary, reference) -> bool:
        return summary == reference


class ClosedFormPoints(Workload):
    """Scattered scalar queries: build the parameter objects, then one
    `zeno_sample` and one `mode_means` at one z, as library callers and
    `zenocoupler validate` do."""

    name = "closed_form_points"
    item = "one query: CouplerParams + CoherentInputs + zeno_sample + mode_means at one z"
    round_size = 1000
    series_every = 10  # every 10th query takes the dk -> 0 series branch
    reference_rounds = 4
    trace_rounds = 220

    @staticmethod
    def query(k, gamma_nl, delta_k, alpha, beta, gamma, z):
        params = zc.CouplerParams(k=k, gamma_nl=gamma_nl, delta_k=delta_k)
        inputs = zc.CoherentInputs(alpha, beta, gamma)
        return params, zc.zeno_sample(params, inputs, z), zc.mode_means(params, inputs, z)

    def rounds(self, rng):
        n = self.round_size
        while True:
            k_mag = rng.uniform(0.05, 0.5, n)
            k = k_mag * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
            g = k_mag * rng.uniform(1e-3, 0.05, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
            dk = rng.uniform(0.0, 3.0, n) * k_mag
            near = np.abs(dk - 2.0 * k_mag) < 0.1 * k_mag
            dk[near] += 0.2 * k_mag[near]
            dk[::self.series_every] = k_mag[::self.series_every] * rng.uniform(
                1e-12, 1e-10, len(dk[::self.series_every]))
            z = rng.uniform(0.0, 200.0, n)
            amps = rng.uniform(0.0, 3.0, (3, n)) * np.exp(1j * rng.uniform(0.0, TWO_PI, (3, n)))
            cols = (k.tolist(), g.tolist(), dk.tolist(), *(a.tolist() for a in amps), z.tolist())
            yield [(self.query, args, 1) for args in zip(*cols)]

    def warm_up(self):
        self.query(0.1, 0.001, 1e-4, 5.0, 2.0, 1.0, 50.0)

    def check(self, call, out) -> int:
        k, _, delta_k, alpha, beta, gamma, z = call[1]
        params, s, (n_a, n_b1, n_b2) = out
        if not _finite(s.n_b2, s.n_b2_uncoupled, s.delta_n_z, n_a, n_b1, n_b2):
            return 1
        if abs(s.delta_n_z - (s.n_b2 - s.n_b2_uncoupled)) > CLOSED_FORM_TOL:
            return 1
        if s.classification is not classify(s.delta_n_z):
            return 1
        total0 = abs(alpha) ** 2 + abs(beta) ** 2 + 2.0 * abs(gamma) ** 2
        if abs(n_a + n_b1 + 2.0 * n_b2 - total0) > PERTURBATIVE_CONSERVATION_TOL:
            return 1
        if delta_k < 1e-9 * abs(k):
            # f1 and f2 do not depend on dk, so the one query in ten that
            # takes the series branch is enough to check them
            c = compute_coefficients(params, z)
            f1, f2 = c.f[0], c.f[1]
            if abs(f1 - c.g[1]) > CLOSED_FORM_TOL or abs(abs(f1) ** 2 + abs(f2) ** 2 - 1.0) > CLOSED_FORM_TOL:
                return 1
        return 0

    def summary(self, call, out):
        return _CLASS_CODE[out[1].classification]

    def corrupt(self, out):
        params, s, means = out
        return params, replace(s, delta_n_z=s.delta_n_z + 1e-6), means


class ClosedFormMaps(Workload):
    """Figure presets through the CLI, then seeded 2-D surfaces through
    `run_sweep` and `find_transitions`, one per secondary axis."""

    name = "closed_form_maps"
    item = "one grid cell of a surface"
    presets = ("fig2", "fig3", "fig4")
    z_count = 51
    secondary_count = 41
    reference_rounds = 2
    trace_rounds = 30

    @staticmethod
    def render_preset(name):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = zc.cli.main(["sweep", "--preset", name])
        return code, buf.getvalue()

    @staticmethod
    def surface(spec):
        result = zc.run_sweep(spec)
        return result, zc.find_transitions(result)

    def _secondary_axis(self, rng, name):
        n = self.secondary_count
        if name == "delta_k":
            return zc.AxisSpec(rng.uniform(1e-4, 0.01), rng.uniform(0.2, 0.4), n)
        if name == "k_magnitude":
            return zc.AxisSpec(rng.uniform(0.03, 0.08), rng.uniform(0.3, 0.6), n)
        if name == "phi":
            lo = rng.uniform(0.0, 1.0)
            return zc.AxisSpec(lo, lo + rng.uniform(3.0, TWO_PI), n)
        # gamma_nl: kept above 0, where a cell's z would silently become gamma*z
        return zc.AxisSpec(rng.uniform(2e-4, 1e-3), rng.uniform(2e-3, 5e-3), n)

    def surface_spec(self, rng, axis_name):
        k_mag = rng.uniform(0.05, 0.2)
        dk = _off_resonance(rng.uniform(1e-4, 0.3), k_mag, 0.1)
        params = zc.CouplerParams(
            k=k_mag * _phase(rng), gamma_nl=rng.uniform(5e-4, 2e-3) * _phase(rng), delta_k=dk)
        inputs = zc.CoherentInputs(rng.uniform(1.0, 5.0) * _phase(rng),
                                   rng.uniform(1.0, 3.0) * _phase(rng),
                                   rng.uniform(0.5, 1.5) * _phase(rng))
        return zc.SweepSpec(
            params=params, inputs=inputs,
            z_axis=zc.AxisSpec(0.0, rng.uniform(0.05, 0.15), self.z_count),
            secondary_name=axis_name,
            secondary_axis=self._secondary_axis(rng, axis_name),
            label=f"seeded {axis_name} surface")

    def rounds(self, rng):
        preset_cells = {}
        for name in self.presets:
            spec = zc.preset_sweep(name)
            sec = 1 if spec.secondary_axis is None else spec.secondary_axis.count
            preset_cells[name] = sec * spec.z_axis.count
        while True:
            calls = [(self.render_preset, (name,), preset_cells[name]) for name in self.presets]
            for axis_name in zc.sweep.SECONDARY_AXES:
                calls.append((self.surface, (self.surface_spec(rng, axis_name),),
                              self.secondary_count * self.z_count))
            yield calls

    def warm_up(self):
        self.render_preset("fig2")
        spec = self.surface_spec(np.random.default_rng(0), "delta_k")
        self.surface(replace(spec, z_axis=zc.AxisSpec(0.0, 0.1, 3),
                             secondary_axis=zc.AxisSpec(1e-4, 0.3, 3)))

    # -- checks ---------------------------------------------------------
    @staticmethod
    def _cell_ok(n_b2, n_ref, dnz, classification) -> bool:
        return (_finite(n_b2, n_ref, dnz)
                and abs(dnz - (n_b2 - n_ref)) <= CLOSED_FORM_TOL
                and classification is classify(dnz))

    def _preset_codes(self, text):
        """Per-row classification codes of a rendered sweep, or None if the
        table is malformed; a row failing its cell check is coded 'x'."""
        lines = text.splitlines()
        if not lines or lines[0].split(",")[-3:] != ["delta_n_z", "classification", "status"]:
            return None
        codes = []
        for line in lines[1:]:
            row = line.split(",")
            if row[-1] == "degenerate":
                codes.append("D")
                continue
            try:
                n_b2, n_ref, dnz = (float(v) for v in row[4:7])
                cls = Classification(row[7])
            except (ValueError, IndexError):
                codes.append("x")
                continue
            codes.append(_CLASS_CODE[cls] if row[-1] == "ok" and self._cell_ok(
                n_b2, n_ref, dnz, cls) else "x")
        return "".join(codes)

    @staticmethod
    def _surface_codes(result):
        codes = []
        for c in result.cells:
            if c.status == "degenerate" and c.sample is None:
                codes.append("D")
            elif c.status == "ok" and ClosedFormMaps._cell_ok(
                    c.sample.n_b2, c.sample.n_b2_uncoupled, c.sample.delta_n_z,
                    c.sample.classification):
                codes.append(_CLASS_CODE[c.sample.classification])
            else:
                codes.append("x")
        return "".join(codes)

    @staticmethod
    def _transitions_ok(result, transitions, codes) -> bool:
        ns, nz = result.n_secondary, result.n_z
        sign = np.array([{"Z": 1, "A": -1}.get(ch, 0) for ch in codes]).reshape(ns, nz)
        expected = int(np.sum(sign[:, 1:] * sign[:, :-1] == -1)
                       + np.sum(sign[1:, :] * sign[:-1, :] == -1))
        if len(transitions) != expected:
            return False
        for a, b in transitions:
            step = (b.secondary_index - a.secondary_index, b.z_index - a.z_index)
            if step not in ((0, 1), (1, 0)):
                return False
            if {a.sample.classification, b.sample.classification} != {
                    Classification.ZENO, Classification.ANTI_ZENO}:
                return False
        return True

    def codes(self, call, out):
        if call[0] == self.render_preset:
            code, text = out
            return self._preset_codes(text) if code == 0 else None
        return self._surface_codes(out[0])

    def check(self, call, out) -> int:
        items = call[2]
        codes = self.codes(call, out)
        if codes is None or len(codes) != items:
            return items
        if call[0] == self.surface and not self._transitions_ok(out[0], out[1], codes):
            return items
        if (call[0] == self.render_preset and self.preset_digests is not None
                and _digest(codes) != self.preset_digests[call[1][0]]):
            return items  # presets are seed-independent: checked on every seed
        return codes.count("x")

    def summary(self, call, out):
        return _digest(self.codes(call, out) or "")

    def output_bytes(self, call, out) -> int:
        return len(out[1].encode()) if call[0] == self.render_preset else 0

    def corrupt(self, out):
        # The first call of a round renders fig2, whose cells past z = 0 are Zeno.
        code, text = out
        return code, text.replace(",Zeno,ok", ",AntiZeno,ok", 1)


class OracleScan(Workload):
    """Small-amplitude truncated-Fock oracle runs: one z-row through
    `propagate`, made as one call the way `zenocoupler oracle --z a:b:n`
    makes it, and eight `oracle_zeno_parameter` cross-check points per
    round.

    Every round has the same strata: the points take dk log-spaced over
    [1e-4, 0.3] at z ~ 6, so dk*z runs from 6e-4 to 1.8 rad.  The seed
    jitters every magnitude (couplings, amplitudes, z) by up to 2%.  The
    phases are fixed per stratum: with random phases the step-doubling
    count of a stratum jumps by up to 2x from seed to seed, which would
    make a run's cost mix, and its median call, depend on the seed.
    """

    name = "oracle_scan"
    item = "one (params, z) oracle evaluation: an oracle_zeno_parameter point or one z of a propagate row"
    cutoffs = (7, 7, 5)  # pass the truncation guard at the amplitudes below
    amplitudes = (0.3, 0.3, 0.2)
    k_mag = 0.1
    gamma_nl = 1e-3
    z = 6.0
    dk_strata = tuple(float(v) for v in np.geomspace(1e-4, 0.3, 8))
    row_dk = 1e-2
    row_fractions = (0.25, 0.5, 0.75, 1.0)
    jitter = 0.02
    # (k, gamma_nl, alpha, beta, gamma) phases of the row and of each point stratum
    phases = np.random.default_rng(7).uniform(0.0, TWO_PI, (1 + len(dk_strata), 5))
    reference_rounds = 2
    trace_rounds = 12

    def __init__(self):
        self.truncation = zc.TruncationSpec(*self.cutoffs)

    @property
    def row_share(self) -> float:
        rows = len(self.row_fractions)
        return rows / (rows + len(self.dk_strata))

    def _draw(self, rng, dk, phases):
        def jitter():
            return rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

        ph = np.exp(1j * phases)
        params = zc.CouplerParams(k=complex(self.k_mag * jitter() * ph[0]),
                                  gamma_nl=complex(self.gamma_nl * ph[1]),
                                  delta_k=dk * jitter())
        inputs = zc.CoherentInputs(*(complex(a * jitter() * p)
                                     for a, p in zip(self.amplitudes, ph[2:])))
        return params, inputs, self.z * jitter()

    @staticmethod
    def point(params, inputs, z, truncation):
        return zc.oracle_zeno_parameter(params, inputs, z, truncation)

    @staticmethod
    def row(params, inputs, zs, truncation):
        out = []
        for z in zs:
            report = zc.propagate(params, inputs, z, truncation)
            out.append((report, zc.mode_expectations(report.final_state)))
        return out

    def rounds(self, rng):
        while True:
            params, inputs, z_max = self._draw(rng, self.row_dk, self.phases[0])
            zs = tuple(z_max * f for f in self.row_fractions)
            calls = [(self.row, (params, inputs, zs, self.truncation), len(zs))]
            for dk, phases in zip(self.dk_strata, self.phases[1:]):
                params, inputs, z = self._draw(rng, dk, phases)
                calls.append((self.point, (params, inputs, z, self.truncation), 1))
            yield calls

    def warm_up(self):
        params, inputs, _ = self._draw(np.random.default_rng(0), self.row_dk, self.phases[0])
        self.point(params, inputs, 1.0, self.truncation)
        self.row(params, inputs, (1.0,), self.truncation)

    def _row_z_failed(self, inputs, truncation, report, means) -> bool:
        n_a, n_b1, n_b2 = means
        if not _finite(n_a, n_b1, n_b2):
            return True
        if report.norm_drift > ORACLE_NORM_TOL or report.conservation_drift > ORACLE_CONSERVATION_TOL:
            return True
        norm = float(np.linalg.norm(report.final_state.amplitudes))
        a0, b0, c0 = mode_expectations(build_coherent_state(inputs, truncation))
        return (abs(norm - 1.0) > ORACLE_NORM_TOL
                or abs((n_a + n_b1 + 2.0 * n_b2) - (a0 + b0 + 2.0 * c0)) > ORACLE_CONSERVATION_TOL)

    def check(self, call, out) -> int:
        if call[0] == self.point:
            params, inputs, z, _ = call[1]
            closed_form = zc.zeno_parameter(params, inputs, z)
            return 0 if _finite(out) and abs(out - closed_form) <= ORACLE_CLOSED_FORM_TOL else 1
        _, inputs, zs, truncation = call[1]
        if len(out) != len(zs):
            return len(zs)
        return sum(self._row_z_failed(inputs, truncation, report, means) for report, means in out)

    def summary(self, call, out):
        return out if call[0] == self.point else [list(means) for _, means in out]

    def same(self, summary, reference) -> bool:
        return bool(np.all(np.abs(np.subtract(summary, reference)) <= ORACLE_REFERENCE_TOL))

    def corrupt(self, out):
        # The first call of a round is the row, whose checks hold for any seed.
        report, (n_a, n_b1, n_b2) = out[0]
        return [(report, (n_a, n_b1, n_b2 + 1e-6))] + out[1:]


WORKLOADS = {w.name: w for w in (ClosedFormMaps, ClosedFormPoints, OracleScan)}
