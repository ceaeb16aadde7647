#!/usr/bin/env python3
"""zenocoupler benchmark: closed-form maps, point queries and an oracle scan.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload closed_form_points --seed 0 \\
        --seconds 35 --trace 0

Workloads (see README.md for why each was chosen):
  closed_form_maps    fig2/fig3/fig4 through `zenocoupler sweep --preset`,
                      then seeded 2-D surfaces (run_sweep + find_transitions)
  closed_form_points  scattered zeno_sample + mode_means queries
  oracle_scan         oracle_zeno_parameter points and propagate z-rows

Each workload is a closed loop in this one process: the next top-level call
starts when the previous one returns.  The run measures whole rounds until
the timed work reaches --seconds; input generation and output checks sit
outside the timed part.  --trace 0 reports the end-to-end metrics;
--trace 1 times a fixed number of rounds untraced (the workload's
trace_rounds, scaled by --seconds / 35), then the same rounds with spans
recorded around every public package function, and reports the per-layer
metrics (spans are written to .bench_out/).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit codes: 0 every output
checked correct, 1 an output failed its check, 2 the package source is
missing or did not load from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference_seed0.json"

WORKLOAD_NAMES = ("closed_form_maps", "closed_form_points", "oracle_scan")
DEFAULT_SEED = 0
RUN_SECONDS = 35.0  # run_seconds in BENCHMARK.json
SETUP_SAMPLES = 11  # this process plus ten fresh ones spread over the run
TAIL_BEYOND = 10
TAIL_MAX_PCT = 99.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "call_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable cores (before numpy loads)."""
    n = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > n:
            os.environ[var] = str(n)


def timed_setup(workload: str) -> float:
    """Import the package and warm up every entry point the workload uses.

    numpy is imported before the clock starts: it is a dependency no change
    to the package moves, and its import (OpenBLAS load and thread start)
    is the noisiest part of a fresh process, 0.06-0.17 s back to back.
    """
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import zenocoupler  # noqa: F401
    import workloads

    workloads.WORKLOADS[workload]().warm_up()
    return time.perf_counter() - t0


def fresh_setup(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


# -- environment ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zenocoupler").glob("*.py*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    import zenocoupler as zc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "kernel_backend": zc.KERNEL_BACKEND,
        # the kernel fock actually calls, so kernel numbers are credited to
        # the backend that loaded, whatever KERNEL_BACKEND says
        "kernel_module": zc.fock._apply_kernel.__module__,
    }


# -- measurement ---------------------------------------------------------------

class LatencyHistogram:
    """Call latencies in log-spaced bins 0.05% wide, from 100 ns to 1000 s.

    Memory stays fixed however many calls a run makes, so `peak_rss_mb`
    does not grow with the program's speed.  Values are read back to within
    a bin, interpolated geometrically by rank inside it.
    """

    LOW = 1e-7
    RATIO = 1.0005

    def __init__(self):
        import numpy as np

        self._log_ratio = math.log(self.RATIO)
        self.counts = np.zeros(math.ceil(math.log(1e3 / self.LOW) / self._log_ratio) + 1,
                               dtype=np.int64)
        self.n = 0

    def add(self, seconds) -> None:
        import numpy as np

        x = np.maximum(np.asarray(seconds), self.LOW)
        bins = np.minimum((np.log(x / self.LOW) / self._log_ratio).astype(np.int64),
                          len(self.counts) - 1)
        self.counts += np.bincount(bins, minlength=len(self.counts))
        self.n += len(x)

    def value(self, rank: float) -> float:
        """Latency in seconds of the 0-based `rank` in sorted order."""
        import numpy as np

        cum = np.cumsum(self.counts)
        b = int(np.searchsorted(cum, rank, side="right"))
        below = cum[b - 1] if b else 0
        frac = (rank - below + 0.5) / self.counts[b]
        return self.LOW * self.RATIO ** (b + frac)


class Pass:
    """Counts and latencies of one measured pass over whole rounds."""

    def __init__(self):
        self.rounds = 0
        self.items = 0
        self.failed = 0
        self.timed = 0.0
        self.latencies = LatencyHistogram()
        self.bytes_out = 0


def measure(wl, seed, *, seconds=None, rounds=None, tracer=None, fault=False,
            reference=None, between=None) -> Pass:
    """Run whole rounds until the timed work reaches `seconds` (or for
    `rounds` rounds), checking every output after each round.  `between`,
    if given, is called with the timed seconds so far after each round,
    outside the timed part."""
    import numpy as np

    gen = wl.rounds(np.random.default_rng(seed))
    clock = time.perf_counter
    p = Pass()
    index = 0
    while (p.timed < seconds) if rounds is None else (p.rounds < rounds):
        calls = next(gen)
        outs = []
        lat = []
        if tracer is not None:
            tracer.install()
        t_round = clock()
        for fn, args, _ in calls:
            if tracer is not None:
                tracer.item = index + len(outs)
            t0 = clock()
            try:
                out = fn(*args)
            except Exception:  # counted as failed items, reported below
                out = _Failure(traceback.format_exc())
            lat.append(clock() - t0)
            outs.append(out)
        p.timed += clock() - t_round
        if tracer is not None:
            tracer.uninstall()
        p.latencies.add(lat)
        if fault and p.rounds == 0:
            outs[0] = wl.corrupt(outs[0])
        for call, out in zip(calls, outs):
            p.items += call[2]
            ref = reference[index] if reference and index < len(reference) else None
            bad = _check(wl, call, out, ref)
            if bad:
                p.failed += bad
                if p.failed == bad:
                    print(f"first failure: {wl.name} call {index}: {str(out)[-600:]}",
                          file=sys.stderr)
            if tracer is not None:
                p.bytes_out += wl.output_bytes(call, out)
            index += 1
        p.rounds += 1
        if between is not None:
            between(p.timed)
    return p


class _Failure:
    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


def _check(wl, call, out, reference) -> int:
    """Failed items of one call: an exception, a failed invariant, or (for
    the default seed) disagreement with the recorded reference."""
    if isinstance(out, _Failure):
        return call[2]
    try:
        bad = wl.check(call, out)
        if not bad and reference is not None and not wl.same(wl.summary(call, out), reference):
            bad = call[2]
    except Exception:  # a malformed output: count it and keep measuring
        traceback.print_exc()
        bad = call[2]
    return bad


class SetupProbes:
    """Fresh-process set-up samples spread evenly over a timed pass, so the
    median covers the host's fast and slow periods the run covers."""

    def __init__(self, workload: str, count: int, seconds: float):
        self.workload = workload
        self.due = [seconds * (i + 0.5) / count for i in range(count)]
        self.samples: list[float] = []

    def __call__(self, timed: float) -> None:
        while self.due and timed >= self.due[0]:
            self.due.pop(0)
            self.samples.append(fresh_setup(self.workload))

    def finish(self) -> list[float]:
        """Take the samples still due (a run shorter than one round)."""
        self(math.inf)
        return self.samples


def latency_stats(hist: LatencyHistogram) -> dict:
    n = hist.n
    # The highest percentile, up to p99, with at least TAIL_BEYOND samples
    # beyond it.  Past p99 the order statistic of a run of ~1e5 sub-ms
    # calls is set by host preemption, not by the program.  Runs too short
    # to have such a percentile above the median report the median.
    k = min(n - 1 - TAIL_BEYOND, math.ceil(n * TAIL_MAX_PCT / 100.0) - 1)
    k = max(k, math.ceil((n - 1) / 2.0))
    return {"n": n, "p50_ms": 1e3 * hist.value((n - 1) / 2.0),
            "tail_ms": 1e3 * hist.value(k), "tail_pct": 100.0 * (k + 1) / n,
            "beyond": n - 1 - k}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- entry point ---------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="timed work per run (whole rounds, at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first result (tests that checks trip)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zenocoupler" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(timed_setup(args.workload))
        return 0

    setups = [timed_setup(args.workload)]
    import zenocoupler as zc
    import tracing
    import workloads

    if not Path(zc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: zenocoupler loaded from {zc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ref_all = json.loads(REFERENCE.read_text())
    wl = workloads.WORKLOADS[args.workload]()
    wl.preset_digests = ref_all["presets"]
    reference = ref_all[args.workload] if args.seed == ref_all["default_seed"] else None

    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"item {wl.item}")
    if args.workload == "oracle_scan":
        print(f"row share of items {wl.row_share:.4f}")

    if args.trace:
        # A fixed amount of work, scaled only by --seconds, so that the
        # per-layer totals do not grow with the program's speed.
        rounds = max(1, round(wl.trace_rounds * args.seconds / RUN_SECONDS))
        plain = measure(wl, args.seed, rounds=rounds, fault=args.inject_fault,
                        reference=reference)
        tracer = tracing.Tracer()
        traced = measure(wl, args.seed, rounds=rounds, tracer=tracer,
                         fault=args.inject_fault, reference=reference)
        overhead = traced.timed / plain.timed - 1.0
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(span_file)
        values = tracing.layer_metrics(tracer, traced.items, traced.bytes_out, overhead)
        units = tracing.LAYER_UNITS
        attempted, failed = plain.items + traced.items, plain.failed + traced.failed
        print(f"spans {len(tracer.start)} written to {span_file.relative_to(ROOT)}")
        print(f"traced rounds {traced.rounds} items {traced.items} "
              f"(kernel counts computed for {env['kernel_module']})")
    else:
        probes = SetupProbes(args.workload, SETUP_SAMPLES - 1, args.seconds)
        plain = measure(wl, args.seed, seconds=args.seconds, fault=args.inject_fault,
                        reference=reference, between=probes)
        setups += probes.finish()
        lat = latency_stats(plain.latencies)
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": plain.items / plain.timed,
            "call_tail_ms": lat["tail_ms"],
            "peak_rss_mb": peak_rss_mb(),
        }
        units = E2E_UNITS
        attempted, failed = plain.items, plain.failed
        print(f"setup_s samples {[round(s, 4) for s in setups]}")
        print(f"calls {lat['n']}; call_tail_ms is p{lat['tail_pct']:.3f} "
              f"({lat['beyond']} calls beyond it)")
        # Reported, not in the result line: the median of calls of one cost
        # flips with the host's fast and slow periods (see README.md).
        print(f"call_p50_ms {lat['p50_ms']:.6g} ms (median of {lat['n']} calls)")

    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} items)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
