#!/usr/bin/env python3
"""Record the default-seed reference values that `run.py` checks against.

    python3 perfbench/record_reference.py

Runs the first rounds of every workload at the default seed, untimed,
checks every output, and writes reference_seed0.json next to this file:
the closed-form classification codes (digests for whole surfaces, one code
per point query), the oracle Zeno parameters and <N> triples, and the
digests of the seed-independent fig2/fig3/fig4 presets.  Re-record only
when a change is meant to alter these results.
"""

import json
import sys

import run


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import workloads

    record = {"default_seed": run.DEFAULT_SEED, "presets": {}}
    for name in run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]()
        gen = wl.rounds(np.random.default_rng(run.DEFAULT_SEED))
        summaries = []
        for _ in range(wl.reference_rounds):
            for call in next(gen):
                out = call[0](*call[1])
                if wl.check(call, out):
                    print(f"{name}: output check failed on {call}", file=sys.stderr)
                    return 1
                summaries.append(wl.summary(call, out))
                if call[0] == getattr(wl, "render_preset", None):
                    record["presets"][call[1][0]] = summaries[-1]
        record[name] = summaries
        print(f"{name}: {len(summaries)} reference calls")
    run.REFERENCE.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
