"""tracemalloc peak bytes of every routing of the benchmark's workloads.

Usage:

    python scripts/route_peaks.py CHECKOUT --seed 1 [--tiny]

``CHECKOUT`` is the root of a vecroute checkout; its ``src/`` provides the
package and its ``perfbench/workloads.py`` the workloads. Inputs and
parameters are drawn from the seed as ``route_digest.py`` draws them.
Each routing of each workload runs with the trace off, once to warm up
and then once through ``measure_peak``, whose peak bytes are printed
under ``WORKLOAD/routingK``. Then it runs the same way with the trace on
(``.../traced``), and the first read of that trace's iteration records,
which builds them, is measured too (``.../first_read``). The output is
sorted JSON, so two checkouts can be compared key by key, and two runs
of one checkout with ``diff``. The bytes repeat exactly from process to
process: CI diffs two runs at the smoke test's tiny shapes, and at full
shapes three runs of one checkout (2 CPUs, numpy 2.4, Linux) printed
identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from route_digest import workload_inputs


def route_peaks(seed: int, tiny: bool) -> dict[str, int]:
    from vecroute import measure_peak, route_optimized
    from workloads import workloads

    def peak(fn, warm_up=None):
        (warm_up or fn)()
        return measure_peak(fn)

    out = {}
    for name, wl in workloads(tiny).items():
        x, params = workload_inputs(seed, wl)
        for k, p in enumerate(params):
            key = f"{name}/routing{k}"
            (result, _), out[key] = peak(lambda: route_optimized(x, p))
            (_, trace), out[f"{key}/traced"] = peak(lambda: route_optimized(x, p, capture_trace=True))
            # A second read returns the built records, so another trace warms up.
            _, out[f"{key}/first_read"] = peak(
                lambda: trace.iterations[0],
                lambda: route_optimized(x, p, capture_trace=True)[1].iterations[0],
            )
            x = result.array
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the vecroute checkout to measure")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the smoke test's tiny shapes")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    print(json.dumps(route_peaks(args.seed, args.tiny), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
